package sigserve

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"rev/internal/core"
	"rev/internal/evidence"
	"rev/internal/sigtable"
)

// TestEvidenceUploadListFetch: the evidence round trip —
// upload a stream, find it in the catalogue, fetch it back byte-equal,
// and get a typed rejection for an unknown name.
func TestEvidenceUploadListFetch(t *testing.T) {
	_, addr := startServer(t)
	c := newTestClient(t, ClientConfig{Addr: addr})

	stream := bytes.Repeat([]byte{0xab, 0xcd}, 500)
	ack, err := c.UploadEvidence("run-1", stream)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Bytes != uint64(len(stream)) || ack.Evicted != 0 {
		t.Fatalf("ack = %+v", ack)
	}
	if got := c.NegotiatedVersion(); got != Version {
		t.Fatalf("negotiated version = %d, want %d", got, Version)
	}

	list, err := c.ListEvidence()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Name != "run-1" || list[0].Bytes != uint64(len(stream)) {
		t.Fatalf("catalogue = %+v", list)
	}

	back, err := c.FetchEvidence("run-1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, stream) {
		t.Fatalf("fetched stream differs (%d vs %d bytes)", len(back), len(stream))
	}

	_, err = c.FetchEvidence("no-such-run")
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeUnknownEvidence {
		t.Fatalf("err = %v, want ServerError with CodeUnknownEvidence", err)
	}
}

// TestEvidenceRetentionEviction: per-tenant retention keeps the newest
// N streams, evicting oldest-first, and re-uploading a name replaces in
// place without burning a slot.
func TestEvidenceRetentionEviction(t *testing.T) {
	srv, addr := startServer(t)
	srv.SetEvidenceRetention(3, 0)
	c := newTestClient(t, ClientConfig{Addr: addr})

	for _, name := range []string{"a", "b", "c"} {
		if _, err := c.UploadEvidence(name, []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	ack, err := c.UploadEvidence("d", []byte("dddd"))
	if err != nil {
		t.Fatal(err)
	}
	if ack.Evicted != 1 {
		t.Fatalf("evicted = %d, want 1 (stream a)", ack.Evicted)
	}
	list, err := c.ListEvidence()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range list {
		names = append(names, e.Name)
	}
	if got := strings.Join(names, ","); got != "b,c,d" {
		t.Fatalf("catalogue = %s, want b,c,d", got)
	}

	// Replacing a retained name must not evict anything.
	ack, err = c.UploadEvidence("c", []byte("c-v2"))
	if err != nil {
		t.Fatal(err)
	}
	if ack.Evicted != 0 {
		t.Fatalf("replacement evicted %d streams", ack.Evicted)
	}
	back, err := c.FetchEvidence("c")
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != "c-v2" {
		t.Fatalf("fetched %q after replacement", back)
	}
}

// TestEvidenceSizeCap: uploads over the per-stream byte cap are
// rejected with CodeEvidenceTooLarge and not retained.
func TestEvidenceSizeCap(t *testing.T) {
	srv, addr := startServer(t)
	srv.SetEvidenceRetention(0, 64)
	c := newTestClient(t, ClientConfig{Addr: addr})

	_, err := c.UploadEvidence("big", make([]byte, 100))
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeEvidenceTooLarge {
		t.Fatalf("err = %v, want ServerError with CodeEvidenceTooLarge", err)
	}
	list, err := c.ListEvidence()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 0 {
		t.Fatalf("rejected stream was retained: %+v", list)
	}
}

// TestEvidenceRemoteByteIdentity is the remote leg of the evidence
// determinism contract: a run validating against a revserved endpoint
// (snapshot and lookup mode) emits an evidence stream byte-identical to
// the local run's, the stream survives an upload/fetch round trip
// unchanged, and it verifies against the local tables.
func TestEvidenceRemoteByteIdentity(t *testing.T) {
	f := fixture(t)
	stream := func(prep *core.Prepared) []byte {
		t.Helper()
		var buf bytes.Buffer
		em := evidence.NewEmitter(&buf, evidence.Config{Tenant: "default", Binding: "e2e"})
		res, err := prep.RunInstance(core.InstanceOptions{Evidence: em})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil {
			t.Fatalf("clean workload flagged: %v", res.Violation)
		}
		return buf.Bytes()
	}
	want := stream(f.prep)

	_, addr := startServer(t)
	for _, lookupMode := range []bool{false, true} {
		name := "snapshot"
		if lookupMode {
			name = "lookup"
		}
		t.Run(name, func(t *testing.T) {
			c := newTestClient(t, ClientConfig{Addr: addr, LookupMode: lookupMode})
			prep, err := core.PrepareRemote(f.prof.Builder(), f.rc, c)
			if err != nil {
				t.Fatal(err)
			}
			got := stream(prep)
			if !bytes.Equal(got, want) {
				t.Fatalf("remote %s evidence differs from local (%d vs %d bytes)", name, len(got), len(want))
			}
		})
	}

	// Upload, fetch back, and verify against the local tables.
	c := newTestClient(t, ClientConfig{Addr: addr})
	if _, err := c.UploadEvidence("e2e", want); err != nil {
		t.Fatal(err)
	}
	back, err := c.FetchEvidence("e2e")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, want) {
		t.Fatal("fetched evidence differs from uploaded stream")
	}
	sources := make(map[string]sigtable.Source, len(f.prep.Tables))
	for _, st := range f.prep.Tables {
		sources[st.Module] = st.Source()
	}
	rep, err := evidence.Verify(back, evidence.VerifyConfig{Tenant: "default", Binding: "e2e", Sources: sources})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome.Verdict != evidence.VerdictPass {
		t.Fatalf("verdict = %v, want pass", rep.Outcome.Verdict)
	}
}
