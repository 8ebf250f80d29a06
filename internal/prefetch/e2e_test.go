package prefetch_test

import (
	"fmt"
	"net"
	"testing"
	"time"

	"rev/internal/core"
	"rev/internal/prefetch"
	"rev/internal/sigserve"
	"rev/internal/sigtable"
	"rev/internal/workload"
)

// resultSig renders the determinism-contract fields of a Result,
// SourceNotes included: a healthy prefetching run must match the local
// run byte for byte. (Engine memo counters are scrubbed: memoization is
// an in-process cache whose hit pattern is not part of the contract.)
func resultSig(res *core.Result) string {
	eng := res.Engine
	eng.MemoHits, eng.MemoMisses = 0, 0
	return fmt.Sprintf("%v|%v|%v|%+v|%+v|%d|%+v|%+v|%+v|%+v|%+v|%+v|%+v",
		res.Output, res.Halted, res.Violation, res.Pipe, res.Branch,
		res.UniqueBranches, res.L1D, res.L1I, res.L2, res.DRAM,
		res.SC, eng, res.SourceNotes)
}

// e2eSetup prepares the shared pieces: a locally validated baseline, its
// run config, and a loopback server publishing the exact same tables.
func e2eSetup(t *testing.T) (prof workload.Profile, rc core.RunConfig, localSig string, srv *sigserve.Server, addr string) {
	t.Helper()
	p, err := workload.ByName("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	prof = p.Scaled(0.03)
	rc = core.DefaultRunConfig()
	rc.MaxInstrs = 50_000
	cfg := core.DefaultConfig()
	cfg.Format = sigtable.Normal
	rc.REV = &cfg

	prep, err := core.Prepare(prof.Builder(), rc)
	if err != nil {
		t.Fatal(err)
	}
	local, err := prep.RunInstance(core.InstanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if local.Violation != nil {
		t.Fatalf("clean workload flagged locally: %v", local.Violation)
	}
	localSig = resultSig(local)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv = sigserve.NewServer()
	for _, st := range prep.Tables {
		srv.Publish("default", st.Module, *st.Table, st.Snap)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return prof, rc, localSig, srv, ln.Addr().String()
}

// TestPrefetchRunByteIdentity is the acceptance check: a lookup-mode run
// with the prefetcher between engine and wire produces byte-identical
// verdicts and figures to the in-process run at every depth and service
// delay, with no degradation notes.
func TestPrefetchRunByteIdentity(t *testing.T) {
	prof, rc, want, srv, addr := e2eSetup(t)
	for _, depth := range []int{1, 4, 32} {
		for _, delay := range []time.Duration{0, time.Millisecond} {
			t.Run(fmt.Sprintf("depth=%d/delay=%s", depth, delay), func(t *testing.T) {
				srv.SetDelay(delay)
				defer srv.SetDelay(0)
				c, err := sigserve.NewClient(sigserve.ClientConfig{Addr: addr, LookupMode: true})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				rcp := rc
				rcp.Prefetch = prefetch.Config{Depth: depth}
				prep, err := core.PrepareRemote(prof.Builder(), rcp, c)
				if err != nil {
					t.Fatal(err)
				}
				defer prep.Close()
				res, err := prep.RunInstance(core.InstanceOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if res.SourceNotes != nil {
					t.Fatalf("healthy prefetching run carries source notes: %+v", res.SourceNotes)
				}
				if got := resultSig(res); got != want {
					t.Fatalf("prefetching run diverged from local:\n got %s\nwant %s", got, want)
				}
				if st, ok := prep.PrefetchStats(); !ok || st.Issued == 0 {
					t.Fatalf("prefetcher never issued a speculative query: %+v (ok=%v)", st, ok)
				}
			})
		}
	}
}

// TestPrefetchSurvivesServerDeath kills the server mid-run with the
// prefetcher active: speculative failures must be dropped silently, the
// engine's own blocking path must keep today's degrade-to-snapshot
// semantics (verdicts identical, an explicit note, never a violation).
func TestPrefetchSurvivesServerDeath(t *testing.T) {
	prof, rc, want, srv, addr := e2eSetup(t)
	c, err := sigserve.NewClient(sigserve.ClientConfig{
		Addr:             addr,
		LookupMode:       true,
		RequestTimeout:   100 * time.Millisecond,
		Retries:          1,
		BackoffBase:      time.Millisecond,
		BackoffMax:       2 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour, // stay open once tripped
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rcp := rc
	rcp.Prefetch = prefetch.Config{Depth: 8}
	prep, err := core.PrepareRemote(prof.Builder(), rcp, c)
	if err != nil {
		t.Fatal(err) // snapshot cache fetched here, pre-fault
	}
	defer prep.Close()
	srv.FaultAfter(10) // let a few frames through, then "die"

	res, err := prep.RunInstance(core.InstanceOptions{})
	if err != nil {
		t.Fatalf("degraded prefetching run must still complete: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("transport fault became a violation: %v", res.Violation)
	}
	if len(res.SourceNotes) == 0 {
		t.Fatal("degraded run carries no source note")
	}
	note := res.SourceNotes[0]
	if !note.Degraded || note.Module == "" || note.Detail == "" {
		t.Fatalf("incomplete degradation note: %+v", note)
	}
	// Scrub the notes (the only legitimate difference; the local baseline
	// has none) and compare the verdict-bearing fields byte for byte.
	scrubbed := *res
	scrubbed.SourceNotes = nil
	if got := resultSig(&scrubbed); got != want {
		t.Fatalf("degraded run diverged from the local baseline:\n got %s\nwant %s", got, want)
	}
}
