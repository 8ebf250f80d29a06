package sigserve

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"runtime"
	"testing"

	"rev/internal/sigtable"
)

func TestFrameRoundTrip(t *testing.T) {
	// big spans several frameChunks, so its buffer grows while it is read.
	big := make([]byte, 3*frameChunk+5)
	for i := range big {
		big[i] = byte(i * 7)
	}
	frames := []Frame{
		{Version: Version, Type: MsgPing, ReqID: 1},
		{Version: Version, Type: MsgHello, Flags: 0xBEEF, ReqID: 1 << 40,
			Payload: helloMsg{MinVersion: 1, MaxVersion: 3, Tenant: "team-a"}.encode()},
		{Version: Version, Type: MsgError, ReqID: 7,
			Payload: errorMsg{Code: CodeUnknownModule, Detail: "gcc"}.encode()},
		{Version: Version, Type: MsgSnapshotData, ReqID: 8, Payload: big},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("empty stream: want io.EOF, got %v", err)
	}
}

func TestFrameTruncation(t *testing.T) {
	full := AppendFrame(nil, Frame{Version: Version, Type: MsgLookup, ReqID: 9, Payload: []byte("abcdefgh")})
	// Every proper prefix must fail without panicking, with EOF only for
	// the empty prefix.
	for cut := 0; cut < len(full); cut++ {
		_, err := ReadFrame(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", cut, len(full))
		}
		if cut == 0 && err != io.EOF {
			t.Fatalf("empty input: want io.EOF, got %v", err)
		}
		if cut > 0 && cut < 4 && err != io.ErrUnexpectedEOF {
			t.Fatalf("torn length field: want ErrUnexpectedEOF, got %v", err)
		}
	}
}

func TestFrameHostileLength(t *testing.T) {
	// A length below the header minimum and one above MaxPayload must both
	// be rejected before any allocation.
	for _, n := range []uint32{0, 11, lenFieldCovers + MaxPayload + 1, 1 << 31} {
		raw := []byte{byte(n), byte(n >> 8), byte(n >> 16), byte(n >> 24)}
		raw = append(raw, make([]byte, 64)...)
		if _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
			t.Fatalf("length %d accepted", n)
		}
	}
}

// TestFrameDeclaredLengthBoundsAlloc sends a header declaring a
// MaxPayload frame and then ends the stream, with and without some
// payload bytes first: the read must fail with io.ErrUnexpectedEOF, and
// a bare header must cost at most one frameChunk of allocation, not the
// declared 16 MiB.
func TestFrameDeclaredLengthBoundsAlloc(t *testing.T) {
	hdr := AppendFrame(nil, Frame{Version: Version, Type: MsgSnapshotData, ReqID: 1})
	binary.LittleEndian.PutUint32(hdr, lenFieldCovers+MaxPayload)
	for _, sent := range []int{0, 1, frameChunk, 5*frameChunk + 3} {
		r := bytes.NewReader(append(append([]byte(nil), hdr...), make([]byte, sent)...))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadFrame(r)
		runtime.ReadMemStats(&after)
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("%d payload bytes then EOF: want io.ErrUnexpectedEOF, got %v", sent, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; sent == 0 && alloc > frameChunk+4096 {
			t.Fatalf("bare MaxPayload header allocated %d bytes, want at most one %d-byte chunk", alloc, frameChunk)
		}
	}
}

func TestLookupPayloadRoundTrip(t *testing.T) {
	batch := lookupBatch{Reqs: []lookupReq{
		{Module: "gcc", Kind: kindLookup, End: 0x1000, Sig: 0xDEADBEEF, WantFlags: wantTarget | wantPred, Target: 0x2000, Pred: 0x3000},
		{Module: "mcf", Kind: kindEdge, End: 0x4000, Target: 0x5000},
	}}
	back, err := decodeLookupBatch(batch.encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, batch) {
		t.Fatalf("batch round trip: got %+v want %+v", back, batch)
	}

	res := lookupBatchRes{Res: []lookupRes{
		{Verdict: verdictFound, Touched: []uint64{1, 2, 3}, HasEntry: 1,
			Entry: sigtable.Entry{End: 0x1000, Hash: 42, Term: 3, Targets: []uint64{7}, RetPreds: []uint64{8, 9}}},
		{Verdict: verdictMiss, Touched: []uint64{4}},
	}}
	backRes, err := decodeLookupBatchRes(res.encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(backRes, res) {
		t.Fatalf("result round trip: got %+v want %+v", backRes, res)
	}
}

// TestHelloVersionInvariant pins Hello's fixed layout against a golden
// image of the reference client's Hello. Hello is the one message a
// server parses before it knows the client's version, so its shape
// never depends on the range offered; trailing bytes are tolerated only
// from clients offering a version newer than this server speaks (the
// seam that lets a future version extend Hello at all).
func TestHelloVersionInvariant(t *testing.T) {
	hello := helloMsg{MinVersion: Version, MaxVersion: Version, Tenant: "default"}.encode()
	want := []byte{0x04, 0x04, 7, 0, 'd', 'e', 'f', 'a', 'u', 'l', 't'}
	if !bytes.Equal(hello, want) {
		t.Fatalf("Hello encodes to % x, want % x", hello, want)
	}
	if _, err := decodeHello(hello); err != nil {
		t.Fatal(err)
	}
	// Trailing bytes from a client offering our version or older stay a
	// framing violation...
	if _, err := decodeHello(append(append([]byte(nil), hello...), 1, 2, 3)); err == nil {
		t.Fatal("trailing bytes accepted from a client offering our version")
	}
	// ...but from a future-version client they are an unknown extension
	// and are ignored.
	future := append([]byte{Version, Version + 1, 7, 0, 'd', 'e', 'f', 'a', 'u', 'l', 't'}, 1, 2, 3)
	m, err := decodeHello(future)
	if err != nil {
		t.Fatalf("future-version Hello with unknown extension rejected: %v", err)
	}
	if m.MaxVersion != Version+1 || m.Tenant != "default" {
		t.Fatalf("future Hello decoded to %+v", m)
	}
}

// FuzzReadFrame checks that no byte stream — torn, short, hostile
// lengths, or random payload bytes fed to every payload decoder — can
// panic the decode path, and that any frame that does decode re-encodes
// to an identical frame.
func FuzzReadFrame(f *testing.F) {
	f.Add(AppendFrame(nil, Frame{Version: Version, Type: MsgPing, ReqID: 7}))
	f.Add(AppendFrame(nil, Frame{Version: Version, Type: MsgHello, ReqID: 1,
		Payload: helloMsg{MinVersion: 1, MaxVersion: 1, Tenant: "default"}.encode()}))
	f.Add(AppendFrame(nil, Frame{Version: Version, Type: MsgLookupBatch, ReqID: 2,
		Payload: lookupBatch{Reqs: []lookupReq{{Module: "gcc", End: 8}}}.encode()}))
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Add([]byte{12, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	// A bare header declaring the largest legal payload, then EOF.
	hostile := AppendFrame(nil, Frame{Version: Version, Type: MsgSnapshotData, ReqID: 3})
	binary.LittleEndian.PutUint32(hostile, lenFieldCovers+MaxPayload)
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err == nil {
			re := AppendFrame(nil, fr)
			fr2, err2 := ReadFrame(bytes.NewReader(re))
			if err2 != nil || !reflect.DeepEqual(fr, fr2) {
				t.Fatalf("re-encode diverged: %+v vs %+v (%v)", fr, fr2, err2)
			}
		}
		// Every payload decoder must survive arbitrary bytes.
		decodeHello(data)
		decodeWelcome(data)
		decodeError(data)
		decodeModuleList(data)
		decodeSnapshotReq(data)
		decodeSnapshotData(data)
		decodeSnapshotDeltaReq(data)
		decodeSnapshotDeltaData(data)
		decodeTopologyData(data)
		decodeLookupBatch(data)
		decodeLookupBatchRes(data)
		decodeEvidencePut(data)
		decodeEvidenceAck(data)
		decodeEvidenceCatalog(data)
		decodeEvidenceGet(data)
		decodeEvidenceData(data)
		d := dec{b: data}
		decodeLookupReq(&d)
		d2 := dec{b: data}
		decodeLookupRes(&d2)
	})
}

// FuzzApplyDelta feeds applyDelta a decoded MsgSnapshotDeltaData
// payload and a cached wire image. It must never panic, and an image it
// accepts must be exactly Records records long and hash to NewHash —
// the chain check is the only thing standing between a hostile delta
// and the validator's table. The seeds are the response of
// Example_snapshotDeltaRoundTrip (whose new-hash is arbitrary, so it
// exercises the rejection path) and the same patch with a consistent
// chain head (the acceptance path).
func FuzzApplyDelta(f *testing.F) {
	example := snapshotDeltaData{
		Table:    sigtable.Table{Format: sigtable.CFIOnly, Module: "gcc", Base: 0x400000, Buckets: 4, Records: 4, Size: 64},
		Epoch:    4,
		PrevHash: 0x1122334455667788,
		NewHash:  0x99aabbccddeeff00,
		Patches: []deltaPatch{
			{Index: 2, Rec: []byte{0x58, 0x03, 0x30, 0x00, 0x00, 0x00, 0x00, 0x00}},
		},
	}
	cached := make([]byte, 4*sigtable.CFIRecordSize)
	f.Add(example.encode(), cached)
	want := append([]byte(nil), cached...)
	copy(want[2*sigtable.CFIRecordSize:], example.Patches[0].Rec)
	consistent := example
	consistent.NewHash = snapHash(example.Table, want)
	f.Add(consistent.encode(), cached)
	f.Fuzz(func(t *testing.T, payload, old []byte) {
		d, err := decodeSnapshotDeltaData(payload)
		if err != nil {
			return
		}
		out, err := applyDelta(old, d)
		if err != nil {
			return
		}
		recSize := uint64(sigtable.RecordSize)
		if d.Table.Format == sigtable.CFIOnly {
			recSize = sigtable.CFIRecordSize
		}
		if uint64(len(out)) != d.Table.Records*recSize {
			t.Fatalf("applied image is %d bytes, want %d records of %d", len(out), d.Table.Records, recSize)
		}
		if snapHash(d.Table, out) != d.NewHash {
			t.Fatal("applied image does not hash to the stated chain head")
		}
	})
}
