package evidence

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"rev/internal/chash"
	"rev/internal/isa"
	"rev/internal/sigtable"
	"rev/internal/telemetry"
)

// mapSource is a test signature source: a fixed set of entries keyed by
// block end address, and a fixed set of legal CFI edges.
type mapSource struct {
	entries map[uint64]sigtable.Entry
	edges   map[[2]uint64]bool
}

func (s *mapSource) Lookup(end uint64, sig chash.Sig, _ sigtable.Want) (sigtable.Entry, []uint64, error) {
	return s.LookupAll(end, sig)
}

func (s *mapSource) LookupAll(end uint64, sig chash.Sig) (sigtable.Entry, []uint64, error) {
	e, ok := s.entries[end]
	if !ok || e.Hash != sig {
		return sigtable.Entry{}, nil, sigtable.ErrMiss
	}
	return e, nil, nil
}

func (s *mapSource) LookupEdge(src, dst uint64) ([]uint64, error) {
	if !s.edges[[2]uint64{src, dst}] {
		return nil, sigtable.ErrMiss
	}
	return nil, nil
}

// testWorld is a tiny synthetic run: a module, a source accepting its
// blocks, and the commit sequence a clean run would emit.
type testWorld struct {
	mods   []ModuleRange
	src    *mapSource
	tuples []tuple
}

func newTestWorld() *testWorld {
	w := &testWorld{
		mods: []ModuleRange{{Name: "m", Start: 0x1000, Limit: 0x10f8}},
		src: &mapSource{entries: map[uint64]sigtable.Entry{
			0x1008: {End: 0x1008, Hash: 0x11111111, Term: isa.KindCondBranch},
			0x1020: {End: 0x1020, Hash: 0x22222222, Term: isa.KindICall,
				Targets: []uint64{0x1030}},
			0x1040: {End: 0x1040, Hash: 0x33333333, Term: isa.KindRet},
			0x1060: {End: 0x1060, Hash: 0x44444444, Term: isa.KindJump,
				RetPreds: []uint64{0x1040}},
		}},
	}
	w.tuples = []tuple{
		{end: 0x1008, next: 0x1010, term: isa.KindCondBranch, sig: 0x11111111},
		{end: 0x1020, next: 0x1030, term: isa.KindICall, sig: 0x22222222},
		{end: 0x1040, next: 0x1060, term: isa.KindRet, sig: 0x33333333},
		{end: 0x1060, next: 0x1068, term: isa.KindJump, sig: 0x44444444},
	}
	return w
}

// emit runs the world's commit sequence through a real emitter and
// returns the stream bytes.
func (w *testWorld) emit(t testing.TB, cfg Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	em := NewEmitter(&buf, cfg)
	if err := em.Begin(sigtable.Normal, w.mods); err != nil {
		t.Fatal(err)
	}
	for _, tp := range w.tuples {
		em.Commit(tp.end, tp.next, tp.term, tp.sig)
	}
	if err := em.Finish(Outcome{Verdict: VerdictPass, Halted: true}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func (w *testWorld) verify(stream []byte, tenant string) (*Report, error) {
	return Verify(stream, VerifyConfig{
		Tenant:  tenant,
		Sources: map[string]sigtable.Source{"m": w.src},
	})
}

// FuzzVerify feeds Verify streams mutated from one the emitter wrote.
// Verify (and Peek) must never panic, and no input but that stream may
// verify as a pass: the chain covers every byte of every record, so an
// edit must be rejected, never accepted or turned into another verdict.
func FuzzVerify(f *testing.F) {
	w := newTestWorld()
	seed := w.emit(f, Config{Tenant: "acme", Binding: "demo", Window: 3})
	f.Add(seed)
	f.Fuzz(func(t *testing.T, stream []byte) {
		Peek(stream)
		rep, err := w.verify(stream, "acme")
		if err == nil && !bytes.Equal(stream, seed) {
			t.Fatalf("altered stream verified (verdict %v): %x", rep.Outcome.Verdict, stream)
		}
	})
}

func TestEmitVerifyRoundTrip(t *testing.T) {
	w := newTestWorld()
	stream := w.emit(t, Config{Tenant: "acme", Binding: "demo", Window: 3})
	rep, err := w.verify(stream, "acme")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Blocks != 4 || rep.Segments != 2 || rep.Outcome.Verdict != VerdictPass {
		t.Errorf("report = %+v", rep)
	}
	if rep.Genesis.Binding != "demo" || rep.Genesis.Window != 3 {
		t.Errorf("genesis = %+v", rep.Genesis)
	}
}

// records splits a stream into framed record byte ranges for tampering.
func records(t *testing.T, stream []byte) [][]byte {
	t.Helper()
	var recs [][]byte
	for off := 0; off < len(stream); {
		n := int(binary.LittleEndian.Uint32(stream[off:]))
		recs = append(recs, stream[off:off+4+n])
		off += 4 + n
	}
	return recs
}

func join(recs [][]byte) []byte {
	var out []byte
	for _, r := range recs {
		out = append(out, r...)
	}
	return out
}

// TestTamperMatrix: every tamper class is rejected with its own typed
// error — the satellite test matrix (bit flip, record drop, record
// reorder, truncation, cross-tenant splice) plus the malformed-framing
// and payload-forgery cases.
func TestTamperMatrix(t *testing.T) {
	w := newTestWorld()
	// Window 2 gives genesis + 2 segments + final = 4 records.
	stream := w.emit(t, Config{Tenant: "acme", Window: 2})
	if len(records(t, stream)) != 4 {
		t.Fatalf("unexpected record count %d", len(records(t, stream)))
	}

	cases := []struct {
		name   string
		tamper func([]byte) []byte
		want   error
	}{
		{"bit-flip-payload", func(s []byte) []byte {
			c := bytes.Clone(s)
			recs := records(t, c)
			// Flip one bit inside the first segment's first tuple.
			recs[1][4+5+3] ^= 0x40
			return c
		}, ErrChainMismatch},
		{"bit-flip-chain", func(s []byte) []byte {
			c := bytes.Clone(s)
			recs := records(t, c)
			recs[2][len(recs[2])-1] ^= 0x01
			return c
		}, ErrChainMismatch},
		{"record-drop", func(s []byte) []byte {
			recs := records(t, bytes.Clone(s))
			return join([][]byte{recs[0], recs[2], recs[3]})
		}, ErrRecordDrop},
		{"record-reorder", func(s []byte) []byte {
			recs := records(t, bytes.Clone(s))
			return join([][]byte{recs[0], recs[2], recs[1], recs[3]})
		}, ErrRecordReorder},
		{"truncation-mid-record", func(s []byte) []byte {
			return bytes.Clone(s)[:len(s)-7]
		}, ErrTruncated},
		{"truncation-at-boundary", func(s []byte) []byte {
			recs := records(t, bytes.Clone(s))
			return join(recs[:3]) // clean cut: final record gone
		}, ErrTruncated},
		{"empty", func(s []byte) []byte { return nil }, ErrTruncated},
		{"malformed-length", func(s []byte) []byte {
			c := bytes.Clone(s)
			binary.LittleEndian.PutUint32(c, 3) // below minimum record size
			return c
		}, ErrMalformed},
		{"malformed-type", func(s []byte) []byte {
			c := bytes.Clone(s)
			c[4] = 0x7f
			return c
		}, ErrMalformed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := w.verify(tc.tamper(stream), "acme")
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}

	t.Run("cross-tenant-splice", func(t *testing.T) {
		other := w.emit(t, Config{Tenant: "mallory", Window: 2})
		if _, err := w.verify(other, "acme"); !errors.Is(err, ErrBindingMismatch) {
			t.Fatalf("err = %v, want ErrBindingMismatch", err)
		}
	})
}

// TestReplayRejections: structurally intact streams whose committed
// tuples the verifier's tables refuse — forged by re-emitting with a
// real emitter so chain and path hashes are self-consistent, exactly
// what a prover lying about its execution would produce.
func TestReplayRejections(t *testing.T) {
	w := newTestWorld()
	forge := func(mutate func(ts []tuple) []tuple) []byte {
		fw := *w
		fw.tuples = mutate(append([]tuple(nil), w.tuples...))
		return fw.emit(t, Config{Tenant: "acme"})
	}
	cases := []struct {
		name   string
		stream []byte
		want   error
	}{
		{"unknown-module", forge(func(ts []tuple) []tuple {
			ts[0].end = 0x9000
			return ts
		}), ErrUnknownModule},
		{"unknown-block", forge(func(ts []tuple) []tuple {
			ts[0].sig = 0xdeadbeef
			return ts
		}), ErrUnknownBlock},
		{"illegal-target", forge(func(ts []tuple) []tuple {
			ts[1].next = 0x1050 // icall to a target not in the entry's set
			return ts
		}), ErrIllegalTarget},
		{"illegal-return", forge(func(ts []tuple) []tuple {
			// Claim the ret landed in a block that does not list 0x1040
			// as a predecessor.
			ts[3] = tuple{end: 0x1008, next: 0x1010, term: isa.KindCondBranch, sig: 0x11111111}
			return ts
		}), ErrIllegalReturn},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := w.verify(tc.stream, "acme"); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestPathHashForgery: rewriting a segment's tuples while fixing up the
// record chain still trips the cross-record path accumulator.
func TestPathHashForgery(t *testing.T) {
	w := newTestWorld()
	stream := w.emit(t, Config{Tenant: "acme", Window: 2})
	recs := records(t, bytes.Clone(stream))

	// Re-frame record 1 with a tuple swapped out but the ORIGINAL path
	// hash retained, re-chaining records 1..3 so the chain itself is
	// consistent. Only the path accumulator can catch this.
	var cs chainState
	type parsed struct {
		typ     uint8
		seq     uint32
		payload []byte
	}
	var ps []parsed
	for _, r := range recs {
		n := len(r)
		ps = append(ps, parsed{typ: r[4], seq: binary.LittleEndian.Uint32(r[5:]), payload: bytes.Clone(r[9 : n-chainSize])})
	}
	// Segment payload: [u16 count][tuples][16B path] — swap tuple 0's
	// end address with a still-known block so table replay would pass.
	seg := ps[1].payload
	binary.LittleEndian.PutUint64(seg[2:], 0x1060)
	binary.LittleEndian.PutUint32(seg[2+17:], 0x44444444)
	seg[2+16] = byte(isa.KindJump)
	var out []byte
	for _, p := range ps {
		out = appendRecord(out, p.typ, p.seq, p.payload, cs.next(p.typ, p.seq, p.payload))
	}
	if _, err := w.verify(out, "acme"); !errors.Is(err, ErrPathHashMismatch) {
		t.Fatalf("err = %v, want ErrPathHashMismatch", err)
	}
}

// TestFenceClearsReturnLatch: a ret followed by a fence (context
// switch) must not demand a ret-pred on the next block — mirroring the
// engine's latch clearing — while the same sequence without the fence
// must.
func TestFenceClearsReturnLatch(t *testing.T) {
	w := newTestWorld()
	emit := func(withFence bool) []byte {
		var buf bytes.Buffer
		em := NewEmitter(&buf, Config{Tenant: "acme"})
		if err := em.Begin(sigtable.Normal, w.mods); err != nil {
			t.Fatal(err)
		}
		em.Commit(0x1040, 0x1008, isa.KindRet, 0x33333333)
		if withFence {
			em.Fence(FenceContextSwitch, 0)
		}
		// 0x1008 lists no ret-preds: legal only if the latch was cleared.
		em.Commit(0x1008, 0x1010, isa.KindCondBranch, 0x11111111)
		if err := em.Finish(Outcome{Verdict: VerdictPass, Halted: true}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if _, err := w.verify(emit(true), "acme"); err != nil {
		t.Fatalf("fenced stream rejected: %v", err)
	}
	if _, err := w.verify(emit(false), "acme"); !errors.Is(err, ErrIllegalReturn) {
		t.Fatalf("err = %v, want ErrIllegalReturn", err)
	}
}

// TestVerdictAccountingMismatch: a final record sealing the wrong block
// count is rejected.
func TestVerdictAccountingMismatch(t *testing.T) {
	w := newTestWorld()
	stream := w.emit(t, Config{Tenant: "acme"})
	recs := records(t, bytes.Clone(stream))
	last := recs[len(recs)-1]
	// Final payload: verdict(1) halted(1) reason(1) 3*u64 blocks(u64)...
	binary.LittleEndian.PutUint64(last[4+5+27:], 99)
	// Re-chain so only the accounting check can object.
	var cs chainState
	var out []byte
	for _, r := range recs {
		n := len(r)
		payload := r[9 : n-chainSize]
		typ, seq := r[4], binary.LittleEndian.Uint32(r[5:])
		out = appendRecord(out, typ, seq, payload, cs.next(typ, seq, payload))
	}
	if _, err := w.verify(out, "acme"); !errors.Is(err, ErrVerdictMismatch) {
		t.Fatalf("err = %v, want ErrVerdictMismatch", err)
	}
}

// TestRingWraparoundAndStats: many more commits than ring slots, with a
// tiny ring, exercising producer back-pressure; stats must account for
// every block and byte.
func TestRingWraparoundAndStats(t *testing.T) {
	w := newTestWorld()
	var buf bytes.Buffer
	em := NewEmitter(&buf, Config{Tenant: "acme", Ring: 2, Window: 7})
	if err := em.Begin(sigtable.Normal, w.mods); err != nil {
		t.Fatal(err)
	}
	const n = 20_000
	for i := 0; i < n; i++ {
		tp := w.tuples[i%len(w.tuples)]
		em.Commit(tp.end, tp.next, tp.term, tp.sig)
	}
	if err := em.Finish(Outcome{Verdict: VerdictPass, Halted: true}); err != nil {
		t.Fatal(err)
	}
	st := em.Stats()
	if st.Blocks != n {
		t.Errorf("blocks = %d, want %d", st.Blocks, n)
	}
	if st.Bytes != uint64(buf.Len()) {
		t.Errorf("bytes = %d, stream = %d", st.Bytes, buf.Len())
	}
	wantSegs := uint64((n + 6) / 7)
	if st.Segments != wantSegs {
		t.Errorf("segments = %d, want %d", st.Segments, wantSegs)
	}
	rep, err := w.verify(buf.Bytes(), "acme")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Blocks != n {
		t.Errorf("replayed blocks = %d", rep.Blocks)
	}
}

// TestEmitterTelemetry: metric counters reconcile with emitter stats.
func TestEmitterTelemetry(t *testing.T) {
	set := &telemetry.Set{Reg: telemetry.NewRegistry()}
	w := newTestWorld()
	var buf bytes.Buffer
	em := NewEmitter(&buf, Config{Tenant: "acme", Telemetry: set})
	if err := em.Begin(sigtable.Normal, w.mods); err != nil {
		t.Fatal(err)
	}
	for _, tp := range w.tuples {
		em.Commit(tp.end, tp.next, tp.term, tp.sig)
	}
	em.Fence(FenceContextSwitch, 0)
	if err := em.Finish(Outcome{Verdict: VerdictPass, Halted: true}); err != nil {
		t.Fatal(err)
	}
	st := em.Stats()
	for name, want := range map[string]uint64{
		"evidence_blocks_total":   st.Blocks,
		"evidence_records_total":  st.Records,
		"evidence_segments_total": st.Segments,
		"evidence_fences_total":   st.Fences,
		"evidence_bytes_total":    st.Bytes,
	} {
		if got := set.Reg.Counter(name, "").Load(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestEmitterWriterError: a failing writer surfaces from Finish without
// wedging the commit path.
func TestEmitterWriterError(t *testing.T) {
	w := newTestWorld()
	em := NewEmitter(failWriter{}, Config{Tenant: "acme"})
	if err := em.Begin(sigtable.Normal, w.mods); err == nil {
		t.Fatal("Begin over a failing writer must error (genesis flush)")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, fmt.Errorf("disk full") }
