package sigserve

import (
	"reflect"
	"testing"

	"rev/internal/sigtable"
	"rev/internal/telemetry"
)

// TestLookupBatchDedupesDuplicates proves the speculative batch path
// collapses duplicate queries before encode and fans the single server
// answer back to every coalesced waiter: a batch carrying the same query
// five times plus two distinct ones costs the server exactly three
// lookups, and all five duplicate slots receive identical results.
func TestLookupBatchDedupesDuplicates(t *testing.T) {
	f := fixture(t)
	srv := NewServer()
	set := &telemetry.Set{Reg: telemetry.NewRegistry()}
	srv.Instrument(set)
	for _, st := range f.prep.Tables {
		srv.Publish("default", st.Module, *st.Table, st.Snap)
	}
	_, addr := serveOn(t, srv)
	c := newTestClient(t, ClientConfig{Addr: addr, LookupMode: true})
	src, err := c.Source(f.prep.Tables[0].Module)
	if err != nil {
		t.Fatal(err)
	}
	lookups := set.Reg.Sharded("sigserve_server_lookups_total", "lookup requests served, sharded by tenant", 8)

	dup := sigtable.BatchReq{Kind: sigtable.BatchLookup, End: 0x1234, Sig: 42}
	reqs := []sigtable.BatchReq{
		dup, dup,
		{Kind: sigtable.BatchLookup, End: 0x2468, Sig: 7},
		dup,
		{Kind: sigtable.BatchLookup, End: 0x1234, Sig: 42, Want: sigtable.Want{CheckPred: true, Pred: 0x10}},
		dup, dup,
	}
	before := lookups.Load()
	out := src.LookupBatch(reqs)
	served := lookups.Load() - before
	if served != 3 {
		t.Fatalf("server served %d lookups for %d batched queries, want 3 (duplicates deduped)", served, len(reqs))
	}
	if len(out) != len(reqs) {
		t.Fatalf("LookupBatch returned %d results for %d queries", len(out), len(reqs))
	}
	first := out[0]
	for i, r := range reqs {
		if r != dup {
			continue
		}
		if !reflect.DeepEqual(out[i], first) {
			t.Errorf("duplicate query %d got %+v, want the fanned-out answer %+v", i, out[i], first)
		}
	}
	// Unknown addresses answer as deterministic misses, never transport
	// errors — the prefetcher caches misses as verdicts.
	for i := range out {
		if out[i].Err != nil && !sigtable.IsMiss(out[i].Err) {
			t.Errorf("query %d: unexpected error %v", i, out[i].Err)
		}
	}
}

// TestEdgeLookupOnHashedTableRejected proves a kind/format mismatch —
// which the wire can always produce — answers as a protocol error
// instead of panicking the server.
func TestEdgeLookupOnHashedTableRejected(t *testing.T) {
	f := fixture(t)
	_, addr := startServer(t)
	c := newTestClient(t, ClientConfig{Addr: addr, LookupMode: true})
	src, err := c.Source(f.prep.Tables[0].Module)
	if err != nil {
		t.Fatal(err)
	}
	out := src.LookupBatch([]sigtable.BatchReq{
		{Kind: sigtable.BatchEdge, End: 0x1234, Want: sigtable.Want{Target: 0x2468}},
	})
	if out[0].Err == nil || sigtable.IsMiss(out[0].Err) {
		t.Fatalf("edge lookup against a hashed table returned %v, want a server error", out[0].Err)
	}
	// The connection — and the server — survive to answer more queries.
	if err := c.Ping(); err != nil {
		t.Fatalf("server did not survive the rejected lookup: %v", err)
	}
}

// TestLookupBatchSingleFrame proves a full batch of distinct queries
// rides one wire frame: the server's per-frame service delay is paid
// once, not once per query (the whole point of batched prefetching).
func TestLookupBatchSingleFrame(t *testing.T) {
	f := fixture(t)
	srv := NewServer()
	set := &telemetry.Set{Reg: telemetry.NewRegistry()}
	srv.Instrument(set)
	for _, st := range f.prep.Tables {
		srv.Publish("default", st.Module, *st.Table, st.Snap)
	}
	_, addr := serveOn(t, srv)
	c := newTestClient(t, ClientConfig{Addr: addr, LookupMode: true})
	src, err := c.Source(f.prep.Tables[0].Module)
	if err != nil {
		t.Fatal(err)
	}
	requests := set.Reg.Counter("sigserve_server_requests_total", "wire requests served")

	reqs := make([]sigtable.BatchReq, 32)
	for i := range reqs {
		reqs[i] = sigtable.BatchReq{Kind: sigtable.BatchLookup, End: uint64(0x1000 + 8*i), Sig: 1}
	}
	// Server.handle counts a request after writing its reply, so a count
	// may land after the client has its answer: wait for the Source
	// fetch's count before reading the baseline, and for the batch's
	// after it.
	count := func(want uint64) func() (uint64, bool) {
		return func() (uint64, bool) { n := requests.Load(); return n, n >= want }
	}
	before := waitFor(t, "the Source fetch's request count", count(1))
	out := src.LookupBatch(reqs)
	frames := waitFor(t, "the batch's request count", count(before+1)) - before
	if frames != 1 {
		t.Fatalf("32 distinct queries cost %d wire requests, want 1 batch frame", frames)
	}
	for i := range out {
		if out[i].Err != nil && !sigtable.IsMiss(out[i].Err) {
			t.Errorf("query %d: unexpected error %v", i, out[i].Err)
		}
	}
}
