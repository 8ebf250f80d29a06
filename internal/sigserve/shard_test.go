package sigserve

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rev/internal/sigtable"
	"rev/internal/telemetry"
)

func testRing(t *testing.T, n, replicas int, epoch uint64, addrs []string) *Ring {
	t.Helper()
	nodes := make([]RingNode, n)
	for i := range nodes {
		addr := fmt.Sprintf("127.0.0.1:%d", 20000+i)
		if addrs != nil {
			addr = addrs[i]
		}
		nodes[i] = RingNode{ID: fmt.Sprintf("shard-%d", i), Addr: addr}
	}
	r, err := NewRing(nodes, RingConfig{Replicas: replicas, Epoch: epoch})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRingDeterministicPlacement(t *testing.T) {
	tenants := make([]string, 40)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("tenant-%d", i)
	}
	a := testRing(t, 4, 2, 1, nil).Place(tenants)
	b := testRing(t, 4, 2, 1, nil).Place(tenants)
	for _, tn := range tenants {
		sa, sb := a[tn], b[tn]
		if len(sa) != 2 || len(sb) != 2 {
			t.Fatalf("%s: replica set sizes %d/%d, want 2", tn, len(sa), len(sb))
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("%s: placement diverges between identically configured rings: %v vs %v", tn, sa, sb)
			}
		}
		if sa[0].ID == sa[1].ID {
			t.Fatalf("%s: duplicate node in replica set %v", tn, sa)
		}
	}
}

func TestRingBoundedLoad(t *testing.T) {
	tenants := make([]string, 64)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("tenant-%d", i)
	}
	ring := testRing(t, 4, 2, 1, nil)
	owners := ring.Place(tenants)
	load := map[string]int{}
	for _, set := range owners {
		for _, n := range set {
			load[n.ID]++
		}
	}
	// cap = ceil(1.25 * 64*2/4) = 40 slots per node.
	for id, n := range load {
		if n > 40 {
			t.Fatalf("node %s carries %d replica slots, bounded-load cap is 40", id, n)
		}
	}
}

// startPlane boots an in-process sharded control plane: n servers on one
// ring, each publishing the fixture tables only for the tenants it owns.
func startPlane(t *testing.T, n, replicas int, epoch uint64, tenants []string) (*Ring, []*Server, []string) {
	t.Helper()
	f := fixture(t)
	srvs := make([]*Server, n)
	addrs := make([]string, n)
	for i := range srvs {
		srvs[i] = NewServer()
		_, addrs[i] = serveOn(t, srvs[i])
	}
	ring := testRing(t, n, replicas, epoch, addrs)
	for i, srv := range srvs {
		if err := srv.SetRing(ring, fmt.Sprintf("shard-%d", i), tenants); err != nil {
			t.Fatal(err)
		}
		for _, tn := range tenants {
			if !srv.Owns(tn) {
				continue
			}
			for _, st := range f.prep.Tables {
				srv.Publish(tn, st.Module, *st.Table, st.Snap)
			}
		}
	}
	return ring, srvs, addrs
}

func replicaAddrs(ring *Ring, tenant string) []string {
	var out []string
	for _, n := range ring.Replicas(tenant) {
		out = append(out, n.Addr)
	}
	return out
}

// TestRingJoinKeepsIdentity pins the rebalance contract: when the plane
// grows from 2 to 3 shards (new ring epoch), tenants that move to a new
// owner are served byte-identical snapshots — topology is invisible in
// the data.
func TestRingJoinKeepsIdentity(t *testing.T) {
	f := fixture(t)
	st := f.prep.Tables[0]
	want := st.Snap.AppendWire(nil)
	tenants := []string{"team-a", "team-b", "team-c", "team-d"}

	fetch := func(ring *Ring, tenant string) []byte {
		c := newTestClient(t, ClientConfig{Addrs: replicaAddrs(ring, tenant), Tenant: tenant})
		snap, _, _, err := c.FetchSnapshot(st.Module)
		if err != nil {
			t.Fatalf("tenant %s: %v", tenant, err)
		}
		return snap.AppendWire(nil)
	}

	ring2, _, _ := startPlane(t, 2, 2, 1, tenants)
	ring3, _, _ := startPlane(t, 3, 2, 2, tenants)
	for _, tn := range tenants {
		before, after := fetch(ring2, tn), fetch(ring3, tn)
		if string(before) != string(want) || string(after) != string(want) {
			t.Fatalf("tenant %s: snapshot bytes diverge across topologies", tn)
		}
	}
}

// tenantOwnedBy finds a tenant name whose primary owner is the given
// node — placement is hash-driven, so tests that need a specific owner
// search for a name instead of assuming one.
func tenantOwnedBy(t *testing.T, ring *Ring, nodeID string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		if ring.Owner(name).ID == nodeID {
			return name
		}
	}
	t.Fatalf("no tenant hashes to %s", nodeID)
	return ""
}

// TestWrongShardRedirect points a client at a shard that does not own
// its tenant: the CodeWrongShard reply names the true owner and the
// client recovers in-call.
func TestWrongShardRedirect(t *testing.T) {
	f := fixture(t)
	st := f.prep.Tables[0]
	tenants := []string{"team-a", "team-b", "team-c", "team-d"}
	ring, _, addrs := startPlane(t, 3, 1, 7, tenants)

	for _, tn := range tenants {
		owner := ring.Owner(tn)
		var wrong string
		for _, a := range addrs {
			if a != owner.Addr {
				wrong = a
				break
			}
		}
		c := newTestClient(t, ClientConfig{Addr: wrong, Tenant: tn})
		snap, _, _, err := c.FetchSnapshot(st.Module)
		if err != nil {
			t.Fatalf("tenant %s via wrong shard: %v", tn, err)
		}
		if string(snap.AppendWire(nil)) != string(st.Snap.AppendWire(nil)) {
			t.Fatalf("tenant %s: redirected fetch diverges", tn)
		}
		if got := c.RingEpoch(); got != 7 {
			t.Fatalf("client observed ring epoch %d, want 7", got)
		}
	}
}

// TestWrongShardRedirectLoopBound wires two servers that each believe
// the other owns the tenant (their rings map the owner's ID to the
// other's address). The client must give up after MaxRedirects instead
// of bouncing forever.
func TestWrongShardRedirectLoopBound(t *testing.T) {
	srvA := NewServer()
	_, addrA := serveOn(t, srvA)
	srvB := NewServer()
	_, addrB := serveOn(t, srvB)

	// Both rings agree node "b" owns the tenant, but disagree on where
	// "b" lives: A says addrB, B says addrA. Every hop redirects.
	ringA := mustRing(t, []RingNode{{ID: "a", Addr: addrA}, {ID: "b", Addr: addrB}}, RingConfig{Replicas: 1, Epoch: 1})
	ringB := mustRing(t, []RingNode{{ID: "a", Addr: addrB}, {ID: "b", Addr: addrA}}, RingConfig{Replicas: 1, Epoch: 1})
	tenant := tenantOwnedBy(t, ringA, "b")
	if err := srvA.SetRing(ringA, "a", []string{tenant}); err != nil {
		t.Fatal(err)
	}
	if err := srvB.SetRing(ringB, "a", []string{tenant}); err != nil {
		t.Fatal(err)
	}

	c := newTestClient(t, ClientConfig{Addr: addrA, Tenant: tenant, MaxRedirects: 4})
	done := make(chan error, 1)
	go func() { done <- c.Ping() }()
	select {
	case err := <-done:
		var se *ServerError
		if !errors.As(err, &se) || se.Code != CodeWrongShard {
			t.Fatalf("err = %v, want CodeWrongShard after redirect budget", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client looped on mutual redirects instead of giving up")
	}
}

func mustRing(t *testing.T, nodes []RingNode, cfg RingConfig) *Ring {
	t.Helper()
	r, err := NewRing(nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestDeltaBuildApplyRoundTrip pins the patch algebra on synthetic
// wires: changed records patch, appended records patch, removed records
// truncate, and the rebuilt image hashes to the chain head.
func TestDeltaBuildApplyRoundTrip(t *testing.T) {
	rec := func(fill byte) []byte {
		b := make([]byte, sigtable.CFIRecordSize)
		for i := range b {
			b[i] = fill
		}
		return b
	}
	wireOf := func(recs ...[]byte) []byte {
		var w []byte
		for _, r := range recs {
			w = append(w, r...)
		}
		return w
	}
	tblFor := func(wire []byte) sigtable.Table {
		return sigtable.Table{Format: sigtable.CFIOnly, Module: "m", Records: uint64(len(wire) / sigtable.CFIRecordSize)}
	}
	pub := func(wire []byte, epoch uint64) *publishedTable {
		tbl := tblFor(wire)
		return &publishedTable{table: tbl, wire: wire, epoch: epoch, hash: snapHash(tbl, wire)}
	}

	cases := []struct {
		name     string
		old, new []byte
		patches  int
	}{
		{"change", wireOf(rec(1), rec(2), rec(3)), wireOf(rec(1), rec(9), rec(3)), 1},
		{"grow", wireOf(rec(1), rec(2)), wireOf(rec(1), rec(2), rec(7), rec(8)), 2},
		{"shrink", wireOf(rec(1), rec(2), rec(3), rec(4)), wireOf(rec(1), rec(2)), 0},
		{"shrink+change", wireOf(rec(1), rec(2), rec(3)), wireOf(rec(5), rec(2)), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			old, new := pub(tc.old, 1), pub(tc.new, 2)
			patches := buildDelta(old, new)
			if patches == nil {
				t.Fatal("buildDelta returned no delta for a patchable rotation")
			}
			if len(patches) != tc.patches {
				t.Fatalf("%d patches, want %d", len(patches), tc.patches)
			}
			got, err := applyDelta(tc.old, snapshotDeltaData{
				Table: new.table, Epoch: 2, PrevHash: old.hash, NewHash: new.hash, Patches: patches,
			})
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(tc.new) {
				t.Fatalf("applied image %x, want %x", got, tc.new)
			}
		})
	}

	// A corrupted patch must fail the chain check, not silently pass.
	old, new := pub(wireOf(rec(1), rec(2)), 1), pub(wireOf(rec(1), rec(9)), 2)
	patches := buildDelta(old, new)
	patches[0].Rec = rec(0xee)
	if _, err := applyDelta(old.wire, snapshotDeltaData{
		Table: new.table, Epoch: 2, PrevHash: old.hash, NewHash: new.hash, Patches: patches,
	}); err == nil {
		t.Fatal("corrupted patch applied without a chain-mismatch error")
	}

	// A format flip between generations has no usable delta.
	hashedTbl := sigtable.Table{Format: sigtable.Normal, Module: "m", Records: 1}
	hashedWire := make([]byte, sigtable.RecordSize)
	if got := buildDelta(old, &publishedTable{table: hashedTbl, wire: hashedWire, epoch: 2}); got != nil {
		t.Fatal("buildDelta produced patches across a format change")
	}
}

// TestApplyDeltaHostileRecordCount feeds applyDelta record counts no
// honest server produces — past the payload ceiling, multi-terabyte, or
// overflowing the allocation size — and requires a clean error (the
// caller falls back to a full fetch, whose decoder is MaxPayload-bound).
func TestApplyDeltaHostileRecordCount(t *testing.T) {
	for _, records := range []uint64{
		uint64(MaxPayload/sigtable.RecordSize) + 1,
		1 << 40,
		1 << 62,
	} {
		d := snapshotDeltaData{Table: sigtable.Table{Format: sigtable.Normal, Module: "m", Records: records}}
		if _, err := applyDelta(nil, d); err == nil {
			t.Fatalf("records=%d: hostile record count accepted", records)
		}
	}
}

// TestSnapshotDeltaRefresh rotates the published table under a live
// RemoteSource and checks Refresh lands on the new generation
// byte-identically via the patch path (server counts a delta hit, not a
// full).
func TestSnapshotDeltaRefresh(t *testing.T) {
	f := fixture(t)
	st := f.prep.Tables[0]

	srv := NewServer()
	reg := telemetry.NewRegistry()
	srv.Instrument(&telemetry.Set{Reg: reg})
	srv.Publish("default", st.Module, *st.Table, st.Snap)
	_, addr := serveOn(t, srv)

	c := newTestClient(t, ClientConfig{Addr: addr})
	src, err := c.Source(st.Module)
	if err != nil {
		t.Fatal(err)
	}

	// Rotate: flip a few records in the wire image and republish.
	wire2 := st.Snap.AppendWire(nil)
	for _, i := range []int{0, 5, 11} {
		wire2[i*sigtable.RecordSize] ^= 0x5a
	}
	snap2, err := sigtable.SnapshotFromWire(*st.Table, wire2)
	if err != nil {
		t.Fatal(err)
	}
	srv.Publish("default", st.Module, *st.Table, snap2)

	if err := src.Refresh(); err != nil {
		t.Fatal(err)
	}
	g := src.gen.Load()
	if g.epoch != 2 {
		t.Fatalf("refreshed to epoch %d, want 2", g.epoch)
	}
	if got := g.snap.AppendWire(nil); string(got) != string(wire2) {
		t.Fatal("delta-refreshed snapshot diverges from the published image")
	}
	snap := reg.Snapshot()
	if hits := snap.Counters["sigserve_server_delta_hits_total"]; hits != 1 {
		t.Fatalf("delta_hits_total = %d, want 1", hits)
	}
	if fulls := snap.Counters["sigserve_server_delta_fulls_total"]; fulls != 0 {
		t.Fatalf("delta_fulls_total = %d, want 0", fulls)
	}

	// Refresh against an unchanged table is a no-op delta (still a hit).
	if err := src.Refresh(); err != nil {
		t.Fatal(err)
	}
	if src.gen.Load() != g {
		t.Fatal("no-op refresh replaced the cached generation")
	}
}

// TestDeltaChainMismatchFallsBackFull skips a generation under the
// client: the server can only delta from the generation it replaced, so
// the refresh must fall back to one full fetch and still land
// byte-identically.
func TestDeltaChainMismatchFallsBackFull(t *testing.T) {
	f := fixture(t)
	st := f.prep.Tables[0]

	srv := NewServer()
	reg := telemetry.NewRegistry()
	srv.Instrument(&telemetry.Set{Reg: reg})
	srv.Publish("default", st.Module, *st.Table, st.Snap)
	_, addr := serveOn(t, srv)

	c := newTestClient(t, ClientConfig{Addr: addr})
	src, err := c.Source(st.Module)
	if err != nil {
		t.Fatal(err)
	}

	// Two rotations: the client still holds generation 1, the server's
	// delta is chained off generation 2.
	wire := st.Snap.AppendWire(nil)
	for gen := 0; gen < 2; gen++ {
		wire[gen] ^= 0xff
		snap, err := sigtable.SnapshotFromWire(*st.Table, wire)
		if err != nil {
			t.Fatal(err)
		}
		srv.Publish("default", st.Module, *st.Table, snap)
	}

	if err := src.Refresh(); err != nil {
		t.Fatal(err)
	}
	g := src.gen.Load()
	if g.epoch != 3 {
		t.Fatalf("refreshed to epoch %d, want 3", g.epoch)
	}
	if got := g.snap.AppendWire(nil); string(got) != string(wire) {
		t.Fatal("fallback refresh diverges from the published image")
	}
	if fulls := reg.Snapshot().Counters["sigserve_server_delta_fulls_total"]; fulls != 1 {
		t.Fatalf("delta_fulls_total = %d, want 1 (chain break must fall back to a full image)", fulls)
	}
}

// TestKilledReplicaFailover hard-kills one of a tenant's two replicas:
// requests must fail over to the survivor with no caller-visible error
// and no degradation note — replica death is the plane's problem, not a
// validation fact.
func TestKilledReplicaFailover(t *testing.T) {
	f := fixture(t)
	st := f.prep.Tables[0]
	tenants := []string{"default"}
	ring, srvs, _ := startPlane(t, 2, 2, 1, tenants)

	c := newTestClient(t, ClientConfig{
		Addrs: replicaAddrs(ring, "default"), Tenant: "default",
		LookupMode: true, Retries: 2,
	})
	src, err := c.Source(st.Module)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := src.LookupAll(st.Table.Base+0x40, 1); err != nil && !sigtable.IsMiss(err) {
		t.Fatal(err)
	}

	srvs[0].Close() // the preferred replica dies mid-run

	for i := 0; i < 20; i++ {
		if _, _, err := src.LookupAll(st.Table.Base+uint64(8*i), 1); err != nil && !sigtable.IsMiss(err) {
			t.Fatalf("lookup %d after replica death: %v", i, err)
		}
	}
	snap, _, _, err := c.FetchSnapshot(st.Module)
	if err != nil {
		t.Fatalf("snapshot fetch after replica death: %v", err)
	}
	if string(snap.AppendWire(nil)) != string(st.Snap.AppendWire(nil)) {
		t.Fatal("failover snapshot diverges")
	}
	if note, ok := src.HealthNote(); ok {
		t.Fatalf("failover produced a degradation note: %+v", note)
	}
}

// TestAlternatesExcludesDrainedAndTripped pins the fail-over guard: an
// endpoint parked behind a drain mark or an open breaker is not an
// alternate, so a transport error with no usable alternate keeps the
// retry-with-backoff budget instead of consuming the sole live
// endpoint.
func TestAlternatesExcludesDrainedAndTripped(t *testing.T) {
	c := newTestClient(t, ClientConfig{
		Addrs:            []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"},
		BreakerThreshold: 1, BreakerCooldown: time.Minute,
	})
	failed := c.eps[0]
	if got := c.alternates(failed, nil); got != 2 {
		t.Fatalf("all healthy: alternates = %d, want 2", got)
	}
	if got := c.alternates(failed, map[string]bool{c.eps[1].addr: true}); got != 1 {
		t.Fatalf("one skipped: alternates = %d, want 1", got)
	}
	c.markDrained(c.eps[1])
	if got := c.alternates(failed, nil); got != 1 {
		t.Fatalf("one drained: alternates = %d, want 1", got)
	}
	if err := c.eps[2].br.Allow(); err != nil {
		t.Fatal(err)
	}
	c.eps[2].br.Report(false) // threshold 1: trips the breaker open
	if got := c.alternates(failed, nil); got != 0 {
		t.Fatalf("drained + tripped: alternates = %d, want 0", got)
	}
}

// TestConcurrentRefreshKeepsNewestGeneration rotates the published
// table under bursts of concurrent Refresh calls (meaningful under
// -race): Refresh is serialized, so the cache must settle on the
// server's newest generation, never a slower fetch of an older one.
func TestConcurrentRefreshKeepsNewestGeneration(t *testing.T) {
	f := fixture(t)
	st := f.prep.Tables[0]
	srv := NewServer()
	srv.Publish("default", st.Module, *st.Table, st.Snap)
	_, addr := serveOn(t, srv)

	c := newTestClient(t, ClientConfig{Addr: addr})
	src, err := c.Source(st.Module)
	if err != nil {
		t.Fatal(err)
	}

	wire := st.Snap.AppendWire(nil)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wire[i*sigtable.RecordSize] ^= 0xa5
		snap, err := sigtable.SnapshotFromWire(*st.Table, wire)
		if err != nil {
			t.Fatal(err)
		}
		srv.Publish("default", st.Module, *st.Table, snap)
		for j := 0; j < 4; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := src.Refresh(); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	g := src.gen.Load()
	if g.epoch != 5 {
		t.Fatalf("settled on epoch %d, want 5", g.epoch)
	}
	if got := g.snap.AppendWire(nil); string(got) != string(wire) {
		t.Fatal("concurrent refreshes left a stale image cached")
	}
}

// TestAdmissionOverloadRetryAfter arms a tiny admission budget and
// checks both halves of the contract: the server refuses excess load
// with CodeOverloaded (counted), and the client absorbs the rejection
// by honoring the retry-after hint — the caller sees success, not an
// error.
func TestAdmissionOverloadRetryAfter(t *testing.T) {
	srv := NewServer()
	reg := telemetry.NewRegistry()
	srv.Instrument(&telemetry.Set{Reg: reg})
	f := fixture(t)
	for _, st := range f.prep.Tables {
		srv.Publish("default", st.Module, *st.Table, st.Snap)
	}
	srv.SetAdmission(50, 1)
	_, addr := serveOn(t, srv)

	c := newTestClient(t, ClientConfig{Addr: addr, Retries: 3})
	for i := 0; i < 6; i++ {
		if err := c.Ping(); err != nil {
			t.Fatalf("ping %d under admission control: %v", i, err)
		}
	}
	if rejected := reg.Snapshot().Counters["sigserve_server_admission_rejected_total"]; rejected == 0 {
		t.Fatal("admission control never rejected; the test exercised nothing")
	}

	// The hint itself must survive the wire.
	m := errorMsg{Code: CodeOverloaded, Detail: "busy", RetryAfterMillis: 21, RingEpoch: 3}
	got, err := decodeError(m.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.RetryAfterMillis != 21 || got.RingEpoch != 3 {
		t.Fatalf("hint round trip lost fields: %+v", got)
	}
}
