package core

import (
	"bytes"
	"runtime"
	"testing"

	"rev/internal/evidence"
	"rev/internal/sigtable"
	"rev/internal/workload"
)

// TestPreparedRunAllocBudget is the allocation-regression gate for the
// validator hot path: a prepared workload instance — program clone, parts,
// engine, full validated run — must stay within 0.5 heap allocations per
// validated basic block. The budget covers the per-request fixed cost
// (cloned pages, pipeline, caches, engine) amortized over the run; the
// steady-state per-block path (SC probe/fill, signature memo, hash) is
// allocation-free by construction (see the sigcache and chash alloc
// tests), so regressions here mean someone reintroduced a per-block or
// per-request allocation. Before the prototype-clone optimization the
// builder re-ran per request and this ratio was 3.2.
func TestPreparedRunAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget probe is a full run")
	}
	p, err := workload.ByName("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig()
	rc.MaxInstrs = 300_000
	rc.REV = revConfig(sigtable.Normal, 32)
	prep, err := Prepare(p.Builder(), rc)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up: first run pays one-time lazy costs (e.g. decode tables).
	if _, err := prep.RunInstance(InstanceOptions{}); err != nil {
		t.Fatal(err)
	}

	for _, lanes := range []int{0, 1} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := prep.RunInstance(InstanceOptions{Lanes: lanes})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil {
			t.Fatalf("clean workload flagged: %v", res.Violation)
		}
		blocks := res.Pipe.BBCount
		if blocks == 0 {
			t.Fatal("no blocks validated")
		}
		mallocs := after.Mallocs - before.Mallocs
		perBlock := float64(mallocs) / float64(blocks)
		t.Logf("lanes=%d: %d mallocs / %d blocks = %.3f per block", lanes, mallocs, blocks, perBlock)
		// The pipelined budget includes the ring, lane goroutines, and
		// per-lane memo — all fixed-size, so the same bound holds.
		if perBlock > 0.5 {
			t.Errorf("lanes=%d: %.3f allocs per validated block, budget is 0.5", lanes, perBlock)
		}
	}
}

// TestRunInstanceZeroAllocs pins the run-arena contract end to end: after
// warmup, a RunInstance call with a reused Out performs ZERO heap
// allocations per run — not just zero per block — serial and pipelined.
// The arena resets the cloned program, caches, predictor, pipeline,
// machine, engine (memo, sigcache, SAG, CHG), and the SPSC rig in place
// instead of rebuilding them (arena.go).
//
// testing.AllocsPerRun pins GOMAXPROCS to 1, which hides what pipelined
// runs allocate on a multi-core host: each run spawns its producer and
// lane goroutines, and with more than one P the runtime allocates their
// descriptors (runtime.malg) and each new goroutine's first backoff
// sleep allocates a timer — about 1–11 allocations per pipelined run at
// GOMAXPROCS 2 (docs/CONCURRENCY.md). Serial runs allocate nothing at
// any GOMAXPROCS.
func TestRunInstanceZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget probe is a full run")
	}
	p, err := workload.ByName("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig()
	rc.MaxInstrs = 100_000
	rc.REV = revConfig(sigtable.Normal, 32)
	prep, err := Prepare(p.Builder(), rc)
	if err != nil {
		t.Fatal(err)
	}
	var out Result
	for _, c := range []struct {
		name  string
		lanes int
	}{
		{"serial", 0},
		{"lanes=1", 1},
		{"lanes=2", 2},
	} {
		opts := InstanceOptions{Lanes: c.lanes, Out: &out}
		// Warm-up: builds the arena (first run) plus this point's lane
		// pool, and grows every reusable backing to steady-state capacity.
		for i := 0; i < 2; i++ {
			if _, err := prep.RunInstance(opts); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(5, func() {
			res, err := prep.RunInstance(opts)
			if err != nil {
				t.Error(err)
			} else if res.Violation != nil {
				t.Errorf("clean workload flagged: %v", res.Violation)
			}
		})
		t.Logf("%s: %.1f allocs/run", c.name, allocs)
		if allocs != 0 {
			t.Errorf("%s: RunInstance allocated %.1f times per run, want 0", c.name, allocs)
		}
	}
}

// TestPreparedWrapperAllocBudget pins the allocating forms of
// RunInstance at their documented floors: without Out, serial and
// pipelined runs allocate only the returned Result box and its Output
// copy; with Evidence, a run adds the single-use emitter machinery the
// caller constructs per run. Regressions here mean the arena stopped
// absorbing per-run state.
func TestPreparedWrapperAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget probe is a full run")
	}
	p, err := workload.ByName("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig()
	rc.MaxInstrs = 100_000
	rc.REV = revConfig(sigtable.Normal, 32)
	prep, err := Prepare(p.Builder(), rc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.RunInstance(InstanceOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := prep.RunInstance(InstanceOptions{Lanes: 1}); err != nil {
		t.Fatal(err)
	}

	const wrapperBudget = 4 // Result box + Output backing, with slack
	if allocs := testing.AllocsPerRun(5, func() {
		if _, err := prep.RunInstance(InstanceOptions{}); err != nil {
			t.Error(err)
		}
	}); allocs > wrapperBudget {
		t.Errorf("serial RunInstance without Out: %.1f allocs/run, budget %d", allocs, wrapperBudget)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		if _, err := prep.RunInstance(InstanceOptions{Lanes: 1}); err != nil {
			t.Error(err)
		}
	}); allocs > wrapperBudget {
		t.Errorf("lanes=1 RunInstance without Out: %.1f allocs/run, budget %d", allocs, wrapperBudget)
	}

	// Evidence emitters are single-use by design, so the per-run floor is
	// the emitter build plus per-segment machinery (chained MAC state and
	// encode buffers, one set per sealed segment) — it scales with the
	// segment count, never with blocks. This workload seals a few dozen
	// segments (~341 allocs measured against ~8k blocks); the budget
	// leaves headroom without letting a per-block regression hide.
	var buf bytes.Buffer
	var out Result
	if _, err := prep.RunInstance(InstanceOptions{
		Evidence: evidence.NewEmitter(&buf, evidence.Config{Tenant: "alloc"}), Out: &out,
	}); err != nil {
		t.Fatal(err)
	}
	const evidenceBudget = 512
	allocs := testing.AllocsPerRun(5, func() {
		buf.Reset()
		em := evidence.NewEmitter(&buf, evidence.Config{Tenant: "alloc"})
		if _, err := prep.RunInstance(InstanceOptions{Evidence: em, Out: &out}); err != nil {
			t.Error(err)
		}
	})
	t.Logf("evidence run: %.1f allocs/run (emitter machinery only)", allocs)
	if allocs > evidenceBudget {
		t.Errorf("RunInstance with evidence: %.1f allocs/run, budget %d", allocs, evidenceBudget)
	}
}
