package core

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"rev/internal/asm"
	"rev/internal/cpu"
	"rev/internal/evidence"
	"rev/internal/isa"
	"rev/internal/prog"
	"rev/internal/sigtable"
	"rev/internal/telemetry"
)

// injectAt500 overwrites the third code word at the 500th retired
// instruction. It keys on the per-run Instret counter, so every replay
// over a reused arena injects at the same point.
func injectAt500(m *cpu.Machine, pc uint64, in isa.Instr) {
	if m.Instret == 500 {
		inj := isa.Instr{Op: isa.ADDI, Rd: 20, Imm: 666}
		var buf [isa.WordSize]byte
		inj.EncodeTo(buf[:])
		m.Mem.WriteBytes(prog.CodeBase+2*isa.WordSize, buf[:])
	}
}

// TestArenaReuseMatchesFresh pins the arena determinism contract for
// every run shape: N back-to-back instances over ONE Prepared — each
// reusing the same arena, the same SPSC rig, the same lane pools — must
// be byte-identical to core.Run, serial and pipelined. The shapes cover
// protected runs in two formats, a base run (no engine), and page
// shadowing over a clean and an attacked (aborting) run, whose shadow
// epoch and statistics the arena resets. Any state a reset fails to
// clear (cache LRU stamps, memo epochs, ring cursors, store-table
// contents, shadow pages) shows up here as a figure divergence.
//
// Each shape also runs telemetry instances on the arena: two of them
// must leave every registry counter at exactly twice one instance's
// value, and still do after the arena is reset — their views read
// run-end copies, never the arena's live structs.
func TestArenaReuseMatchesFresh(t *testing.T) {
	for _, c := range []struct {
		name  string
		gen   func(*asm.Builder)
		setup func(rc *RunConfig)
		check func(res *Result) error
	}{
		{"normal", loopProgram, func(rc *RunConfig) { rc.REV = revConfig(sigtable.Normal, 8) }, nil},
		{"cfi-only", loopProgram, func(rc *RunConfig) { rc.REV = revConfig(sigtable.CFIOnly, 8) }, nil},
		{"base", loopProgram, func(rc *RunConfig) {}, func(res *Result) error {
			if res.Tables != nil {
				return fmt.Errorf("base run reports tables %v", res.Tables)
			}
			return nil
		}},
		{"shadow", storeProgram, func(rc *RunConfig) {
			rc.REV = revConfig(sigtable.Normal, 8)
			rc.PageShadowing = true
		}, func(res *Result) error {
			if res.Violation != nil || res.Shadow.Epochs != 1 || res.Shadow.PagesPromoted == 0 {
				return fmt.Errorf("clean shadowed run: violation %v, shadow %+v", res.Violation, res.Shadow)
			}
			return nil
		}},
		{"shadow-attacked", loopProgram, func(rc *RunConfig) {
			rc.REV = revConfig(sigtable.Normal, 8)
			rc.PageShadowing = true
			rc.AttackHook = injectAt500
		}, func(res *Result) error {
			if res.Violation == nil || res.Shadow.PagesDropped == 0 || res.Shadow.PagesPromoted != 0 {
				return fmt.Errorf("attacked shadowed run: violation %v, shadow %+v", res.Violation, res.Shadow)
			}
			return nil
		}},
	} {
		rc := DefaultRunConfig()
		rc.MaxInstrs = 60_000
		c.setup(&rc)

		fresh, err := Run(builderOf(c.gen), rc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		again, err := Run(builderOf(c.gen), rc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(fresh, again) {
			t.Fatalf("%s: core.Run does not repeat:\n%+v\n%+v", c.name, fresh, again)
		}
		if c.check != nil {
			if err := c.check(fresh); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}

		prep, err := Prepare(builderOf(c.gen), rc)
		if err != nil {
			t.Fatal(err)
		}
		for _, lanes := range []int{0, 1, 2, 4} {
			tag := c.name + "/lanes=" + itoa(lanes)
			for rep := 0; rep < 3; rep++ {
				res, err := prep.RunInstance(InstanceOptions{Lanes: lanes})
				if err != nil {
					t.Fatalf("%s rep=%d: %v", tag, rep, err)
				}
				mustMatch(t, tag+"/rep="+itoa(rep), fresh, res)
			}
		}

		single := &telemetry.Set{Reg: telemetry.NewRegistry()}
		res, err := prep.RunInstance(InstanceOptions{Telemetry: single})
		if err != nil {
			t.Fatal(err)
		}
		mustMatch(t, c.name+"/telemetry", fresh, res)
		double := &telemetry.Set{Reg: telemetry.NewRegistry()}
		for i := 0; i < 2; i++ {
			if _, err := prep.RunInstance(InstanceOptions{Telemetry: double}); err != nil {
				t.Fatal(err)
			}
		}
		// Zero every struct the arena owns: a view aliasing them would
		// now read zeros.
		a, err := prep.acquireArena()
		if err != nil {
			t.Fatal(err)
		}
		a.reset()
		want, got := single.Reg.Snapshot(), double.Reg.Snapshot()
		prep.releaseArena(a)
		if want.Counters["cpu.blocks"] == 0 {
			t.Fatalf("%s: telemetry instance published no cpu.blocks", c.name)
		}
		if len(got.Counters) != len(want.Counters) {
			t.Errorf("%s: two instances registered %d counters, one registered %d",
				c.name, len(got.Counters), len(want.Counters))
		}
		for name, v := range want.Counters {
			if got.Counters[name] != 2*v {
				t.Errorf("%s: counter %s = %d after two instances, want 2 x %d",
					c.name, name, got.Counters[name], v)
			}
		}
		for name, h := range want.Histograms {
			if got.Histograms[name].Count != 2*h.Count {
				t.Errorf("%s: histogram %s count = %d after two instances, want 2 x %d",
					c.name, name, got.Histograms[name].Count, h.Count)
			}
		}
	}
}

// TestArenaReuseAttackParity replays an injection attack over a reused
// arena: the same Prepared must reproduce the identical violation —
// reason, offending addresses, output at abort, every figure — run after
// run. The hook is stateless across runs (keyed on the per-run Instret
// counter), so each replay injects at the same point; what the test
// checks is that the arena's program-image restore erases the previous
// run's injected bytes.
func TestArenaReuseAttackParity(t *testing.T) {
	rc := DefaultRunConfig()
	rc.MaxInstrs = 60_000
	rc.REV = revConfig(sigtable.Normal, 8)
	rc.AttackHook = injectAt500

	freshPrep, err := Prepare(builderOf(loopProgram), rc)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := freshPrep.RunInstance(InstanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Violation == nil || fresh.Violation.Reason != ViolationHash {
		t.Fatalf("reference run missed the attack: %v", fresh.Violation)
	}

	prep, err := Prepare(builderOf(loopProgram), rc)
	if err != nil {
		t.Fatal(err)
	}
	for _, lanes := range []int{0, 2} {
		for rep := 0; rep < 3; rep++ {
			res, err := prep.RunInstance(InstanceOptions{Lanes: lanes})
			if err != nil {
				t.Fatalf("lanes=%d rep=%d: %v", lanes, rep, err)
			}
			mustMatch(t, "attack/lanes="+itoa(lanes)+"/rep="+itoa(rep), fresh, res)
		}
	}
}

// TestArenaReuseSMCWindow reuses one Prepared across self-modifying-code
// runs: each run patches its own code inside a trusted SysREVEnable
// window, bumping the code-version epoch. The engine reset must re-arm
// the code watches so every replay sees the same epoch sequence — and
// the image restore must revert the patch, or the second run would skip
// the store's miss traffic and diverge in the cache figures.
func TestArenaReuseSMCWindow(t *testing.T) {
	gen := smcWindowProgram(true)
	rc := DefaultRunConfig()
	rc.REV = revConfig(sigtable.Normal, 32)

	freshPrep, err := Prepare(builderOf(gen), rc)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := freshPrep.RunInstance(InstanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Violation != nil {
		t.Fatalf("windowed reference run flagged: %v", fresh.Violation)
	}

	prep, err := Prepare(builderOf(gen), rc)
	if err != nil {
		t.Fatal(err)
	}
	for _, lanes := range []int{0, 1, 4} {
		tag := "smc/lanes=" + itoa(lanes)
		for rep := 0; rep < 3; rep++ {
			res, err := prep.RunInstance(InstanceOptions{Lanes: lanes})
			if err != nil {
				t.Fatalf("%s rep=%d: %v", tag, rep, err)
			}
			mustMatch(t, tag+"/rep="+itoa(rep), fresh, res)
		}
	}
}

// TestArenaReuseEvidenceBytes pins evidence-stream determinism across
// arena reuse: the attestation bytes a reused arena emits must be
// identical to a fresh build's, run after run — commit tuples, segment
// seals, the final outcome record.
func TestArenaReuseEvidenceBytes(t *testing.T) {
	rc := DefaultRunConfig()
	rc.MaxInstrs = 60_000
	rc.REV = revConfig(sigtable.Normal, 8)

	emitTo := func(prep *Prepared, lanes int) []byte {
		t.Helper()
		var buf bytes.Buffer
		em := evidence.NewEmitter(&buf, evidence.Config{Tenant: "arena"})
		if _, err := prep.RunInstance(InstanceOptions{Lanes: lanes, Evidence: em}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	freshPrep, err := Prepare(builderOf(loopProgram), rc)
	if err != nil {
		t.Fatal(err)
	}
	want := emitTo(freshPrep, 0)
	if len(want) == 0 {
		t.Fatal("reference run emitted no evidence")
	}

	prep, err := Prepare(builderOf(loopProgram), rc)
	if err != nil {
		t.Fatal(err)
	}
	for _, lanes := range []int{0, 2} {
		for rep := 0; rep < 3; rep++ {
			if got := emitTo(prep, lanes); !bytes.Equal(got, want) {
				t.Fatalf("lanes=%d rep=%d: evidence stream diverged (%d vs %d bytes)",
					lanes, rep, len(got), len(want))
			}
		}
	}
}

// TestArenaConcurrentRuns drives one Prepared from several goroutines at
// once: the freelist must hand each caller a private arena (growing on
// first contention), and every result must match the single-threaded
// reference. Half the callers also share one telemetry registry, which
// must end up holding exactly their figures. Run under -race this
// doubles as the arena ownership check.
func TestArenaConcurrentRuns(t *testing.T) {
	rc := DefaultRunConfig()
	rc.MaxInstrs = 60_000
	rc.REV = revConfig(sigtable.Normal, 8)
	prep, err := Prepare(builderOf(loopProgram), rc)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := prep.RunInstance(InstanceOptions{})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	set := telSet(1 << 10)
	results := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Mix serial and pipelined, traced and untraced callers to
			// contend for the arena freelist, (pipelined) the cached rig
			// per arena, and the shared registry.
			o := InstanceOptions{Lanes: w % 2}
			if w >= workers/2 {
				o.Telemetry = set.WithLabel("w" + itoa(w))
			}
			results[w], errs[w] = prep.RunInstance(o)
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		mustMatch(t, "concurrent/worker="+itoa(w), fresh, results[w])
	}
	if got, want := set.Reg.Snapshot().Counters["cpu.blocks"], workers/2*fresh.Pipe.BBCount; got != want {
		t.Errorf("registry cpu.blocks = %d, want %d (the traced callers' blocks)", got, want)
	}
}
