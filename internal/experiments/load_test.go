package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"rev/internal/core"
	"rev/internal/sigtable"
	"rev/internal/stats"
	"rev/internal/workload"
)

// TestSuiteMatchesStandaloneRuns is the second opinion on the suite's
// shared-load path: every (benchmark, variant, SC size) a regeneration
// simulates — each benchmark loaded once per job, its variants prepared
// from that one image — must equal a standalone core.Run of the variant,
// which repeats the whole loader. It also pins the fleet accounting: one
// job per benchmark a Prefetch still had to run, and blocks counted once
// per distinct simulation.
func TestSuiteMatchesStandaloneRuns(t *testing.T) {
	cfg := QuickConfig()
	s := NewSuite(cfg)
	nb := len(Benchmarks())
	wantJobs := 0
	for _, step := range []struct {
		name string
		fn   func() (*stats.Table, error)
		jobs int // benchmarks with a simulation no earlier step ran
	}{
		{"fig6", s.Fig6, nb}, // base, normal 32/64KB
		{"fig7", s.Fig7, 0},
		{"fig8", s.Fig8, 0},
		{"fig10", s.Fig10, 0},
		{"fig12", s.Fig12, nb}, // aggressive 32/64KB
		{"cfi-only", s.CFIOnly, nb},
		{"table-sizes", s.TableSizes, 0},
	} {
		if _, err := step.fn(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		wantJobs += step.jobs
		if rep := s.FleetReport(); rep == nil || rep.Jobs != wantJobs {
			t.Fatalf("after %s: fleet report %+v, want %d jobs", step.name, rep, wantJobs)
		}
	}

	formats := map[Variant]sigtable.Format{
		REVNormal: sigtable.Normal, REVAggressive: sigtable.Aggressive, REVCFIOnly: sigtable.CFIOnly,
	}
	keys := []runKey{}
	for _, b := range Benchmarks() {
		keys = append(keys, runKey{b, Base, 0},
			runKey{b, REVNormal, 32}, runKey{b, REVNormal, 64},
			runKey{b, REVAggressive, 32}, runKey{b, REVAggressive, 64},
			runKey{b, REVCFIOnly, 32})
	}
	var blocks uint64
	for _, k := range keys {
		name := fmt.Sprintf("%s/%v/%dKB", k.bench, k.variant, k.scKB)
		got := s.cached(k)
		if got == nil {
			t.Fatalf("%s: not simulated", name)
		}
		blocks += got.Pipe.BBCount
		p, err := workload.ByName(k.bench)
		if err != nil {
			t.Fatal(err)
		}
		rc := core.DefaultRunConfig()
		rc.MaxInstrs = cfg.MaxInstrs
		if k.variant != Base {
			rev := core.DefaultConfig()
			rev.Format = formats[k.variant]
			rev.SC.SizeKB = k.scKB
			rc.REV = &rev
		}
		want, err := core.Run(p.Scaled(cfg.Scale).Builder(), rc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: suite result differs from a standalone core.Run", name)
		}
	}
	if rep := s.FleetReport(); rep.Blocks != blocks {
		t.Errorf("fleet counted %d blocks, the %d distinct simulations committed %d", rep.Blocks, len(keys), blocks)
	}
	if len(s.cache) != len(keys) {
		t.Errorf("suite cached %d simulations, want %d", len(s.cache), len(keys))
	}
}
