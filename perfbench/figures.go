package main

import (
	"fmt"
	"strings"
	"time"

	"rev/internal/core"
	"rev/internal/experiments"
	"rev/internal/fleet"
	"rev/internal/stats"
	"rev/internal/workload"
)

// figuresConfig is the reduced size at which the figures workload
// regenerates the evaluation set: all 15 paper profiles at 3% of their
// static size, 80k instructions per simulation, on a one-wide fleet. On
// a shared 2-vCPU host a 2-wide fleet's speed depends on where the host
// puts the second vCPU: over eight interleaved pairs of 30 s runs it
// read 1.79x the one-wide fleet but spread 16% against 9.9%.
var figuresConfig = experiments.Config{MaxInstrs: 80_000, Scale: 0.03, Parallel: 1}

// figVariant is one simulated configuration the figures read back.
type figVariant struct {
	v    experiments.Variant
	scKB int
}

var figVariants = []figVariant{
	{experiments.Base, 0},
	{experiments.REVNormal, 32}, {experiments.REVNormal, 64},
	{experiments.REVAggressive, 32}, {experiments.REVAggressive, 64},
	{experiments.REVCFIOnly, 32},
}

// regen is one regeneration of the evaluation set.
type regen struct {
	suite  *experiments.Suite
	table1 *stats.Table
	report *fleet.Report
}

// regenerate runs Figures 6-12, the CFI-only and table-size studies and
// Table 1 through a fresh suite.
func regenerate(tr *tracer, parent int) (*regen, error) {
	cfg := figuresConfig
	s := experiments.NewSuite(cfg)
	steps := []struct {
		name string
		fn   func() (*stats.Table, error)
	}{
		{"experiments.fig6", s.Fig6}, {"experiments.fig7", s.Fig7}, {"experiments.fig8", s.Fig8},
		{"experiments.fig9", s.Fig9}, {"experiments.fig10", s.Fig10}, {"experiments.fig11", s.Fig11},
		{"experiments.fig12", s.Fig12}, {"experiments.cfi_only", s.CFIOnly}, {"experiments.table_sizes", s.TableSizes},
	}
	for _, st := range steps {
		if err := tr.do(st.name, parent, 0, func() error { _, err := st.fn(); return err }); err != nil {
			return nil, fmt.Errorf("%s: %w", st.name, err)
		}
	}
	g := &regen{suite: s, report: s.FleetReport()}
	if err := tr.do("experiments.table1", parent, 0, func() (err error) {
		g.table1, err = experiments.Table1(cfg.MaxInstrs, cfg.Parallel)
		return err
	}); err != nil {
		return nil, fmt.Errorf("table 1: %w", err)
	}
	return g, nil
}

// results returns every simulation of the regeneration, benchmark-major
// in figVariants order.
func (g *regen) results() (map[string][]*core.Result, error) {
	out := map[string][]*core.Result{}
	for _, b := range experiments.Benchmarks() {
		for _, fv := range figVariants {
			res, err := g.suite.Run(b, fv.v, fv.scKB) // cached by the figures above
			if err != nil {
				return nil, err
			}
			out[b] = append(out[b], res)
		}
	}
	return out, nil
}

// checkVariants holds one benchmark's simulations to the properties of
// the method: validation is transparent to a legal run (same committed
// instructions, branches and output as the base core), only adds cycles,
// and the signature cache's counters are conserved.
func checkVariants(bench string, rs []*core.Result) error {
	base := rs[0]
	for i, r := range rs[1:] {
		fv := figVariants[i+1]
		name := fmt.Sprintf("%s/%v/%dKB", bench, fv.v, fv.scKB)
		switch {
		case r.Violation != nil:
			return checkf("%s: legal run flagged: %v", name, r.Violation)
		case r.Pipe.Instrs != base.Pipe.Instrs:
			return checkf("%s: committed %d instructions, base %d", name, r.Pipe.Instrs, base.Pipe.Instrs)
		case r.Pipe.CommittedBranches != base.Pipe.CommittedBranches:
			return checkf("%s: committed %d branches, base %d", name, r.Pipe.CommittedBranches, base.Pipe.CommittedBranches)
		case !equalU64(r.Output, base.Output):
			return checkf("%s: program output differs from the base run", name)
		case r.Pipe.Cycles < base.Pipe.Cycles:
			return checkf("%s: %d cycles, fewer than the base core's %d", name, r.Pipe.Cycles, base.Pipe.Cycles)
		case r.SC.Probes != r.SC.Hits+r.SC.PartialMisses+r.SC.CompleteMisses:
			return checkf("%s: SC probes %d != hits %d + partial %d + complete %d", name,
				r.SC.Probes, r.SC.Hits, r.SC.PartialMisses, r.SC.CompleteMisses)
		case fv.v == experiments.REVNormal && r.SC.Probes != r.Pipe.BBCount:
			return checkf("%s: SC probes %d != committed blocks %d", name, r.SC.Probes, r.Pipe.BBCount)
		}
	}
	return nil
}

// checkTableSizes requires the Sec. V size order CFI-only < normal <
// aggressive for one benchmark's signature tables (bytes).
func checkTableSizes(bench string, cfi, normal, aggressive uint64) error {
	if !(cfi < normal && normal < aggressive) {
		return checkf("%s: table sizes cfi-only %d, normal %d, aggressive %d are not increasing", bench, cfi, normal, aggressive)
	}
	return nil
}

// table1Reasons lists, per Table 1 attack class, the violations its
// mechanism implies: injected code fails the hash (or runs outside every
// module), returns to the wrong place fail the predecessor check, and
// computed jumps or calls to the wrong place fail the target check.
var table1Reasons = map[string][]core.ViolationReason{
	"Direct Code Injection":   {core.ViolationHash, core.ViolationModule},
	"Indirect Code Injection": {core.ViolationHash, core.ViolationModule},
	"Return Oriented Attack":  {core.ViolationReturn},
	"Return to lib-C attacks": {core.ViolationReturn},
	"Jump Oriented Attack":    {core.ViolationTarget},
	"Vtable compromises":      {core.ViolationTarget},
}

// checkTable1 requires every attack of Table 1 to change behaviour when
// unprotected and to be detected, for the reason its mechanism implies,
// when protected.
func checkTable1(t *stats.Table) error {
	if len(t.Rows) != len(table1Reasons) {
		return checkf("table 1 has %d rows, want %d", len(t.Rows), len(table1Reasons))
	}
	for _, row := range t.Rows {
		if len(row) != 4 {
			return checkf("table 1 row %q has %d cells", strings.Join(row, "|"), len(row))
		}
		want, ok := table1Reasons[row[0]]
		switch {
		case !ok:
			return checkf("table 1: unknown attack %q", row[0])
		case row[1] != "true":
			return checkf("table 1: %s did not change behaviour unprotected", row[0])
		case row[2] != "true":
			return checkf("table 1: %s not detected", row[0])
		}
		match := false
		for _, reason := range want {
			match = match || row[3] == reason.String()
		}
		if !match {
			return checkf("table 1: %s flagged %q, want one of %v", row[0], row[3], want)
		}
	}
	return nil
}

// checkRegen runs every figures check on one regeneration and returns
// the blocks its distinct simulations committed.
func checkRegen(g *regen) (uint64, error) {
	all, err := g.results()
	if err != nil {
		return 0, err
	}
	var blocks uint64
	for _, b := range experiments.Benchmarks() {
		rs := all[b]
		if err := checkVariants(b, rs); err != nil {
			return 0, err
		}
		// figVariants: [3] aggressive 32KB, [1] normal 32KB, [5] CFI-only 32KB.
		if err := checkTableSizes(b, rs[5].Tables[0].Size, rs[1].Tables[0].Size, rs[3].Tables[0].Size); err != nil {
			return 0, err
		}
		for _, r := range rs {
			blocks += r.Pipe.BBCount
		}
	}
	return blocks, checkTable1(g.table1)
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runFigures regenerates the evaluation set repeatedly. The first
// (cold) regeneration is set-up; every later one is a timed operation.
func runFigures(o options, r *run) error {
	sims := len(experiments.Benchmarks())*len(figVariants) + len(table1Reasons)
	var bps []float64
	var fl struct{ busy, idle, jobs float64 }
	var last *regen
	roundFn := func(tr *tracer) error {
		traced := tr != nil
		root := tr.begin("round", 0, 0)
		t0 := time.Now()
		g, err := regenerate(tr, root)
		secs := time.Since(t0).Seconds()
		tr.end(root)
		r.attempted += sims
		if err != nil {
			return err
		}
		blocks, err := checkRegen(g)
		if err != nil {
			return err
		}
		bps = append(bps, float64(blocks)/secs)
		r.noteRound(traced, secs, 1)
		if traced {
			for _, w := range g.report.PerWorker {
				fl.busy += w.WallSeconds
				fl.idle += w.IdleSeconds
			}
			fl.jobs += float64(g.report.Jobs)
		}
		last = g
		return nil
	}
	if err := roundFn(nil); err != nil {
		return err
	}
	bps = bps[:0]
	r.untracedRound = r.untracedRound[:0]
	if r.tr != nil {
		// The trusted-loader stages of the suite's simulations run inside
		// core.Run; time them once per profile through the benchmark's own
		// staged build.
		for _, p := range workload.Profiles() {
			p = p.Scaled(figuresConfig.Scale)
			rc := core.DefaultRunConfig()
			rc.MaxInstrs = figuresConfig.MaxInstrs
			rev := core.DefaultConfig()
			rc.REV = &rev
			if _, err := buildTables(p.Builder(), rc, r.tr, 0); err != nil {
				return fmt.Errorf("%s: %w", p.Name, err)
			}
		}
	}
	r.endSetup()
	if err := r.loop(roundFn); err != nil {
		return err
	}
	r.setE2E("blocks_per_s", "blocks/s", median(bps))
	if r.tr == nil {
		return nil
	}
	all, err := last.results()
	if err != nil {
		return err
	}
	var rs []*core.Result
	for _, b := range experiments.Benchmarks() {
		rs = append(rs, all[b]...)
	}
	r.setCounts(rs, 1)
	r.setLayer("experiments.regen_s", "s", r.perOp(r.tr.total("round")))
	var runS float64
	for _, n := range []string{"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "cfi_only", "table_sizes"} {
		runS += r.tr.total("experiments." + n)
	}
	r.setLayer("core.run_s", "s", r.perOp(runS))
	r.setLayer("fleet.busy_s", "s", r.perOp(fl.busy))
	r.setLayer("fleet.idle_s", "s", r.perOp(fl.idle))
	r.setLayer("fleet.jobs", "count", r.perOp(fl.jobs))
	r.setSetupLayers()
	return r.finishTrace("figures", map[string]any{"fleet": last.report})
}
