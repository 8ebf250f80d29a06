package main

import (
	"fmt"
	"reflect"

	"rev/internal/cfg"
	"rev/internal/core"
	"rev/internal/cpu"
	"rev/internal/crypt"
	"rev/internal/prog"
	"rev/internal/sigtable"
	"rev/internal/workload"
)

// shape is one seeded synthetic program a workload validates.
type shape struct {
	name   string  // workload profile it is shaped after
	scale  float64 // static-size scale (1 = the paper-matched size)
	instrs uint64  // instruction budget of one instance
}

// program is a shape instantiated for one seed.
type program struct {
	shape
	profile workload.Profile
	rc      core.RunConfig
}

// outerReg is the register the workload generator counts outer-loop
// iterations in.
const outerReg = 14

// seededProgram derives a program from the benchmark seed: the profile's
// own generator seed s becomes s*1000003 + seed, so every seed gives a
// different program of the same shape. The generated programs loop until
// the instruction budget stops them and print nothing; the outer loop is
// bounded here to 80% of the iterations that fit the budget, so the
// program halts and prints its accumulator, an output every validated
// run must reproduce.
func seededProgram(sh shape, seed int64) (*program, error) {
	p, err := workload.ByName(sh.name)
	if err != nil {
		return nil, err
	}
	p = p.Scaled(sh.scale)
	p.Seed = p.Seed*1_000_003 + seed
	probe, err := p.Builder()()
	if err != nil {
		return nil, err
	}
	m := cpu.NewMachine(probe)
	if _, err := m.Run(sh.instrs); err != nil {
		return nil, fmt.Errorf("%s: sizing run: %w", sh.name, err)
	}
	p.OuterIters = max(1, int(m.ReadReg(outerReg))*4/5)
	rc := core.DefaultRunConfig()
	rc.MaxInstrs = sh.instrs
	rev := core.DefaultConfig()
	rc.REV = &rev
	return &program{shape: sh, profile: p, rc: rc}, nil
}

// table is one module's signature table from the benchmark's own build.
type table struct {
	module string
	meta   *sigtable.Table
	snap   *sigtable.Snapshot
}

// buildTables runs the trusted-loader stages for one program by calling
// each layer's public function in the order core.Prepare does. The
// benchmark times every stage this way, and the tables it returns are
// built apart from any validator's.
func buildTables(build func() (*prog.Program, error), rc core.RunConfig, tr *tracer, parent int) ([]table, error) {
	var analysis, twin *prog.Program
	var err error
	stage := func(name string, fn func() error) error { return tr.do(name, parent, 0, fn) }
	if err := stage("workload.build", func() error { analysis, err = build(); return err }); err != nil {
		return nil, fmt.Errorf("building program: %w", err)
	}
	if err := stage("workload.build", func() error { twin, err = build(); return err }); err != nil {
		return nil, fmt.Errorf("building profiling twin: %w", err)
	}
	profInstrs := rc.ProfileInstrs
	if profInstrs == 0 {
		profInstrs = rc.MaxInstrs
	}
	var profiler, static *cfg.Profiler
	if err := stage("cfg.profile", func() error { profiler, err = cfg.ProfileRun(twin, profInstrs); return err }); err != nil {
		return nil, fmt.Errorf("profiling run: %w", err)
	}
	_ = stage("cfg.analyze", func() error { static = cfg.Analyze(analysis, cfg.DefaultAnalyzeOptions()); return nil })
	ks := crypt.NewKeyStore(crypt.DeriveKey(rc.KeySeed, "cpu-private"))
	var out []table
	nextBase := prog.SigBase
	for i, mod := range analysis.Modules {
		var g *cfg.Graph
		if err := stage("cfg.graph", func() error {
			bld := cfg.NewBuilder(mod, rc.REV.Limits)
			profiler.Apply(bld)
			static.Apply(bld)
			g, err = bld.Build()
			return err
		}); err != nil {
			return nil, fmt.Errorf("CFG for %s: %w", mod.Name, err)
		}
		key := crypt.DeriveKey(rc.KeySeed, fmt.Sprintf("module-%d-%s", i, mod.Name))
		var tbl *sigtable.Table
		var img []byte
		if err := stage("sigtable.build", func() error { tbl, img, err = sigtable.Build(g, rc.REV.Format, key, ks); return err }); err != nil {
			return nil, fmt.Errorf("table for %s: %w", mod.Name, err)
		}
		tbl.Base = nextBase
		var snap *sigtable.Snapshot
		if err := stage("sigtable.snapshot", func() error { snap, err = sigtable.SnapshotFromImage(tbl, img, ks); return err }); err != nil {
			return nil, fmt.Errorf("snapshot for %s: %w", mod.Name, err)
		}
		out = append(out, table{module: mod.Name, meta: tbl, snap: snap})
		nextBase += sigtable.SigBaseAlign(tbl.Size)
	}
	return out, nil
}

// sources maps module names to lookup sources for evidence.Verify.
func sources(ts []table) map[string]sigtable.Source {
	m := make(map[string]sigtable.Source, len(ts))
	for _, t := range ts {
		m[t.module] = t.snap
	}
	return m
}

// tableProvider serves the benchmark's own tables to core.PrepareRemote,
// which skips profiling and table building when tables are supplied.
type tableProvider []table

// Module implements core.TableProvider.
func (tp tableProvider) Module(name string) (*sigtable.Table, sigtable.Source, error) {
	for _, t := range tp {
		if t.module == name {
			return t.meta, t.snap, nil
		}
	}
	return nil, nil, fmt.Errorf("no table for module %s", name)
}

// diffResult names the first field in which two validation results
// differ ("" when they are the same). Every simulated statistic, the
// verdict, the program output and the tables' metadata take part.
func diffResult(a, b *core.Result) string {
	fields := []struct {
		name string
		x, y any
	}{
		{"Output", a.Output, b.Output},
		{"Halted", a.Halted, b.Halted},
		{"Violation", a.Violation, b.Violation},
		{"Pipe", a.Pipe, b.Pipe},
		{"Branch", a.Branch, b.Branch},
		{"UniqueBranches", a.UniqueBranches, b.UniqueBranches},
		{"L1D", a.L1D, b.L1D},
		{"L1I", a.L1I, b.L1I},
		{"L2", a.L2, b.L2},
		{"DRAM", a.DRAM, b.DRAM},
		{"SC", a.SC, b.SC},
		{"Engine", a.Engine, b.Engine},
		{"Tables", a.Tables, b.Tables},
		{"SourceNotes", a.SourceNotes, b.SourceNotes},
		{"Shadow", a.Shadow, b.Shadow},
		{"Forensics", a.Forensics, b.Forensics},
	}
	for _, f := range fields {
		if !reflect.DeepEqual(f.x, f.y) {
			return f.name
		}
	}
	return ""
}

// counts are the simulated statistics a simulator-speed change must
// leave identical, summed over a set of results.
func simCounts(rs []*core.Result) map[string]float64 {
	var c struct {
		instrs, cycles, blocks, mispredicts, probes, partial, complete float64
		ram, records, stall, memoHits, memoMisses                      float64
	}
	for _, r := range rs {
		c.instrs += float64(r.Pipe.Instrs)
		c.cycles += float64(r.Pipe.Cycles)
		c.blocks += float64(r.Pipe.BBCount)
		c.mispredicts += float64(r.Pipe.Mispredicts)
		c.probes += float64(r.SC.Probes)
		c.partial += float64(r.SC.PartialMisses)
		c.complete += float64(r.SC.CompleteMisses)
		c.ram += float64(r.Engine.RAMLookups)
		c.records += float64(r.Engine.RecordsTouched)
		c.stall += float64(r.Pipe.ValidationStallCycles)
		c.memoHits += float64(r.Engine.MemoHits)
		c.memoMisses += float64(r.Engine.MemoMisses)
	}
	ratio := 0.0
	if n := c.memoHits + c.memoMisses; n > 0 {
		ratio = c.memoHits / n
	}
	return map[string]float64{
		"cpu.instrs":                   c.instrs,
		"cpu.cycles":                   c.cycles,
		"cpu.blocks":                   c.blocks,
		"branch.mispredicts":           c.mispredicts,
		"sigcache.probes":              c.probes,
		"sigcache.partial_misses":      c.partial,
		"sigcache.complete_misses":     c.complete,
		"core.ram_lookups":             c.ram,
		"core.records_touched":         c.records,
		"core.validation_stall_cycles": c.stall,
		"core.memo_hits":               c.memoHits,
		"core.memo_misses":             c.memoMisses,
		"core.memo_hit_ratio":          ratio,
	}
}

// setCounts reports simulated counts as per-layer metrics of one
// operation: the sums over rs, times scale.
func (r *run) setCounts(rs []*core.Result, scale float64) {
	for name, v := range simCounts(rs) {
		unit := "count"
		if name == "core.memo_hit_ratio" {
			unit = "ratio"
		} else {
			v *= scale
		}
		r.setLayer(name, unit, v)
	}
}

// setupStages are the trusted-loader stages buildTables times.
var setupStages = []string{"workload.build", "cfg.profile", "cfg.analyze", "cfg.graph", "sigtable.build", "sigtable.snapshot"}

// setSetupLayers reports the set-up time of every trusted-loader stage.
func (r *run) setSetupLayers() {
	for _, n := range setupStages {
		r.setLayer(n+"_s", "s", r.tr.total(n))
	}
}
