// Package experiments regenerates every table and figure of the paper's
// evaluation: Table 1 (attack detection), Table 2 (configuration), the
// Sec. VIII basic-block statistics, Figures 6–12 (IPC, overhead, branch
// counts, SC misses, cache statistics while servicing SC misses, aggressive
// validation), the Sec. V signature-table size study, the Sec. V.D CFI-only
// overhead study, and the Sec. VI power/area estimates.
//
// Runs are deterministic and cached per (benchmark, variant, SC size), so
// figures that share underlying simulations reuse them. Each benchmark is
// loaded once per fleet job and its variants run on the shared image;
// benchmarks run in parallel.
package experiments

import (
	"fmt"
	"sync"

	"rev/internal/attack"
	"rev/internal/core"
	"rev/internal/fleet"
	"rev/internal/power"
	"rev/internal/sigtable"
	"rev/internal/stats"
	"rev/internal/workload"
)

// Variant names a simulated machine configuration.
type Variant int

const (
	// Base is the unmodified out-of-order core.
	Base Variant = iota
	// REVNormal is REV with the normal signature-table format.
	REVNormal
	// REVAggressive validates every branch target (Sec. V.C).
	REVAggressive
	// REVCFIOnly validates computed control flow only (Sec. V.D).
	REVCFIOnly
)

func (v Variant) String() string {
	switch v {
	case Base:
		return "base"
	case REVNormal:
		return "rev"
	case REVAggressive:
		return "rev-aggressive"
	case REVCFIOnly:
		return "rev-cfi-only"
	}
	return "?"
}

// Config scopes a suite run.
type Config struct {
	// MaxInstrs per benchmark (the paper committed 2B per benchmark on
	// MARSS; 1M per benchmark keeps full-suite regeneration interactive
	// while past the warmup knee).
	MaxInstrs uint64
	// Scale shrinks the workloads' static footprint for quick runs (1.0 =
	// the paper-matched sizes).
	Scale float64
	// Parallel bounds concurrent simulations (0 = GOMAXPROCS).
	Parallel int
}

// DefaultConfig runs the full-size workloads for 1M instructions.
func DefaultConfig() Config {
	return Config{MaxInstrs: 1_000_000, Scale: 1.0}
}

// QuickConfig is used by tests: tiny workloads, short runs.
func QuickConfig() Config {
	return Config{MaxInstrs: 60_000, Scale: 0.01}
}

type runKey struct {
	bench   string
	variant Variant
	scKB    int
}

// Suite runs and caches simulations. The result cache is the suite's
// only shared mutable state; it is guarded by mu, so a Suite may be
// driven from multiple goroutines (and Prefetch itself fans out across
// the validation fleet).
type Suite struct {
	Cfg Config

	mu     sync.Mutex
	cache  map[runKey]*core.Result
	report *fleet.Report // last Prefetch's fleet report (merged)
}

// NewSuite creates an empty suite.
func NewSuite(cfg Config) *Suite {
	if cfg.MaxInstrs == 0 {
		cfg.MaxInstrs = 1_000_000
	}
	if cfg.Scale == 0 {
		cfg.Scale = 1.0
	}
	return &Suite{Cfg: cfg, cache: make(map[runKey]*core.Result)}
}

// Benchmarks returns the workload names in suite order.
func Benchmarks() []string {
	ps := workload.Profiles()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// Run returns the (cached) result for one benchmark and variant. A
// cache miss runs as a one-key benchmark job (runBench).
func (s *Suite) Run(bench string, variant Variant, scKB int) (*core.Result, error) {
	key := runKey{bench, variant, scKB}
	if r := s.cached(key); r != nil {
		return r, nil
	}
	if _, err := s.runBench([]runKey{key}); err != nil {
		return nil, err
	}
	return s.cached(key), nil
}

// cached returns the cached result for key, or nil.
func (s *Suite) cached(key runKey) *core.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache[key]
}

// runConfig returns the run configuration of one simulation.
func (s *Suite) runConfig(k runKey) core.RunConfig {
	rc := core.DefaultRunConfig()
	rc.MaxInstrs = s.Cfg.MaxInstrs
	if k.variant == Base {
		return rc
	}
	rev := core.DefaultConfig()
	rev.SC.SizeKB = k.scKB
	switch k.variant {
	case REVAggressive:
		rev.Format = sigtable.Aggressive
	case REVCFIOnly:
		rev.Format = sigtable.CFIOnly
	}
	rc.REV = &rev
	return rc
}

// runBench is one benchmark's fleet job: it loads the benchmark of keys
// once — program build and, when a key needs REV, the profiling pass,
// static analysis and CFGs — runs every key on that image, caches each
// result, and returns the blocks the simulations committed. Keys of one
// format share its tables (core.Image.Prepare); the image is dropped
// when the job ends.
func (s *Suite) runBench(keys []runKey) (uint64, error) {
	bench := keys[0].bench
	p, err := workload.ByName(bench)
	if err != nil {
		return 0, err
	}
	load := s.runConfig(keys[0])
	for _, k := range keys {
		if k.variant != Base {
			load = s.runConfig(k)
			break
		}
	}
	img, err := core.Load(p.Scaled(s.Cfg.Scale).Builder(), load)
	if err != nil {
		return 0, fmt.Errorf("experiments: loading %s: %w", bench, err)
	}
	var blocks uint64
	for _, k := range keys {
		prep, err := img.Prepare(s.runConfig(k))
		var res *core.Result
		if err == nil {
			res, err = prep.RunInstance(core.InstanceOptions{})
		}
		if err != nil {
			return 0, fmt.Errorf("experiments: %s/%s/%dKB: %w", bench, k.variant, k.scKB, err)
		}
		if res.Violation != nil {
			return 0, fmt.Errorf("experiments: %s/%s/%dKB: unexpected violation: %v",
				bench, k.variant, k.scKB, res.Violation)
		}
		s.mu.Lock()
		s.cache[k] = res
		s.mu.Unlock()
		blocks += res.Pipe.BBCount
	}
	return blocks, nil
}

// Prefetch shards a set of configurations across all benchmarks over the
// validation fleet: one job per benchmark that still has uncached
// configurations, which loads the benchmark once and runs each of them
// on that image (runBench). One worker goroutine per available core
// (bounded by Cfg.Parallel), dynamic job hand-out so gcc/gobmk
// stragglers do not idle the pool, deterministic input-ordered error
// reporting. Results land in the suite's locked cache; cached and
// repeated configurations are dropped up front, so the fleet never runs
// a simulation twice and its block count covers distinct simulations.
func (s *Suite) Prefetch(variants []Variant, scKBs []int) error {
	var jobs [][]runKey // per benchmark, its uncached keys
	seen := map[runKey]bool{}
	s.mu.Lock()
	for _, b := range Benchmarks() {
		var keys []runKey
		add := func(k runKey) {
			if !seen[k] && s.cache[k] == nil {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		for _, v := range variants {
			if v == Base {
				add(runKey{b, v, 0})
				continue
			}
			for _, kb := range scKBs {
				add(runKey{b, v, kb})
			}
		}
		if len(keys) > 0 {
			jobs = append(jobs, keys)
		}
	}
	s.mu.Unlock()
	runner := fleet.Runner[[]runKey, uint64]{
		Workers: s.Cfg.Parallel,
		Fn:      func(_, _ int, keys []runKey) (uint64, error) { return s.runBench(keys) },
		Blocks:  func(blocks uint64) uint64 { return blocks },
	}
	_, rep, err := runner.Run(jobs)
	s.mu.Lock()
	s.report = mergeReports(s.report, rep)
	s.mu.Unlock()
	return err
}

// FleetReport returns the merged per-worker metrics of every Prefetch
// this suite has executed (nil before the first), the fleet.* layer
// metrics of perfbench's figures workload.
func (s *Suite) FleetReport() *fleet.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.report
}

// mergeReports folds b into a (either may be nil), aligning workers by
// id. Per-job detail is dropped in the merge; per-worker busy time and
// throughput accumulate.
func mergeReports(a, b *fleet.Report) *fleet.Report {
	if b == nil {
		return a
	}
	if a == nil {
		c := *b
		c.PerJob = nil
		return &c
	}
	if b.Workers > a.Workers {
		pw := make([]fleet.WorkerMetric, b.Workers)
		copy(pw, a.PerWorker)
		for i := len(a.PerWorker); i < b.Workers; i++ {
			pw[i].Worker = i
		}
		a.PerWorker = pw
		a.Workers = b.Workers
	}
	for _, wm := range b.PerWorker {
		t := &a.PerWorker[wm.Worker]
		t.Worker = wm.Worker
		t.Jobs += wm.Jobs
		t.WallSeconds += wm.WallSeconds
		t.Blocks += wm.Blocks
		if t.WallSeconds > 0 {
			t.BlocksPerSec = float64(t.Blocks) / t.WallSeconds
		}
	}
	a.Jobs += b.Jobs
	a.WallSeconds += b.WallSeconds
	a.Blocks += b.Blocks
	if a.WallSeconds > 0 {
		a.BlocksPerSec = float64(a.Blocks) / a.WallSeconds
	}
	return a
}

// overhead computes the IPC loss of run vs base in percent.
func overhead(base, run *core.Result) float64 {
	if base.IPC() == 0 {
		return 0
	}
	return 100 * (base.IPC() - run.IPC()) / base.IPC()
}

// Fig6 regenerates Figure 6: IPC for base, REV 32KB and REV 64KB.
func (s *Suite) Fig6() (*stats.Table, error) {
	if err := s.Prefetch([]Variant{Base, REVNormal}, []int{32, 64}); err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Figure 6: IPC, base vs REV (32KB / 64KB SC)",
		Headers: []string{"benchmark", "base IPC", "REV-32KB IPC", "REV-64KB IPC"},
	}
	var b0, b32, b64 []float64
	for _, b := range Benchmarks() {
		base, _ := s.Run(b, Base, 0)
		r32, _ := s.Run(b, REVNormal, 32)
		r64, _ := s.Run(b, REVNormal, 64)
		t.AddRow(b, stats.F3(base.IPC()), stats.F3(r32.IPC()), stats.F3(r64.IPC()))
		b0 = append(b0, base.IPC())
		b32 = append(b32, r32.IPC())
		b64 = append(b64, r64.IPC())
	}
	t.AddRow("hmean", stats.F3(stats.HarmonicMean(b0)), stats.F3(stats.HarmonicMean(b32)), stats.F3(stats.HarmonicMean(b64)))
	t.AddNote("paper shape: REV IPC tracks base closely except gcc/gobmk; 64KB >= 32KB")
	return t, nil
}

// Fig7 regenerates Figure 7: IPC overhead percentage per benchmark for
// 32KB and 64KB signature caches.
func (s *Suite) Fig7() (*stats.Table, error) {
	if err := s.Prefetch([]Variant{Base, REVNormal}, []int{32, 64}); err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Figure 7: IPC overhead (%) vs base, REV normal validation",
		Headers: []string{"benchmark", "SC 32KB", "SC 64KB"},
	}
	var o32, o64 []float64
	for _, b := range Benchmarks() {
		base, _ := s.Run(b, Base, 0)
		r32, _ := s.Run(b, REVNormal, 32)
		r64, _ := s.Run(b, REVNormal, 64)
		v32, v64 := overhead(base, r32), overhead(base, r64)
		o32 = append(o32, v32)
		o64 = append(o64, v64)
		t.AddRow(b, stats.Pct(v32), stats.Pct(v64))
	}
	t.AddRow("average", stats.Pct(stats.Mean(o32)), stats.Pct(stats.Mean(o64)))
	t.AddNote("paper: 1.87%% average at 32KB, 1.63%% at 64KB; gobmk ~15%%, gcc next, all others <5%%")
	return t, nil
}

// Fig8 regenerates Figure 8: committed branches per benchmark.
func (s *Suite) Fig8() (*stats.Table, error) {
	if err := s.Prefetch([]Variant{Base}, nil); err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Figure 8: committed branches during execution",
		Headers: []string{"benchmark", "committed branches", "per 1k instrs"},
	}
	for _, b := range Benchmarks() {
		base, _ := s.Run(b, Base, 0)
		t.AddRow(b, fmt.Sprint(base.Pipe.CommittedBranches),
			stats.F3(1000*float64(base.Pipe.CommittedBranches)/float64(base.Pipe.Instrs)))
	}
	return t, nil
}

// Fig9 regenerates Figure 9: unique branches encountered during execution.
func (s *Suite) Fig9() (*stats.Table, error) {
	if err := s.Prefetch([]Variant{Base}, nil); err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Figure 9: unique branches during execution",
		Headers: []string{"benchmark", "unique branch PCs"},
	}
	for _, b := range Benchmarks() {
		base, _ := s.Run(b, Base, 0)
		t.AddRow(b, fmt.Sprint(base.UniqueBranches))
	}
	t.AddNote("paper: gcc and gobmk dominate; loop-bound benchmarks have tiny unique sets")
	return t, nil
}

// Fig10 regenerates Figure 10: signature cache miss counts (32KB SC).
func (s *Suite) Fig10() (*stats.Table, error) {
	if err := s.Prefetch([]Variant{REVNormal}, []int{32}); err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Figure 10: signature cache miss counts (32KB SC)",
		Headers: []string{"benchmark", "SC probes", "complete misses", "partial misses", "miss rate"},
	}
	for _, b := range Benchmarks() {
		r, _ := s.Run(b, REVNormal, 32)
		t.AddRow(b, fmt.Sprint(r.SC.Probes), fmt.Sprint(r.SC.CompleteMisses),
			fmt.Sprint(r.SC.PartialMisses), stats.Pct(100*r.SC.MissRate))
	}
	return t, nil
}

// Fig11 regenerates Figure 11: cache accesses/misses while servicing SC
// misses (the ClassSC statistics of the L1D and L2).
func (s *Suite) Fig11() (*stats.Table, error) {
	if err := s.Prefetch([]Variant{REVNormal}, []int{32}); err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Figure 11: memory-hierarchy statistics while servicing SC misses (32KB SC)",
		Headers: []string{"benchmark", "L1D acc", "L1D miss", "L2 acc", "L2 miss"},
	}
	for _, b := range Benchmarks() {
		r, _ := s.Run(b, REVNormal, 32)
		t.AddRow(b,
			fmt.Sprint(r.L1D.Accesses[1]), fmt.Sprint(r.L1D.Misses[1]),
			fmt.Sprint(r.L2.Accesses[1]), fmt.Sprint(r.L2.Misses[1]))
	}
	t.AddNote("class-SC accesses only; paper: gcc/gobmk suffer the most misses during SC service")
	return t, nil
}

// Fig12 regenerates Figure 12: IPC overhead with aggressive validation.
func (s *Suite) Fig12() (*stats.Table, error) {
	if err := s.Prefetch([]Variant{Base, REVNormal, REVAggressive}, []int{32, 64}); err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Figure 12: IPC overhead (%) with aggressive validation",
		Headers: []string{"benchmark", "aggr 32KB", "aggr 64KB", "normal 32KB"},
	}
	var a32, a64 []float64
	for _, b := range Benchmarks() {
		base, _ := s.Run(b, Base, 0)
		g32, _ := s.Run(b, REVAggressive, 32)
		g64, _ := s.Run(b, REVAggressive, 64)
		n32, _ := s.Run(b, REVNormal, 32)
		v32, v64 := overhead(base, g32), overhead(base, g64)
		a32 = append(a32, v32)
		a64 = append(a64, v64)
		t.AddRow(b, stats.Pct(v32), stats.Pct(v64), stats.Pct(overhead(base, n32)))
	}
	t.AddRow("average", stats.Pct(stats.Mean(a32)), stats.Pct(stats.Mean(a64)), "")
	t.AddNote("paper: aggressive validation performs slightly better (two successors verified per entry)")
	return t, nil
}

// CFIOnly regenerates the Sec. V.D overhead study.
func (s *Suite) CFIOnly() (*stats.Table, error) {
	if err := s.Prefetch([]Variant{Base, REVCFIOnly}, []int{32}); err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Sec. V.D: CFI-only validation overhead (32KB SC)",
		Headers: []string{"benchmark", "overhead", "SC probes", "computed-branch share"},
	}
	var os []float64
	for _, b := range Benchmarks() {
		base, _ := s.Run(b, Base, 0)
		r, _ := s.Run(b, REVCFIOnly, 32)
		ov := overhead(base, r)
		os = append(os, ov)
		share := float64(r.SC.Probes) / float64(base.Pipe.CommittedBranches)
		t.AddRow(b, stats.Pct(ov), fmt.Sprint(r.SC.Probes), stats.Pct(100*share))
	}
	t.AddRow("average", stats.Pct(stats.Mean(os)), "", "")
	t.AddNote("paper: 0.04%%-1.68%% overhead; dynamic branches ~10%% of all branches")
	return t, nil
}

// TableSizes regenerates the Sec. V signature-table size study across the
// three formats.
func (s *Suite) TableSizes() (*stats.Table, error) {
	if err := s.Prefetch([]Variant{REVNormal, REVAggressive, REVCFIOnly}, []int{32}); err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Sec. V: signature table size as fraction of executable size",
		Headers: []string{"benchmark", "normal", "aggressive", "cfi-only"},
	}
	var n, a, c []float64
	for _, b := range Benchmarks() {
		rn, _ := s.Run(b, REVNormal, 32)
		ra, _ := s.Run(b, REVAggressive, 32)
		rc, _ := s.Run(b, REVCFIOnly, 32)
		vn, va, vc := rn.Tables[0].SizeRatio(), ra.Tables[0].SizeRatio(), rc.Tables[0].SizeRatio()
		n = append(n, vn)
		a = append(a, va)
		c = append(c, vc)
		t.AddRow(b, stats.Pct(100*vn), stats.Pct(100*va), stats.Pct(100*vc))
	}
	t.AddRow("average", stats.Pct(100*stats.Mean(n)), stats.Pct(100*stats.Mean(a)), stats.Pct(100*stats.Mean(c)))
	t.AddNote("paper bands: normal 15-52%% (avg 37%%), aggressive 40-65%%, CFI-only 3-20%% (avg 9%%)")
	return t, nil
}

// BBStats regenerates the Sec. VIII basic-block statistics and compares
// them with the paper's reported values.
func (s *Suite) BBStats() (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Sec. VIII: basic-block statistics (measured vs paper)",
		Headers: []string{"benchmark", "blocks", "paper BBs", "instr/BB", "paper", "succ/BB", "paper", "dyn blocks"},
	}
	for _, name := range Benchmarks() {
		p, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		p = p.Scaled(s.Cfg.Scale)
		classic, dynamic, err := BlockStats(p, s.Cfg.MaxInstrs)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, fmt.Sprint(classic.NumBlocks), fmt.Sprint(p.PaperBBs),
			stats.F3(classic.AvgInstrs), stats.F3(p.PaperInstrBB),
			stats.F3(classic.AvgSuccessors), stats.F3(p.PaperSucc),
			fmt.Sprint(dynamic.NumBlocks))
	}
	t.AddNote("'blocks' is the classic leader-partitioned count (comparable to the paper);")
	t.AddNote("'dyn blocks' is the dynamic-entry enumeration REV actually validates (overlaps counted)")
	return t, nil
}

// Table1 runs all six attack scenarios, sharded across the validation
// fleet (workers <= 0 selects GOMAXPROCS). Each scenario owns its victim
// programs and engines, so scenarios are independent jobs; rows are
// collected in scenario order, so the table is byte-identical at any
// worker count.
func Table1(maxInstrs uint64, workers int) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Table 1: attack classes and REV detection",
		Headers: []string{"attack", "behaviour changed", "detected", "violation"},
	}
	scenarios := attack.Scenarios()
	outcomes, err := fleet.Map(workers, scenarios, func(_ int, sc *attack.Scenario) (*attack.Outcome, error) {
		return attack.Run(sc, maxInstrs)
	})
	if err != nil {
		return nil, err
	}
	for i, sc := range scenarios {
		o := outcomes[i]
		t.AddRow(sc.Table1Row, fmt.Sprint(o.BehaviourChanged), fmt.Sprint(o.Detected), o.Reason.String())
	}
	return t, nil
}

// Table2 renders the simulated configuration.
func Table2() *stats.Table {
	rc := core.DefaultRunConfig()
	t := &stats.Table{
		Title:   "Table 2: processor and memory system configuration",
		Headers: []string{"parameter", "value"},
	}
	t.AddRow("fetch/dispatch/commit width", fmt.Sprintf("%d / %d / %d", rc.Pipe.FetchWidth, rc.Pipe.DispatchWidth, rc.Pipe.CommitWidth))
	t.AddRow("ROB / LSQ", fmt.Sprintf("%d / %d", rc.Pipe.ROBSize, rc.Pipe.LSQSize))
	t.AddRow("function units", fmt.Sprintf("%d ALU, %d FPU, %d load, %d store", rc.Pipe.IntALU, rc.Pipe.FPU, rc.Pipe.LoadPorts, rc.Pipe.StorePorts))
	t.AddRow("L1I", fmt.Sprintf("%dKB, %d cycles, %d-way", rc.Mem.L1I.SizeKB, rc.Mem.L1I.Latency, rc.Mem.L1I.Assoc))
	t.AddRow("L1D", fmt.Sprintf("%dKB, %d cycles, %d-way", rc.Mem.L1D.SizeKB, rc.Mem.L1D.Latency, rc.Mem.L1D.Assoc))
	t.AddRow("L2", fmt.Sprintf("%dKB, %d cycles, %d-way", rc.Mem.L2.SizeKB, rc.Mem.L2.Latency, rc.Mem.L2.Assoc))
	t.AddRow("DRAM", fmt.Sprintf("%d cycles first chunk, %d banks, open-page %d cycles", rc.Mem.DRAM.RowMissCycles, rc.Mem.DRAM.Banks, rc.Mem.DRAM.RowHitCycles))
	t.AddRow("TLBs", fmt.Sprintf("%d I / %d D entries, L2 TLB %d", rc.Mem.ITLB.Entries, rc.Mem.DTLB.Entries, rc.Mem.L2TLB.Entries))
	t.AddRow("branch predictor", fmt.Sprintf("%dK gshare", branchEntriesK(rc)))
	t.AddRow("REV CHG latency H", fmt.Sprint(core.DefaultConfig().CHGLatency))
	t.AddRow("REV SC", "32KB/64KB, 4-way (DTLB shared via extra port)")
	return t
}

func branchEntriesK(rc core.RunConfig) int { return rc.Branch.GshareEntries / 1024 }

// Power regenerates the Sec. VI estimates.
func Power() *stats.Table {
	t := &stats.Table{
		Title:   "Sec. VI: area and power overhead (CACTI/McPAT-style model, 32nm, 3GHz)",
		Headers: []string{"configuration", "area ovh", "core power ovh", "chip-level ovh"},
	}
	chip := power.DefaultChipContext()
	for _, cfg := range []power.REVConfig{
		{SCKB: 32},
		{SCKB: 64},
		{SCKB: 32, SharedDecrypt: true},
	} {
		r := power.Evaluate(power.DefaultTech(), cfg, chip)
		name := fmt.Sprintf("SC %dKB", cfg.SCKB)
		if cfg.SharedDecrypt {
			name += " (shared AES)"
		}
		t.AddRow(name, stats.Pct(r.AreaOverheadPct), stats.Pct(r.PowerOverheadPct), stats.Pct(r.ChipOverheadPct))
	}
	t.AddNote("paper: ~8%% area, 7.2%% core power, <5.5%% chip level; lower if the AES unit is shared")
	return t
}
