// Command revbench regenerates the paper's tables and figures.
//
// Usage:
//
//	revbench -exp all                 # everything (long)
//	revbench -exp fig7                # one experiment
//	revbench -exp fig6 -instrs 2e6    # longer runs
//	revbench -exp tablesize -scale 0.1
//	revbench -exp fig6,fig7 -parallel 4 -parjson BENCH_parallel.json
//
// Experiments: table1, table2, bbstats, fig6, fig7, fig8, fig9, fig10,
// fig11, fig12, tablesize, cfionly, softcfi, power, all.
//
// Simulations fan out across the validation fleet (internal/fleet):
// -parallel N bounds the worker goroutines (default: all CPUs). Figure
// tables are collected in benchmark order, so output is byte-identical
// at any worker count.
//
// End-to-end throughput records come from the benchmark module in
// perfbench/ (perfbench/README.md), not from revbench.
//
// With -parjson, revbench times every selected experiment twice — once
// serial (1 worker) and once on the fleet (-parallel workers) — verifies
// the rendered tables are byte-identical, and writes the serial/parallel
// wall times, speedups, and per-worker blocks-per-second to the given
// file (the committed BENCH_parallel.json).
//
// With -lanesjson, revbench probes the intra-run validation pipeline: one
// REV-protected workload is run serially (-lanes 0) and then pipelined at
// each lane count in {1, 4, auto}, the full result record (output, cycle
// counts, cache/SC/engine statistics, verdict) is checked for byte
// identity against the serial run, and wall times, speedups, and
// allocations per validated block are written to the given file (the
// committed BENCH_pipeline.json).
//
// With -scalingjson, revbench sweeps the pipelined executor across lanes
// {1, 2, 4} x GOMAXPROCS (powers of two up to NumCPU), measuring wall
// time, byte identity against the serial run, and steady-state
// allocations per run at every point, and writes the self-annotating
// scaling record (the committed BENCH_pipeline.json): the single_cpu and
// scaling_valid fields are machine-written from the recording host, so
// the artifact cannot claim an unproven speedup. Exits nonzero on
// identity divergence or when any point allocates past -scalingallocs
// (default 0 — the run-arena contract).
//
// With -teljson, revbench probes the telemetry overhead: one REV-protected
// workload is timed (best of -telrounds) with telemetry disabled, with the
// metrics registry enabled, and with metrics + tracing enabled; results
// are checked for byte identity across all three, and the record (the
// committed BENCH_telemetry.json) is written. When the metrics-enabled
// overhead, or the metrics overhead of the same workload in prefetching
// lookup mode, exceeds -telthreshold percent, revbench exits nonzero — the
// CI telemetry-overhead gate.
//
// With -evidencejson, revbench probes the attestation-evidence emitter
// (docs/EVIDENCE.md): one REV-protected workload is timed (best of
// -telrounds) without and with a hash-chained evidence stream attached,
// results are checked for byte identity, the emitted stream is checked
// for run-to-run byte identity and replayed through the offline
// verifier, and the record (the committed BENCH_evidence.json) is
// written. When the evidence-enabled overhead exceeds -evthreshold
// percent, revbench exits nonzero — the CI evidence-overhead gate.
//
// With -metricsjson, revbench runs one REV-protected workload with the
// metrics registry attached and writes the registry snapshot as JSON (the
// revdump -what metrics input).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rev/internal/core"
	"rev/internal/evidence"
	"rev/internal/experiments"
	"rev/internal/fleet"
	"rev/internal/prefetch"
	"rev/internal/sigserve"
	"rev/internal/sigtable"
	"rev/internal/stats"
	"rev/internal/telemetry"
	"rev/internal/workload"
)

// hostMeta pins the hardware/runtime context a benchmark record was
// produced under, so committed BENCH_*.json files from different
// machines stay comparable (wall times and speedups are only meaningful
// relative to the recording host).
type hostMeta struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
}

// hostInfo samples the recording host.
func hostInfo() hostMeta {
	return hostMeta{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
}

// laneTiming is one pipelined configuration's record in the lane probe.
type laneTiming struct {
	Lanes       int     `json:"lanes"`
	WallSeconds float64 `json:"wall_seconds"`
	// Speedup is serial wall / pipelined wall for the same workload.
	Speedup float64 `json:"speedup"`
	// Identical reports that the pipelined run's full result record —
	// output, halt state, verdict, cycle counts, branch/cache/SC/engine
	// statistics — is byte-identical to the serial run's.
	Identical      bool    `json:"identical"`
	Mallocs        uint64  `json:"mallocs"`
	AllocsPerBlock float64 `json:"allocs_per_block"`
}

// pipeReport is the BENCH_pipeline.json payload: the serial baseline and
// one laneTiming per probed lane count.
type pipeReport struct {
	Generated string   `json:"generated"`
	Host      hostMeta `json:"host"`
	Workload  string   `json:"workload"`
	Instrs    uint64   `json:"instrs"`
	Scale     float64  `json:"scale"`
	CPUs      int      `json:"cpus"`
	// GOMAXPROCS and AutoLanes record the host-derived sizing inputs:
	// fleet workers default to GOMAXPROCS and -lanes -1 resolves to
	// AutoLanes, so the file pins what "auto" meant on this machine.
	GOMAXPROCS int `json:"gomaxprocs"`
	AutoLanes  int `json:"auto_lanes"`
	// SingleCPU and ScalingValid are machine-written host truth (the same
	// contract as the -scalingjson record): SingleCPU is NumCPU < 2, and
	// ScalingValid means the speedup columns were measured on a multi-CPU
	// host with byte identity holding at every probed lane count. CI
	// asserts SingleCPU against the runner's nproc, so a record produced
	// on the wrong host class cannot be committed silently.
	SingleCPU            bool         `json:"single_cpu"`
	ScalingValid         bool         `json:"scaling_valid"`
	Blocks               uint64       `json:"blocks"`
	SerialSeconds        float64      `json:"serial_seconds"`
	SerialMallocs        uint64       `json:"serial_mallocs"`
	SerialAllocsPerBlock float64      `json:"serial_allocs_per_block"`
	Pipelined            []laneTiming `json:"pipelined"`
	// Note flags hardware bounds on the measurement (a 1-CPU host cannot
	// show pipelined wall-clock speedup; byte identity is the
	// hardware-independent check).
	Note string `json:"note,omitempty"`
}

// parTiming is one experiment's serial-vs-fleet record.
type parTiming struct {
	ID              string  `json:"id"`
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	Speedup         float64 `json:"speedup"`
	// Identical reports that the serial and fleet table renderings are
	// byte-for-byte equal (the determinism contract of internal/fleet).
	Identical bool `json:"identical"`
}

// parReport is the BENCH_parallel.json payload.
type parReport struct {
	Generated   string        `json:"generated"`
	Host        hostMeta      `json:"host"`
	Instrs      uint64        `json:"instrs"`
	Scale       float64       `json:"scale"`
	CPUs        int           `json:"cpus"`
	Workers     int           `json:"workers"`
	Experiments []parTiming   `json:"experiments"`
	Fleet       *fleet.Report `json:"fleet,omitempty"`
	// TotalSpeedup is sum(serial)/sum(parallel) over the experiment set.
	TotalSpeedup float64 `json:"total_speedup"`
	// Note flags hardware bounds on the measurement (e.g. fewer CPUs
	// than workers caps the achievable wall-clock speedup).
	Note string `json:"note,omitempty"`
}

func main() {
	exp := flag.String("exp", "all", "experiment id (comma separated), or 'all'")
	instrs := flag.Uint64("instrs", 1_000_000, "committed instructions per benchmark run")
	scale := flag.Float64("scale", 1.0, "workload static-size scale (1.0 = paper-matched)")
	parallel := flag.Int("parallel", 0, "validation-fleet worker goroutines (0 = GOMAXPROCS)")
	attackInstrs := flag.Uint64("attackinstrs", 100_000, "instruction budget per attack scenario")
	parJSONPath := flag.String("parjson", "", "write serial-vs-fleet timings (e.g. BENCH_parallel.json)")
	lanesJSONPath := flag.String("lanesjson", "", "write serial-vs-pipelined lane timings (e.g. BENCH_pipeline.json)")
	scalingJSONPath := flag.String("scalingjson", "", "write the lanes x GOMAXPROCS scaling sweep (e.g. BENCH_pipeline.json); exits nonzero on identity divergence or allocs past -scalingallocs")
	scalingRounds := flag.Int("scalingrounds", 3, "timed rounds per sweep point in the -scalingjson probe (best-of)")
	scalingAllocs := flag.Uint64("scalingallocs", 0, "max tolerated steady-state allocs per run at any -scalingjson sweep point")
	telJSONPath := flag.String("teljson", "", "write the telemetry-overhead probe record (e.g. BENCH_telemetry.json); exits nonzero past -telthreshold")
	telThreshold := flag.Float64("telthreshold", 2.0, "max tolerated metrics-enabled overhead percent for -teljson")
	telRounds := flag.Int("telrounds", 5, "timed rounds per configuration in the -teljson probe (best-of)")
	evJSONPath := flag.String("evidencejson", "", "write the evidence-overhead probe record (e.g. BENCH_evidence.json); exits nonzero past -evthreshold")
	evThreshold := flag.Float64("evthreshold", 2.0, "max tolerated evidence-enabled overhead percent for -evidencejson")
	metricsJSONPath := flag.String("metricsjson", "", "run one protected workload with metrics enabled and write the registry snapshot JSON")
	remoteJSONPath := flag.String("remotejson", "", "write the remote-vs-local signature-sourcing probe (e.g. BENCH_remote.json): loopback revserved, snapshot and lookup modes, injected latency ladder")
	prefetchJSONPath := flag.String("prefetchjson", "", "write the predictive-prefetch probe (e.g. BENCH_prefetch.json): lookup-mode loopback revserved across a prefetch-depth x service-delay grid")
	prefetchDepths := flag.String("prefetchdepths", "0,1,4,16,64", "comma-separated prefetch depths for -prefetchjson (0 = unprefetched baseline)")
	prefetchMax := flag.Float64("prefetchmax", 0, "for -prefetchjson: max tolerated best-depth slowdown vs local at 5ms delay (0 = no gate)")
	flag.Parse()

	suiteCfg := experiments.Config{
		MaxInstrs: *instrs,
		Scale:     *scale,
		Parallel:  *parallel,
	}
	suite := experiments.NewSuite(suiteCfg)

	table := func(t *stats.Table) func(*experiments.Suite) (*stats.Table, error) {
		return func(*experiments.Suite) (*stats.Table, error) { return t, nil }
	}
	all := []selectedExp{
		{"table2", table(experiments.Table2())},
		{"table1", func(s *experiments.Suite) (*stats.Table, error) {
			return experiments.Table1(*attackInstrs, s.Cfg.Parallel)
		}},
		{"bbstats", (*experiments.Suite).BBStats},
		{"fig6", (*experiments.Suite).Fig6},
		{"fig7", (*experiments.Suite).Fig7},
		{"fig8", (*experiments.Suite).Fig8},
		{"fig9", (*experiments.Suite).Fig9},
		{"fig10", (*experiments.Suite).Fig10},
		{"fig11", (*experiments.Suite).Fig11},
		{"fig12", (*experiments.Suite).Fig12},
		{"tablesize", (*experiments.Suite).TableSizes},
		{"cfionly", (*experiments.Suite).CFIOnly},
		{"softcfi", (*experiments.Suite).SoftCFI},
		{"power", table(experiments.Power())},
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(id)] = true
	}
	selected := all[:0:0]
	for _, e := range all {
		if want["all"] || want[e.id] {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "revbench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}

	if *telJSONPath != "" {
		rep, err := probeTelemetry(*instrs, *scale, *telRounds, *telThreshold)
		if err != nil {
			fmt.Fprintf(os.Stderr, "revbench: telemetry probe: %v\n", err)
			os.Exit(1)
		}
		writeJSON(*telJSONPath, rep)
		if !rep.WithinThreshold {
			var over []string
			if rep.MetricsOverheadPct > rep.ThresholdPct {
				over = append(over, fmt.Sprintf("metrics-enabled overhead %.2f%%", rep.MetricsOverheadPct))
			}
			if rep.PrefetchOverheadPct > rep.ThresholdPct {
				over = append(over, fmt.Sprintf("prefetch metrics overhead %.2f%%", rep.PrefetchOverheadPct))
			}
			fmt.Fprintf(os.Stderr, "revbench: over the %.2f%% gate: %s\n",
				rep.ThresholdPct, strings.Join(over, ", "))
			os.Exit(1)
		}
		return
	}

	if *evJSONPath != "" {
		rep, err := probeEvidence(*instrs, *scale, *telRounds, *evThreshold)
		if err != nil {
			fmt.Fprintf(os.Stderr, "revbench: evidence probe: %v\n", err)
			os.Exit(1)
		}
		writeJSON(*evJSONPath, rep)
		if !rep.WithinThreshold {
			fmt.Fprintf(os.Stderr, "revbench: evidence hot-path overhead %.2f%% exceeds the %.2f%% gate\n",
				rep.HotPathOverheadPct, rep.ThresholdPct)
			os.Exit(1)
		}
		return
	}

	if *metricsJSONPath != "" {
		if err := dumpMetricsJSON(*metricsJSONPath, *instrs, *scale); err != nil {
			fmt.Fprintf(os.Stderr, "revbench: metrics snapshot: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *remoteJSONPath != "" {
		rep, err := probeRemote(*instrs, *scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "revbench: remote probe: %v\n", err)
			os.Exit(1)
		}
		writeJSON(*remoteJSONPath, rep)
		if !rep.AllIdentical {
			fmt.Fprintln(os.Stderr, "revbench: remote runs diverged from the local baseline")
			os.Exit(1)
		}
		return
	}

	if *prefetchJSONPath != "" {
		depths, err := parseDepths(*prefetchDepths)
		if err != nil {
			fmt.Fprintf(os.Stderr, "revbench: -prefetchdepths: %v\n", err)
			os.Exit(2)
		}
		rep, err := probePrefetch(*instrs, *scale, depths, *prefetchMax)
		if err != nil {
			fmt.Fprintf(os.Stderr, "revbench: prefetch probe: %v\n", err)
			os.Exit(1)
		}
		writeJSON(*prefetchJSONPath, rep)
		if !rep.AllIdentical {
			fmt.Fprintln(os.Stderr, "revbench: prefetched runs diverged from the local baseline")
			os.Exit(1)
		}
		if !rep.WithinGate {
			fmt.Fprintf(os.Stderr, "revbench: best prefetch slowdown %.2fx at 5ms exceeds the %.2fx gate\n",
				rep.Best5msSlowdown, rep.GateMax)
			os.Exit(1)
		}
		return
	}

	if *scalingJSONPath != "" {
		rep, err := probeScaling(*instrs, *scale, *scalingRounds, *scalingAllocs)
		if rep != nil {
			// A divergence or alloc-budget failure still writes the record:
			// the artifact self-annotates (scaling_valid=false or the
			// offending allocs_per_run column) rather than vanishing.
			writeJSON(*scalingJSONPath, rep)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "revbench: scaling probe: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *lanesJSONPath != "" {
		rep, err := probePipeline(*instrs, *scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "revbench: pipeline probe: %v\n", err)
			os.Exit(1)
		}
		writeJSON(*lanesJSONPath, rep)
		return
	}

	if *parJSONPath != "" {
		rep, err := probeParallel(suiteCfg, selected)
		if err != nil {
			fmt.Fprintf(os.Stderr, "revbench: parallel probe: %v\n", err)
			os.Exit(1)
		}
		writeJSON(*parJSONPath, rep)
		return
	}

	for _, e := range selected {
		t, err := e.run(suite)
		if err != nil {
			fmt.Fprintf(os.Stderr, "revbench: %s: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Println(t.String())
	}
}

type selectedExp struct {
	id  string
	run func(s *experiments.Suite) (*stats.Table, error)
}

// probeParallel times every selected experiment serial (1 worker) and on
// the fleet, checks the rendered tables for byte identity, and folds the
// fleet's per-worker metrics into the report. Each timing uses a fresh
// suite so no run is served from a previous experiment's cache.
func probeParallel(cfg experiments.Config, selected []selectedExp) (*parReport, error) {
	workers := fleet.Workers(cfg.Parallel, 1<<30)
	rep := &parReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Host:      hostInfo(),
		Instrs:    cfg.MaxInstrs,
		Scale:     cfg.Scale,
		CPUs:      runtime.NumCPU(),
		Workers:   workers,
	}
	serialCfg := cfg
	serialCfg.Parallel = 1
	var sumSerial, sumPar float64
	var parSuite *experiments.Suite
	for _, e := range selected {
		s1 := experiments.NewSuite(serialCfg)
		t0 := time.Now()
		serialTbl, err := e.run(s1)
		if err != nil {
			return nil, fmt.Errorf("%s (serial): %w", e.id, err)
		}
		serialWall := time.Since(t0).Seconds()

		parSuite = experiments.NewSuite(cfg)
		t0 = time.Now()
		parTbl, err := e.run(parSuite)
		if err != nil {
			return nil, fmt.Errorf("%s (parallel): %w", e.id, err)
		}
		parWall := time.Since(t0).Seconds()

		pt := parTiming{
			ID:              e.id,
			SerialSeconds:   round3(serialWall),
			ParallelSeconds: round3(parWall),
			Identical:       serialTbl.String() == parTbl.String(),
		}
		if parWall > 0 {
			pt.Speedup = round3(serialWall / parWall)
		}
		if !pt.Identical {
			return nil, fmt.Errorf("%s: fleet output diverged from serial run", e.id)
		}
		sumSerial += serialWall
		sumPar += parWall
		rep.Experiments = append(rep.Experiments, pt)
		fmt.Printf("%-10s serial %7.3fs  fleet(%d) %7.3fs  speedup %5.2fx  identical %v\n",
			e.id, serialWall, workers, parWall, pt.Speedup, pt.Identical)
	}
	if parSuite != nil {
		rep.Fleet = parSuite.FleetReport()
	}
	if sumPar > 0 {
		rep.TotalSpeedup = round3(sumSerial / sumPar)
	}
	if rep.CPUs < workers {
		rep.Note = fmt.Sprintf(
			"host has %d CPU(s) for %d workers: wall-clock speedup is bounded by min(cpus, workers); byte-identity is the hardware-independent check",
			rep.CPUs, workers)
	}
	return rep, nil
}

// probePipeline runs one REV-protected workload serially (-lanes 0) and
// pipelined at lane counts {1, 4, auto}, checks every pipelined result for
// byte identity against the serial baseline, and records wall times and
// allocations per validated block. The lane memo counters are the one
// sanctioned difference (K per-lane memos shard the block stream, so
// hit/miss splits differ); everything else must match exactly.
func probePipeline(instrs uint64, scale float64) (*pipeReport, error) {
	p, err := workload.ByName("bzip2")
	if err != nil {
		return nil, err
	}
	p = p.Scaled(scale)
	rc := core.DefaultRunConfig()
	rc.MaxInstrs = instrs
	cfg := core.DefaultConfig()
	cfg.Format = sigtable.Normal
	rc.REV = &cfg

	rep := &pipeReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Host:       hostInfo(),
		Workload:   p.Name,
		Instrs:     instrs,
		Scale:      scale,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		AutoLanes:  core.AutoLanes(),
		SingleCPU:  runtime.NumCPU() < 2,
	}

	// Prepare once — workload build, CFG extraction, signature-table
	// construction and encryption are the trusted loader's job, not the
	// validator hot path this probe measures. Every timed run below
	// validates against the same immutable decrypted snapshot.
	prep, err := core.Prepare(p.Builder(), rc)
	if err != nil {
		return nil, err
	}

	// Warm up once so neither configuration pays first-run costs.
	if _, _, _, err := timedRun(prep, 0); err != nil {
		return nil, err
	}
	serial, serialWall, serialMallocs, err := timedRun(prep, 0)
	if err != nil {
		return nil, err
	}
	if serial.Violation != nil {
		return nil, fmt.Errorf("clean workload flagged: %v", serial.Violation)
	}
	serialSig := identitySig(serial)
	rep.Blocks = serial.Pipe.BBCount
	rep.SerialSeconds = round3(serialWall)
	rep.SerialMallocs = serialMallocs
	if rep.Blocks > 0 {
		rep.SerialAllocsPerBlock = round3(float64(serialMallocs) / float64(rep.Blocks))
	}

	laneSet := []int{1, 4}
	if a := core.AutoLanes(); a > 0 && a != 1 && a != 4 {
		laneSet = append(laneSet, a)
	}
	for _, lanes := range laneSet {
		res, wall, mallocs, err := timedRun(prep, lanes)
		if err != nil {
			return nil, fmt.Errorf("lanes=%d: %w", lanes, err)
		}
		lt := laneTiming{
			Lanes:       lanes,
			WallSeconds: round3(wall),
			Identical:   identitySig(res) == serialSig,
			Mallocs:     mallocs,
		}
		if wall > 0 {
			lt.Speedup = round3(serialWall / wall)
		}
		if rep.Blocks > 0 {
			lt.AllocsPerBlock = round3(float64(mallocs) / float64(rep.Blocks))
		}
		if !lt.Identical {
			return nil, fmt.Errorf("lanes=%d: pipelined result diverged from serial run", lanes)
		}
		rep.Pipelined = append(rep.Pipelined, lt)
		fmt.Printf("lanes=%d    serial %7.3fs  pipelined %7.3fs  speedup %5.2fx  identical %v  allocs/block %.3f\n",
			lanes, serialWall, wall, lt.Speedup, lt.Identical, lt.AllocsPerBlock)
	}
	// Every probed lane count above matched the serial baseline (a
	// divergence returns early), so validity reduces to the host class.
	rep.ScalingValid = !rep.SingleCPU
	if rep.GOMAXPROCS < 2 {
		rep.Note = fmt.Sprintf(
			"host has %d CPU(s): pipelined wall-clock speedup needs >=2 CPUs (lanes only add scheduler time-slicing here, and auto-lanes resolves to %d); byte-identity is the hardware-independent check",
			rep.GOMAXPROCS, core.AutoLanes())
	}
	return rep, nil
}

// telReport is the BENCH_telemetry.json payload: best-of-N wall times for
// one REV-protected workload with telemetry disabled, with the metrics
// registry enabled, and with metrics + tracing enabled.
type telReport struct {
	Generated string   `json:"generated"`
	Host      hostMeta `json:"host"`
	Workload  string   `json:"workload"`
	Instrs    uint64   `json:"instrs"`
	Scale     float64  `json:"scale"`
	Rounds    int      `json:"rounds"`
	Blocks    uint64   `json:"blocks"`
	// DisabledSeconds is the nil-Set baseline (instrumentation compiled in,
	// every emission site one predicted-not-taken nil check).
	DisabledSeconds float64 `json:"disabled_seconds"`
	MetricsSeconds  float64 `json:"metrics_seconds"`
	TraceSeconds    float64 `json:"trace_seconds"`
	// MetricsOverheadPct is (metrics - disabled) / disabled * 100, the
	// gated number; TraceOverheadPct is informational (tracing is a debug
	// aid, not an always-on path).
	MetricsOverheadPct float64 `json:"metrics_overhead_pct"`
	TraceOverheadPct   float64 `json:"trace_overhead_pct"`
	ThresholdPct       float64 `json:"threshold_pct"`
	WithinThreshold    bool    `json:"within_threshold"`
	// Identical reports that all three configurations produced the same
	// full result record (telemetry must never alter simulated results).
	Identical              bool    `json:"identical"`
	DisabledAllocsPerBlock float64 `json:"disabled_allocs_per_block"`
	MetricsAllocsPerBlock  float64 `json:"metrics_allocs_per_block"`
	// PrefetchDisabledSeconds/PrefetchMetricsSeconds time the same
	// workload in remote lookup mode (zero-delay loopback, prefetch depth
	// 4) without and with the metrics registry — the prefetch counters
	// are held to the same overhead budget as the engine's.
	PrefetchDisabledSeconds float64 `json:"prefetch_disabled_seconds"`
	PrefetchMetricsSeconds  float64 `json:"prefetch_metrics_seconds"`
	PrefetchOverheadPct     float64 `json:"prefetch_overhead_pct"`
}

// probeTelemetry times one prepared workload under the three telemetry
// configurations, best-of-rounds each, and checks result byte identity.
func probeTelemetry(instrs uint64, scale float64, rounds int, threshold float64) (*telReport, error) {
	p, err := workload.ByName("bzip2")
	if err != nil {
		return nil, err
	}
	p = p.Scaled(scale)
	rc := core.DefaultRunConfig()
	rc.MaxInstrs = instrs
	cfg := core.DefaultConfig()
	cfg.Format = sigtable.Normal
	rc.REV = &cfg
	prep, err := core.Prepare(p.Builder(), rc)
	if err != nil {
		return nil, err
	}
	if rounds < 1 {
		rounds = 1
	}

	// Warm up once so no configuration pays first-run costs.
	if _, _, _, err := timedRunTel(prep, nil); err != nil {
		return nil, err
	}
	// The three configurations are timed in interleaved rounds (disabled,
	// metrics, metrics+trace, repeat) keeping the per-configuration minimum
	// wall: interleaving spreads thermal and scheduler drift evenly, and the
	// minimum is the least-noise estimator for a deterministic workload.
	// Sets are built fresh per round so trace rings and registries never
	// accumulate across rounds.
	type telCfg struct {
		mkSet   func() *telemetry.Set
		res     *core.Result
		wall    float64
		mallocs uint64
	}
	cfgs := [3]telCfg{
		{mkSet: func() *telemetry.Set { return nil }},
		{mkSet: func() *telemetry.Set { return &telemetry.Set{Reg: telemetry.NewRegistry()} }},
		{mkSet: func() *telemetry.Set {
			return &telemetry.Set{Reg: telemetry.NewRegistry(), Trace: telemetry.NewRecorder(0)}
		}},
	}
	for r := 0; r < rounds; r++ {
		for i := range cfgs {
			c := &cfgs[i]
			res, wall, mallocs, err := timedRunTel(prep, c.mkSet())
			if err != nil {
				return nil, err
			}
			if c.res == nil || wall < c.wall {
				c.res, c.wall, c.mallocs = res, wall, mallocs
			}
		}
	}
	disabled, dWall, dMallocs := cfgs[0].res, cfgs[0].wall, cfgs[0].mallocs
	metricsRes, mWall, mMallocs := cfgs[1].res, cfgs[1].wall, cfgs[1].mallocs
	traceRes, tWall := cfgs[2].res, cfgs[2].wall
	if disabled.Violation != nil {
		return nil, fmt.Errorf("clean workload flagged: %v", disabled.Violation)
	}

	sig := identitySig(disabled)

	// Prefetch pair: the same workload in remote lookup mode over a
	// zero-delay loopback server at prefetch depth 4, without and with
	// the metrics registry. The two instances are prepared once (the
	// prefetcher is wired to the Set at prepare time) and timed in the
	// same interleaved best-of-rounds discipline.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := sigserve.NewServer()
	for _, st := range prep.Tables {
		srv.Publish("default", st.Module, *st.Table, st.Snap)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-serveDone
	}()
	type pfCfg struct {
		prep   *core.Prepared
		client *sigserve.Client
		res    *core.Result
		wall   float64
	}
	var pf [2]pfCfg
	pfSets := [2]*telemetry.Set{nil, {Reg: telemetry.NewRegistry()}}
	for i := range pf {
		client, err := sigserve.NewClient(sigserve.ClientConfig{Addr: ln.Addr().String(), LookupMode: true})
		if err != nil {
			return nil, err
		}
		rcp := rc
		rcp.Prefetch = prefetch.Config{Depth: 4}
		rcp.Telemetry = pfSets[i]
		pp, err := core.PrepareRemote(p.Builder(), rcp, client)
		if err != nil {
			client.Close()
			return nil, err
		}
		pf[i] = pfCfg{prep: pp, client: client}
		defer pp.Close()
		defer client.Close()
		if _, err := pp.RunInstance(core.InstanceOptions{Telemetry: pfSets[i]}); err != nil { // warm-up (and buffer fill)
			return nil, err
		}
	}
	for r := 0; r < rounds; r++ {
		for i := range pf {
			c := &pf[i]
			start := time.Now()
			res, err := c.prep.RunInstance(core.InstanceOptions{Telemetry: pfSets[i]})
			wall := time.Since(start).Seconds()
			if err != nil {
				return nil, err
			}
			if c.res == nil || wall < c.wall {
				c.res, c.wall = res, wall
			}
		}
	}
	pfIdentical := true
	for i := range pf {
		if identitySig(pf[i].res) != sig || pf[i].res.SourceNotes != nil {
			pfIdentical = false
		}
	}
	rep := &telReport{
		Generated:       time.Now().UTC().Format(time.RFC3339),
		Host:            hostInfo(),
		Workload:        p.Name,
		Instrs:          instrs,
		Scale:           scale,
		Rounds:          rounds,
		Blocks:          disabled.Pipe.BBCount,
		DisabledSeconds: round3(dWall),
		MetricsSeconds:  round3(mWall),
		TraceSeconds:    round3(tWall),
		ThresholdPct:    threshold,
		Identical: identitySig(metricsRes) == sig && identitySig(traceRes) == sig &&
			pfIdentical,
		PrefetchDisabledSeconds: round3(pf[0].wall),
		PrefetchMetricsSeconds:  round3(pf[1].wall),
	}
	if dWall > 0 {
		rep.MetricsOverheadPct = round3((mWall - dWall) / dWall * 100)
		rep.TraceOverheadPct = round3((tWall - dWall) / dWall * 100)
	}
	if pf[0].wall > 0 {
		rep.PrefetchOverheadPct = round3((pf[1].wall - pf[0].wall) / pf[0].wall * 100)
	}
	rep.WithinThreshold = rep.MetricsOverheadPct <= threshold &&
		rep.PrefetchOverheadPct <= threshold
	if rep.Blocks > 0 {
		rep.DisabledAllocsPerBlock = round3(float64(dMallocs) / float64(rep.Blocks))
		rep.MetricsAllocsPerBlock = round3(float64(mMallocs) / float64(rep.Blocks))
	}
	if !rep.Identical {
		return nil, fmt.Errorf("telemetry-enabled result diverged from the disabled run")
	}
	fmt.Printf("telemetry  disabled %7.3fs  metrics %7.3fs (%+.2f%%)  metrics+trace %7.3fs (%+.2f%%)  prefetch %7.3fs vs %7.3fs (%+.2f%%)  identical %v\n",
		dWall, mWall, rep.MetricsOverheadPct, tWall, rep.TraceOverheadPct,
		pf[0].wall, pf[1].wall, rep.PrefetchOverheadPct, rep.Identical)
	return rep, nil
}

// timedRunTel is a serial timedRun with a per-instance telemetry Set.
func timedRunTel(prep *core.Prepared, set *telemetry.Set) (*core.Result, float64, uint64, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := prep.RunInstance(core.InstanceOptions{Telemetry: set})
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, 0, 0, err
	}
	return res, wall, after.Mallocs - before.Mallocs, nil
}

// dumpMetricsJSON runs one REV-protected workload with the metrics
// registry attached (auto lanes, so the pipeline/lane metrics populate on
// multi-CPU hosts) and writes the registry snapshot as JSON.
func dumpMetricsJSON(path string, instrs uint64, scale float64) error {
	p, err := workload.ByName("bzip2")
	if err != nil {
		return err
	}
	p = p.Scaled(scale)
	rc := core.DefaultRunConfig()
	rc.MaxInstrs = instrs
	rc.Lanes = -1
	cfg := core.DefaultConfig()
	cfg.Format = sigtable.Normal
	rc.REV = &cfg
	reg := telemetry.NewRegistry()
	rc.Telemetry = &telemetry.Set{Reg: reg}
	res, err := core.Run(p.Builder(), rc)
	if err != nil {
		return err
	}
	if res.Violation != nil {
		return fmt.Errorf("clean workload flagged: %v", res.Violation)
	}
	writeJSON(path, reg.Snapshot())
	return nil
}

// timedRun executes one prepared run at the given lane count, bracketed by
// GC + MemStats reads, returning the result, wall seconds, and heap
// allocation count.
func timedRun(prep *core.Prepared, lanes int) (*core.Result, float64, uint64, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := prep.RunInstance(core.InstanceOptions{Lanes: lanes})
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, 0, 0, err
	}
	return res, wall, after.Mallocs - before.Mallocs, nil
}

// identitySig renders the parts of a Result that the determinism contract
// covers. Engine memo counters are zeroed before rendering: the pipelined
// executor shards the signature memo per lane, so hit/miss splits (and
// nothing else) legitimately differ from the serial run.
func identitySig(res *core.Result) string {
	eng := res.Engine
	eng.MemoHits, eng.MemoMisses = 0, 0
	return fmt.Sprintf("%v|%v|%v|%+v|%+v|%d|%+v|%+v|%+v|%+v|%+v|%+v|%+v|%+v",
		res.Output, res.Halted, res.Violation, res.Pipe, res.Branch,
		res.UniqueBranches, res.L1D, res.L1I, res.L2, res.DRAM,
		res.SC, eng, res.Shadow, res.SourceNotes)
}

func writeJSON(path string, v any) {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "revbench: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "revbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "revbench: wrote %s\n", path)
}

// parseDepths parses the -prefetchdepths list.
func parseDepths(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 0 {
			return nil, fmt.Errorf("want a non-negative depth, got %q", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty depth list")
	}
	return out, nil
}

func round3(f float64) float64 {
	return float64(int64(f*1000+0.5)) / 1000
}

// evReport is the BENCH_evidence.json payload: best-of-N wall times for
// one REV-protected workload without and with the hash-chained evidence
// emitter attached, plus the stream's own determinism and verification
// record.
type evReport struct {
	Generated string   `json:"generated"`
	Host      hostMeta `json:"host"`
	Workload  string   `json:"workload"`
	Instrs    uint64   `json:"instrs"`
	Scale     float64  `json:"scale"`
	Rounds    int      `json:"rounds"`
	Blocks    uint64   `json:"blocks"`
	// DisabledSeconds is the no-emitter baseline; EvidenceSeconds runs
	// the same prepared workload with commits streaming through the
	// emitter ring into a byte-counting sink.
	DisabledSeconds float64 `json:"disabled_seconds"`
	EvidenceSeconds float64 `json:"evidence_seconds"`
	// OverheadPct is (evidence - disabled) / disabled * 100: the total
	// wall-clock cost, which on a single-CPU host includes the whole
	// background encoder (nowhere to overlap). EncodeSeconds is the
	// encoder's measured busy time; HotPathOverheadPct subtracts it on
	// such hosts, isolating the commit path's own cost — the <2% budget
	// from docs/EVIDENCE.md and the gated number.
	OverheadPct        float64 `json:"overhead_pct"`
	EncodeSeconds      float64 `json:"encode_seconds"`
	HotPathOverheadPct float64 `json:"hotpath_overhead_pct"`
	ThresholdPct       float64 `json:"threshold_pct"`
	WithinThreshold    bool    `json:"within_threshold"`
	// Identical reports that the evidence-enabled run produced the same
	// full result record as the baseline (evidence must never alter
	// simulated results).
	Identical bool `json:"identical"`
	// StreamBytes/BytesPerBlock size the emitted stream; Records and
	// Segments count its framing.
	StreamBytes   uint64  `json:"stream_bytes"`
	BytesPerBlock float64 `json:"bytes_per_block"`
	Records       int     `json:"records"`
	Segments      int     `json:"segments"`
	// Deterministic reports that two runs emitted byte-identical
	// streams; Verified reports that the stream replayed clean through
	// evidence.Verify against the run's own tables.
	Deterministic bool `json:"deterministic"`
	Verified      bool `json:"verified"`
	// Note flags hardware bounds on the measurement (a single-CPU host
	// serializes the background encoder with the simulation).
	Note string `json:"note,omitempty"`
}

// countWriter is the evidence sink for the timed rounds: it counts
// bytes and discards them, so the probe measures emitter cost, not
// disk.
type countWriter struct{ n uint64 }

// Write counts and discards the evidence bytes.
func (w *countWriter) Write(p []byte) (int, error) {
	w.n += uint64(len(p))
	return len(p), nil
}

// probeEvidence times one prepared workload without and with the
// evidence emitter, best-of-rounds interleaved, checks result and
// stream byte identity, and replays the stream through the offline
// verifier.
func probeEvidence(instrs uint64, scale float64, rounds int, threshold float64) (*evReport, error) {
	p, err := workload.ByName("bzip2")
	if err != nil {
		return nil, err
	}
	p = p.Scaled(scale)
	rc := core.DefaultRunConfig()
	rc.MaxInstrs = instrs
	cfg := core.DefaultConfig()
	cfg.Format = sigtable.Normal
	rc.REV = &cfg
	prep, err := core.Prepare(p.Builder(), rc)
	if err != nil {
		return nil, err
	}
	if rounds < 1 {
		rounds = 1
	}

	emit := func(w *countWriter) (*core.Result, float64, evidence.Stats, error) {
		em := evidence.NewEmitter(w, evidence.Config{Binding: "bench"})
		start := time.Now()
		res, err := prep.RunInstance(core.InstanceOptions{Evidence: em})
		return res, time.Since(start).Seconds(), em.Stats(), err
	}

	// Warm up both paths once, then time in interleaved best-of-rounds
	// (the same discipline as the telemetry probe): interleaving spreads
	// thermal and scheduler drift evenly, and the minimum is the
	// least-noise estimator for a deterministic workload.
	if _, err := prep.RunInstance(core.InstanceOptions{}); err != nil {
		return nil, err
	}
	if _, _, _, err := emit(&countWriter{}); err != nil {
		return nil, err
	}
	var baseRes, evRes *core.Result
	var baseWall, evWall float64
	var evStats evidence.Stats
	var evBytes uint64
	for r := 0; r < rounds; r++ {
		start := time.Now()
		res, err := prep.RunInstance(core.InstanceOptions{})
		wall := time.Since(start).Seconds()
		if err != nil {
			return nil, err
		}
		if baseRes == nil || wall < baseWall {
			baseRes, baseWall = res, wall
		}
		w := &countWriter{}
		res, wall, st, err := emit(w)
		if err != nil {
			return nil, err
		}
		if evRes == nil || wall < evWall {
			evRes, evWall, evStats = res, wall, st
		}
		evBytes = w.n
	}
	if baseRes.Violation != nil {
		return nil, fmt.Errorf("clean workload flagged: %v", baseRes.Violation)
	}

	// Stream determinism and offline verification: two untimed runs into
	// real buffers must emit byte-identical streams, and the stream must
	// replay clean against the run's own tables.
	stream := func() ([]byte, error) {
		var buf bytes.Buffer
		em := evidence.NewEmitter(&buf, evidence.Config{Binding: "bench"})
		if _, err := prep.RunInstance(core.InstanceOptions{Evidence: em}); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	s1, err := stream()
	if err != nil {
		return nil, err
	}
	s2, err := stream()
	if err != nil {
		return nil, err
	}
	sources := make(map[string]sigtable.Source, len(prep.Tables))
	for _, st := range prep.Tables {
		sources[st.Module] = st.Source()
	}
	vrep, verr := evidence.Verify(s1, evidence.VerifyConfig{Sources: sources})

	rep := &evReport{
		Generated:       time.Now().UTC().Format(time.RFC3339),
		Host:            hostInfo(),
		Workload:        p.Name,
		Instrs:          instrs,
		Scale:           scale,
		Rounds:          rounds,
		Blocks:          baseRes.Pipe.BBCount,
		DisabledSeconds: round3(baseWall),
		EvidenceSeconds: round3(evWall),
		ThresholdPct:    threshold,
		Identical:       identitySig(evRes) == identitySig(baseRes),
		StreamBytes:     evBytes,
		Deterministic:   bytes.Equal(s1, s2),
		Verified:        verr == nil && vrep.Outcome.Verdict == evidence.VerdictPass,
	}
	rep.EncodeSeconds = round3(evStats.EncodeSeconds)
	// On a single-CPU host the background encoder time-slices with the
	// simulation, so the wall delta carries its full busy time; subtract
	// the measured encoder seconds to isolate the commit path (the same
	// hardware-bound note BENCH_pipeline.json carries). With a spare CPU
	// the encoder overlaps and the wall delta is the hot-path cost.
	hot := evWall - baseWall
	if runtime.GOMAXPROCS(0) == 1 {
		hot -= evStats.EncodeSeconds
		rep.Note = "single-CPU host: background encoder serialized with the run; " +
			"overhead_pct includes its full busy time, hotpath_overhead_pct subtracts encode_seconds"
	}
	if baseWall > 0 {
		rep.OverheadPct = round3((evWall - baseWall) / baseWall * 100)
		rep.HotPathOverheadPct = round3(hot / baseWall * 100)
	}
	if rep.Blocks > 0 {
		rep.BytesPerBlock = round3(float64(evBytes) / float64(rep.Blocks))
	}
	if vrep != nil {
		rep.Records, rep.Segments = vrep.Records, vrep.Segments
	}
	rep.WithinThreshold = rep.HotPathOverheadPct <= threshold
	if !rep.Identical {
		return nil, fmt.Errorf("evidence-enabled result diverged from the baseline run")
	}
	if !rep.Deterministic {
		return nil, fmt.Errorf("evidence stream differs across identical runs")
	}
	if verr != nil {
		return nil, fmt.Errorf("emitted stream failed offline verification: %w", verr)
	}
	fmt.Printf("evidence   disabled %7.3fs  evidence %7.3fs (%+.2f%% total, %+.2f%% hot path, %.3fs encoder)  %d bytes (%.1f B/block)  identical %v  verified %v\n",
		baseWall, evWall, rep.OverheadPct, rep.HotPathOverheadPct, rep.EncodeSeconds,
		evBytes, rep.BytesPerBlock, rep.Identical, rep.Verified)
	return rep, nil
}
