// Command revbench regenerates the paper's tables and figures.
//
// Usage:
//
//	revbench -exp all                 # everything (long)
//	revbench -exp fig7                # one experiment
//	revbench -exp fig6 -instrs 2e6    # longer runs
//	revbench -exp tablesize -scale 0.1
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
// perfbench/ (perfbench/README.md), and identity across configurations
// from go test. Beside the tables, revbench keeps two probes for gates
// nothing else holds, and one snapshot writer.
//
// With -scalingjson, revbench sweeps the pipelined executor across lanes
// {1, 2, 4} x GOMAXPROCS (powers of two up to NumCPU), measuring wall
// time, byte identity against the serial run, and steady-state
// allocations per run at every point, and writes the self-annotating
// scaling record (the committed BENCH_pipeline.json): the single_cpu and
// scaling_valid fields are machine-written from the recording host, so
// the artifact cannot claim an unproven speedup. Exits nonzero on
// identity divergence or when any point allocates at all (the run-arena
// contract).
//
// With -teljson, revbench probes hot-path overhead: one prepared
// REV-protected workload is timed in interleaved best-of-5 rounds with
// telemetry and evidence off, with the metrics registry, with metrics +
// tracing, and with an evidence stream attached, and the same workload
// in prefetching lookup mode without and with the metrics registry.
// Every configuration must give the identical result, and the evidence
// stream must be byte-identical across runs and verify offline. The
// record (the committed BENCH_telemetry.json) is written, and revbench
// exits nonzero naming each of the metrics, prefetch-metrics and
// evidence hot-path overheads that exceeds 2% — the CI
// telemetry-overhead gate.
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
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"time"

	"rev/internal/core"
	"rev/internal/evidence"
	"rev/internal/experiments"
	"rev/internal/prefetch"
	"rev/internal/sigserve"
	"rev/internal/sigtable"
	"rev/internal/stats"
	"rev/internal/telemetry"
	"rev/internal/workload"
)

// Probe settings every caller used, fixed rather than flags.
const (
	// telRounds is the number of interleaved timed rounds per -teljson
	// configuration (best-of).
	telRounds = 5
	// overheadGatePct is the most hot-path overhead, in percent, any
	// gated -teljson term may show.
	overheadGatePct = 2.0
	// scalingAllocs is the most steady-state allocations per run any
	// -scalingjson sweep point may make.
	scalingAllocs = 0
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

func main() {
	exp := flag.String("exp", "all", "experiment id (comma separated), or 'all'")
	instrs := flag.Uint64("instrs", 1_000_000, "committed instructions per benchmark run")
	scale := flag.Float64("scale", 1.0, "workload static-size scale (1.0 = paper-matched)")
	parallel := flag.Int("parallel", 0, "validation-fleet worker goroutines (0 = GOMAXPROCS)")
	attackInstrs := flag.Uint64("attackinstrs", 100_000, "instruction budget per attack scenario")
	scalingJSONPath := flag.String("scalingjson", "", "write the lanes x GOMAXPROCS scaling sweep (e.g. BENCH_pipeline.json); exits nonzero on identity divergence or any steady-state allocation")
	scalingRounds := flag.Int("scalingrounds", 3, "timed rounds per sweep point in the -scalingjson probe (best-of)")
	telJSONPath := flag.String("teljson", "", "write the hot-path overhead probe record (e.g. BENCH_telemetry.json); exits nonzero when a metrics, prefetch-metrics or evidence overhead exceeds 2%")
	metricsJSONPath := flag.String("metricsjson", "", "run one protected workload with metrics enabled and write the registry snapshot JSON")
	flag.Parse()

	if *telJSONPath != "" {
		rep, err := probeOverhead(*instrs, *scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "revbench: overhead probe: %v\n", err)
			os.Exit(1)
		}
		writeJSON(*telJSONPath, rep)
		if over := rep.exceeded(); len(over) > 0 {
			fmt.Fprintf(os.Stderr, "revbench: over the %.2f%% gate: %s\n",
				rep.ThresholdPct, strings.Join(over, ", "))
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

	if *scalingJSONPath != "" {
		rep, err := probeScaling(*instrs, *scale, *scalingRounds)
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

	suite := experiments.NewSuite(experiments.Config{
		MaxInstrs: *instrs,
		Scale:     *scale,
		Parallel:  *parallel,
	})
	table := func(t *stats.Table) func(*experiments.Suite) (*stats.Table, error) {
		return func(*experiments.Suite) (*stats.Table, error) { return t, nil }
	}
	all := []struct {
		id  string
		run func(s *experiments.Suite) (*stats.Table, error)
	}{
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
	ran := false
	for _, e := range all {
		if !want["all"] && !want[e.id] {
			continue
		}
		t, err := e.run(suite)
		if err != nil {
			fmt.Fprintf(os.Stderr, "revbench: %s: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Println(t.String())
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "revbench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}

// protectedBzip2 is the workload every probe runs: the bzip2 profile at
// the given static scale, validated by REV with normal-format tables for
// instrs committed instructions.
func protectedBzip2(instrs uint64, scale float64) (workload.Profile, core.RunConfig, error) {
	p, err := workload.ByName("bzip2")
	if err != nil {
		return workload.Profile{}, core.RunConfig{}, err
	}
	rc := core.DefaultRunConfig()
	rc.MaxInstrs = instrs
	cfg := core.DefaultConfig()
	cfg.Format = sigtable.Normal
	rc.REV = &cfg
	return p.Scaled(scale), rc, nil
}

// telReport is the BENCH_telemetry.json payload: best-of-rounds wall
// times for one REV-protected workload under each instrumentation the
// validation hot path carries. A written record means every
// configuration gave the same result and the evidence stream was
// deterministic and verified; the probe fails otherwise.
type telReport struct {
	Generated string   `json:"generated"`
	Host      hostMeta `json:"host"`
	Workload  string   `json:"workload"`
	Instrs    uint64   `json:"instrs"`
	Scale     float64  `json:"scale"`
	Rounds    int      `json:"rounds"`
	Blocks    uint64   `json:"blocks"`
	// DisabledSeconds is the baseline every local configuration is
	// measured against: no telemetry Set (each emission site one
	// predicted-not-taken nil check) and no evidence emitter.
	DisabledSeconds float64 `json:"disabled_seconds"`
	MetricsSeconds  float64 `json:"metrics_seconds"`
	TraceSeconds    float64 `json:"trace_seconds"`
	EvidenceSeconds float64 `json:"evidence_seconds"`
	// MetricsOverheadPct is (metrics - disabled) / disabled * 100, a gated
	// number; TraceOverheadPct is informational (tracing is a debug aid,
	// not an always-on path).
	MetricsOverheadPct float64 `json:"metrics_overhead_pct"`
	TraceOverheadPct   float64 `json:"trace_overhead_pct"`
	// EvidenceOverheadPct is the whole wall delta of attaching an
	// evidence emitter (its stream discarded, so disk is not measured).
	// EvidenceEncodeSeconds is the background encoder's busy time.
	// EvidenceHotPathOverheadPct, the gated number, subtracts it at
	// GOMAXPROCS 1, where the encoder can only time-slice with the run;
	// at GOMAXPROCS >= 2 it is the whole wall delta.
	EvidenceOverheadPct        float64 `json:"evidence_overhead_pct"`
	EvidenceEncodeSeconds      float64 `json:"evidence_encode_seconds"`
	EvidenceHotPathOverheadPct float64 `json:"evidence_hotpath_overhead_pct"`
	EvidenceBytesPerBlock      float64 `json:"evidence_bytes_per_block"`
	// PrefetchDisabledSeconds/PrefetchMetricsSeconds time the same
	// workload in remote lookup mode (zero-delay loopback, prefetch depth
	// 4) without and with the metrics registry — the prefetch counters
	// are held to the same overhead budget as the engine's.
	PrefetchDisabledSeconds float64 `json:"prefetch_disabled_seconds"`
	PrefetchMetricsSeconds  float64 `json:"prefetch_metrics_seconds"`
	PrefetchOverheadPct     float64 `json:"prefetch_overhead_pct"`
	ThresholdPct            float64 `json:"threshold_pct"`
	WithinThreshold         bool    `json:"within_threshold"`
	// Identical reports that every configuration produced the same full
	// result record (instrumentation must never alter simulated results).
	Identical              bool    `json:"identical"`
	DisabledAllocsPerBlock float64 `json:"disabled_allocs_per_block"`
	MetricsAllocsPerBlock  float64 `json:"metrics_allocs_per_block"`
	// Note flags hardware bounds on the measurement.
	Note string `json:"note,omitempty"`
}

// exceeded names each gated term above the threshold, with its overhead.
func (r *telReport) exceeded() []string {
	var over []string
	for _, term := range []struct {
		name string
		pct  float64
	}{
		{"metrics-enabled overhead", r.MetricsOverheadPct},
		{"prefetch metrics overhead", r.PrefetchOverheadPct},
		{"evidence hot-path overhead", r.EvidenceHotPathOverheadPct},
	} {
		if term.pct > r.ThresholdPct {
			over = append(over, fmt.Sprintf("%s %.2f%%", term.name, term.pct))
		}
	}
	return over
}

// probeConfig is one timed configuration of the overhead probe, and the
// best of its rounds.
type probeConfig struct {
	name string
	prep *core.Prepared
	// opts gives each round's options. Telemetry Sets and evidence
	// emitters are built fresh per round, so trace rings and registries
	// never accumulate across rounds — except the prefetch pair's Set,
	// which the prefetcher is wired to at prepare time, so every round
	// reuses it (see the PrepareRemote loop).
	opts    func() core.InstanceOptions
	res     *core.Result
	wall    float64
	mallocs uint64
	evStats evidence.Stats // the best round's emitter stats, if any
}

// probeOverhead times one prepared workload with telemetry and evidence
// disabled, with metrics, with metrics + trace, and with an evidence
// emitter, plus a metrics-off/on pair in prefetching lookup mode, all in
// one interleaved best-of-rounds loop. It checks that every
// configuration gives the same result, that the evidence stream is
// deterministic and verifies offline, and computes the gated overheads.
func probeOverhead(instrs uint64, scale float64) (*telReport, error) {
	p, rc, err := protectedBzip2(instrs, scale)
	if err != nil {
		return nil, err
	}
	prep, err := core.Prepare(p.Builder(), rc)
	if err != nil {
		return nil, err
	}

	// The prefetch pair runs in remote lookup mode over a zero-delay
	// loopback server at prefetch depth 4. Each side has its own prepared
	// instance, since the prefetcher is wired to the Set at prepare time.
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
	var pf [2]*core.Prepared
	pfSets := [2]*telemetry.Set{nil, {Reg: telemetry.NewRegistry()}}
	for i := range pf {
		client, err := sigserve.NewClient(sigserve.ClientConfig{Addr: ln.Addr().String(), LookupMode: true})
		if err != nil {
			return nil, err
		}
		defer client.Close()
		rcp := rc
		rcp.Prefetch = prefetch.Config{Depth: 4}
		rcp.Telemetry = pfSets[i]
		if pf[i], err = core.PrepareRemote(p.Builder(), rcp, client); err != nil {
			return nil, err
		}
		defer pf[i].Close()
	}

	plain := func() core.InstanceOptions { return core.InstanceOptions{} }
	disabled := &probeConfig{name: "disabled", prep: prep, opts: plain}
	metrics := &probeConfig{name: "metrics", prep: prep, opts: func() core.InstanceOptions {
		return core.InstanceOptions{Telemetry: &telemetry.Set{Reg: telemetry.NewRegistry()}}
	}}
	trace := &probeConfig{name: "metrics+trace", prep: prep, opts: func() core.InstanceOptions {
		return core.InstanceOptions{Telemetry: &telemetry.Set{
			Reg: telemetry.NewRegistry(), Trace: telemetry.NewRecorder(0)}}
	}}
	evid := &probeConfig{name: "evidence", prep: prep, opts: func() core.InstanceOptions {
		return core.InstanceOptions{Evidence: evidence.NewEmitter(io.Discard, evidence.Config{Binding: "bench"})}
	}}
	pfOff := &probeConfig{name: "prefetch", prep: pf[0], opts: plain}
	pfOn := &probeConfig{name: "prefetch+metrics", prep: pf[1], opts: func() core.InstanceOptions {
		return core.InstanceOptions{Telemetry: pfSets[1]}
	}}
	cfgs := []*probeConfig{disabled, metrics, trace, evid, pfOff, pfOn}

	// Round -1 warms every configuration up. The timed rounds interleave
	// the configurations and keep each one's minimum wall: interleaving
	// spreads thermal and scheduler drift evenly, and the minimum is the
	// least-noise estimator for a deterministic workload.
	for r := -1; r < telRounds; r++ {
		for _, c := range cfgs {
			o := c.opts()
			res, wall, mallocs, err := timedRun(c.prep, o)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
			if r >= 0 && (c.res == nil || wall < c.wall) {
				c.res, c.wall, c.mallocs = res, wall, mallocs
				if o.Evidence != nil {
					c.evStats = o.Evidence.Stats()
				}
			}
		}
	}
	if disabled.res.Violation != nil {
		return nil, fmt.Errorf("clean workload flagged: %v", disabled.res.Violation)
	}
	sig := identitySig(disabled.res)
	for _, c := range cfgs {
		if identitySig(c.res) != sig {
			return nil, fmt.Errorf("%s result diverged from the disabled run", c.name)
		}
	}

	// Stream determinism and offline verification: two untimed runs into
	// real buffers must emit byte-identical streams, and the stream must
	// replay clean against the run's own tables.
	var streams [2]bytes.Buffer
	for i := range streams {
		em := evidence.NewEmitter(&streams[i], evidence.Config{Binding: "bench"})
		if _, err := prep.RunInstance(core.InstanceOptions{Evidence: em}); err != nil {
			return nil, err
		}
	}
	if !bytes.Equal(streams[0].Bytes(), streams[1].Bytes()) {
		return nil, fmt.Errorf("evidence stream differs across identical runs")
	}
	sources := make(map[string]sigtable.Source, len(prep.Tables))
	for _, st := range prep.Tables {
		sources[st.Module] = st.Source()
	}
	vrep, err := evidence.Verify(streams[0].Bytes(), evidence.VerifyConfig{Sources: sources})
	if err != nil {
		return nil, fmt.Errorf("emitted stream failed offline verification: %w", err)
	}
	if vrep.Outcome.Verdict != evidence.VerdictPass {
		return nil, fmt.Errorf("emitted stream verified with verdict %v, want pass", vrep.Outcome.Verdict)
	}

	blocks := disabled.res.Pipe.BBCount
	pct := func(on, off float64) float64 { return round3((on - off) / off * 100) }
	rep := &telReport{
		Generated:                  time.Now().UTC().Format(time.RFC3339),
		Host:                       hostInfo(),
		Workload:                   p.Name,
		Instrs:                     instrs,
		Scale:                      scale,
		Rounds:                     telRounds,
		Blocks:                     blocks,
		DisabledSeconds:            round3(disabled.wall),
		MetricsSeconds:             round3(metrics.wall),
		TraceSeconds:               round3(trace.wall),
		EvidenceSeconds:            round3(evid.wall),
		MetricsOverheadPct:         pct(metrics.wall, disabled.wall),
		TraceOverheadPct:           pct(trace.wall, disabled.wall),
		EvidenceOverheadPct:        pct(evid.wall, disabled.wall),
		EvidenceEncodeSeconds:      round3(evid.evStats.EncodeSeconds),
		EvidenceHotPathOverheadPct: pct(evid.wall, disabled.wall),
		EvidenceBytesPerBlock:      round3(float64(evid.evStats.Bytes) / float64(blocks)),
		PrefetchDisabledSeconds:    round3(pfOff.wall),
		PrefetchMetricsSeconds:     round3(pfOn.wall),
		PrefetchOverheadPct:        pct(pfOn.wall, pfOff.wall),
		ThresholdPct:               overheadGatePct,
		Identical:                  true,
		DisabledAllocsPerBlock:     round3(float64(disabled.mallocs) / float64(blocks)),
		MetricsAllocsPerBlock:      round3(float64(metrics.mallocs) / float64(blocks)),
	}
	// On a single-CPU host the background encoder time-slices with the
	// simulation, so the wall delta carries its full busy time; subtract
	// it to isolate the commit path. With a spare CPU the encoder could
	// overlap, so the whole wall delta is charged to the hot path.
	if runtime.GOMAXPROCS(0) == 1 {
		rep.EvidenceHotPathOverheadPct = pct(evid.wall-evid.evStats.EncodeSeconds, disabled.wall)
		rep.Note = "single-CPU host: background evidence encoder serialized with the run; " +
			"evidence_overhead_pct includes its full busy time, evidence_hotpath_overhead_pct subtracts evidence_encode_seconds"
	}
	rep.WithinThreshold = len(rep.exceeded()) == 0
	fmt.Printf("overhead  disabled %7.3fs  metrics %7.3fs (%+.2f%%)  metrics+trace %7.3fs (%+.2f%%)  evidence %7.3fs (%+.2f%% hot path, %.3fs encoder)  prefetch %7.3fs vs %7.3fs (%+.2f%%)\n",
		disabled.wall, metrics.wall, rep.MetricsOverheadPct, trace.wall, rep.TraceOverheadPct,
		evid.wall, rep.EvidenceHotPathOverheadPct, rep.EvidenceEncodeSeconds,
		pfOff.wall, pfOn.wall, rep.PrefetchOverheadPct)
	return rep, nil
}

// dumpMetricsJSON runs one REV-protected workload with the metrics
// registry attached (auto lanes, so the pipeline/lane metrics populate on
// multi-CPU hosts) and writes the registry snapshot as JSON.
func dumpMetricsJSON(path string, instrs uint64, scale float64) error {
	p, rc, err := protectedBzip2(instrs, scale)
	if err != nil {
		return err
	}
	rc.Lanes = -1
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

// timedRun executes one prepared instance, bracketed by GC + MemStats
// reads, returning the result, wall seconds, and heap allocation count.
func timedRun(prep *core.Prepared, o core.InstanceOptions) (*core.Result, float64, uint64, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := prep.RunInstance(o)
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

func round3(f float64) float64 {
	return float64(int64(f*1000+0.5)) / 1000
}
