// Command revsim runs SPEC-like workloads on the simulated core, with or
// without REV, and prints run reports.
//
// Usage:
//
//	revsim -list
//	revsim -bench gcc
//	revsim -bench gobmk -rev -sc 32
//	revsim -bench mcf -rev -format cfi-only -instrs 2000000
//	revsim -bench gcc,gobmk,mcf -rev -parallel 4   # fleet: one engine per run
//	revsim -bench all -rev                         # every benchmark
//	revsim -bench bzip2 -rev -tenants 8            # multi-tenant: 8 engines,
//	                                               # one shared signature table
//	revsim -bench gcc -rev -lanes 4                # pipelined validation: 4
//	                                               # async CHG hash lanes
//
// -lanes N overlaps signature hashing with simulation inside one run:
// committed basic blocks are handed to N asynchronous CHG hash lanes over a
// lock-free ring, and validation verdicts are retired in program order so
// cycle counts and attack verdicts are byte-identical to -lanes 0 (serial).
// The default, -lanes -1, auto-sizes to the host (0 on a single-CPU box,
// where extra lanes can only time-slice).
//
// Multiple benchmarks (comma separated, or "all") are sharded across the
// validation fleet: each run owns its engine, pipeline and memory; reports
// print in the order the benchmarks were named regardless of completion
// order.
//
// -tenants N models the serving scenario: the trusted loader prepares one
// workload (profiling, CFG, encrypted signature table) exactly once, then
// N tenant instances validate concurrently against the same immutable
// decrypted table snapshot — the multiprogram story scaled out. Per-engine
// statistics are merged into a fleet total.
//
// Evidence (docs/EVIDENCE.md): -evidence streams hash-chained
// attestation evidence off the commit path while the run validates —
// aggregated path hashes over every committed basic block, sealed with
// the run verdict — and writes it to a file an offline verifier
// (revattest) can replay against independently rebuilt tables:
//
//	revsim -bench gcc -rev -evidence gcc.ev   # record a run
//	revattest gcc.ev                          # attest it offline
//
// -evidence-upload NAME instead retains the stream on the -sigserver
// endpoint (revattest -fetch NAME pulls it back). Evidence never alters
// simulated results: verdicts and cycle counts are byte-identical with
// and without it, and the stream itself is byte-identical at any -lanes
// or -parallel setting.
//
// Telemetry (docs/OBSERVABILITY.md; never alters simulated results):
//
//	revsim -bench gcc -rev -lanes 4 -trace out.json   # Chrome trace of the
//	                                                  # pipeline stages; open
//	                                                  # in chrome://tracing or
//	                                                  # ui.perfetto.dev
//	revsim -bench all -rev -metrics                   # Prometheus text dump of
//	                                                  # the metrics registry
//	revsim -bench gcc -rev -debug-addr :6060          # live /metrics, expvar,
//	                                                  # and pprof while running
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"

	"rev/internal/core"
	"rev/internal/evidence"
	"rev/internal/fleet"
	"rev/internal/prefetch"
	"rev/internal/sigserve"
	"rev/internal/sigtable"
	"rev/internal/telemetry"
	"rev/internal/workload"
)

func main() {
	bench := flag.String("bench", "", "benchmark name(s), comma separated, or 'all' (see -list)")
	list := flag.Bool("list", false, "list available benchmarks")
	rev := flag.Bool("rev", false, "attach the REV validator")
	scKB := flag.Int("sc", 32, "signature cache size in KB")
	format := flag.String("format", "normal", "validation format: normal, aggressive, cfi-only")
	instrs := flag.Uint64("instrs", 1_000_000, "committed instructions to simulate")
	scale := flag.Float64("scale", 1.0, "workload static-size scale")
	parallel := flag.Int("parallel", 0, "validation-fleet worker goroutines (0 = GOMAXPROCS)")
	lanes := flag.Int("lanes", -1, "async CHG hash lanes per run: -1 auto-size to the host, 0 serial, N explicit")
	tenants := flag.Int("tenants", 1, "concurrent tenant instances sharing one signature table (requires -rev, one benchmark)")
	sigServer := flag.String("sigserver", "", "fetch signature tables from a revserved endpoint (host:port) instead of building them locally (requires -rev; see docs/PROTOCOL.md)")
	sigTenant := flag.String("sigtenant", "default", "tenant namespace on the -sigserver endpoint")
	sigLookups := flag.Bool("siglookups", false, "validate via per-entry remote lookups (batched/coalesced) instead of one snapshot fetch at start; requires -sigserver")
	prefetchDepth := flag.Int("prefetch", 0, "CFG-driven signature prefetch depth for -siglookups runs (0 disables; results are byte-identical at any depth, see docs/ARCHITECTURE.md)")
	evidenceOut := flag.String("evidence", "", "stream hash-chained attestation evidence to this file (requires -rev, one benchmark; replay with revattest, see docs/EVIDENCE.md)")
	evidenceUpload := flag.String("evidence-upload", "", "retain the evidence stream under this name on the -sigserver endpoint instead of (or as well as) -evidence's file")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON of the run(s) to this file (open in chrome://tracing or ui.perfetto.dev)")
	metrics := flag.Bool("metrics", false, "print the telemetry metrics registry (Prometheus text format) after the reports")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /metrics.json, /debug/vars and /debug/pprof on this address (e.g. :6060) while running")
	flag.Parse()

	if *list {
		for _, p := range workload.Profiles() {
			fmt.Printf("%-12s paper: %6d BBs, %5.2f instr/BB, %5.3f succ/BB\n",
				p.Name, p.PaperBBs, p.PaperInstrBB, p.PaperSucc)
		}
		return
	}
	if *bench == "" {
		flag.Usage()
		os.Exit(2)
	}

	var names []string
	if *bench == "all" {
		for _, p := range workload.Profiles() {
			names = append(names, p.Name)
		}
	} else {
		for _, n := range strings.Split(*bench, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	}

	// Telemetry sinks are process-global: one registry (metric cells shared
	// across runs = the fleet-merge semantics) and one trace recorder (each
	// run labels its tracks). Nil when every telemetry flag is off.
	set := telemetrySinks(*metrics || *debugAddr != "", *traceOut != "")
	if *debugAddr != "" {
		bound, _, err := telemetry.Serve(*debugAddr, set.Registry())
		if err != nil {
			fmt.Fprintln(os.Stderr, "revsim:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "revsim: debug endpoint on http://%s/metrics (also /metrics.json, /debug/vars, /debug/pprof/)\n", bound)
	}

	rc := core.DefaultRunConfig()
	rc.MaxInstrs = *instrs
	rc.Lanes = *lanes
	if *rev {
		cfg := core.DefaultConfig()
		cfg.SC.SizeKB = *scKB
		switch *format {
		case "normal":
			cfg.Format = sigtable.Normal
		case "aggressive":
			cfg.Format = sigtable.Aggressive
		case "cfi-only":
			cfg.Format = sigtable.CFIOnly
		default:
			fmt.Fprintf(os.Stderr, "revsim: unknown format %q\n", *format)
			os.Exit(2)
		}
		rc.REV = &cfg
	}

	// A -sigserver endpoint replaces the local trusted-loader table build:
	// one resilient client is shared by every run in the fleet.
	var sigClient *sigserve.Client
	if *sigServer != "" {
		if !*rev {
			fmt.Fprintln(os.Stderr, "revsim: -sigserver requires -rev")
			os.Exit(2)
		}
		var err error
		sigClient, err = sigserve.NewClient(sigserve.ClientConfig{
			Addr:       *sigServer,
			Tenant:     *sigTenant,
			LookupMode: *sigLookups,
			Telemetry:  set,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "revsim:", err)
			os.Exit(1)
		}
		if err := sigClient.Ping(); err != nil {
			fmt.Fprintf(os.Stderr, "revsim: signature server %s unreachable: %v\n", *sigServer, err)
			os.Exit(1)
		}
		defer sigClient.Close()
	}
	if *prefetchDepth > 0 {
		if sigClient == nil || !*sigLookups {
			fmt.Fprintln(os.Stderr, "revsim: -prefetch requires -sigserver with -siglookups")
			os.Exit(2)
		}
		rc.Prefetch = prefetch.Config{Depth: *prefetchDepth}
	}

	// Evidence records one run's committed-block history; fleet and
	// multi-tenant invocations would need one emitter per instance, so
	// it is gated to a single benchmark run. The emitter writes into a
	// buffer (the background encoder must never block on disk) and the
	// sealed stream lands after the run.
	var evidenceBuf *bytes.Buffer
	if *evidenceOut != "" || *evidenceUpload != "" {
		if !*rev || len(names) != 1 || *tenants > 1 {
			fmt.Fprintln(os.Stderr, "revsim: -evidence requires -rev, exactly one benchmark, and -tenants 1")
			os.Exit(2)
		}
		if *evidenceUpload != "" && sigClient == nil {
			fmt.Fprintln(os.Stderr, "revsim: -evidence-upload requires -sigserver")
			os.Exit(2)
		}
		evidenceBuf = &bytes.Buffer{}
		rc.Evidence = evidence.NewEmitter(evidenceBuf, evidence.Config{
			Tenant: *sigTenant,
			Binding: fmt.Sprintf("bench=%s scale=%g instrs=%d format=%s",
				names[0], *scale, *instrs, *format),
			Telemetry: set,
		})
	}

	if *tenants > 1 {
		if !*rev || len(names) != 1 {
			fmt.Fprintln(os.Stderr, "revsim: -tenants requires -rev and exactly one benchmark")
			os.Exit(2)
		}
		if err := runTenants(names[0], rc, *scale, *tenants, *parallel, set, sigClient); err != nil {
			fmt.Fprintln(os.Stderr, "revsim:", err)
			os.Exit(1)
		}
		flushTelemetry(set, *traceOut, *metrics)
		return
	}

	type job struct {
		p   workload.Profile
		res *core.Result
	}
	jobs := make([]job, len(names))
	for i, n := range names {
		p, err := workload.ByName(n)
		if err != nil {
			fmt.Fprintln(os.Stderr, "revsim:", err)
			os.Exit(1)
		}
		jobs[i].p = p.Scaled(*scale)
	}
	// Shard the runs across the fleet; each job builds a private program,
	// pipeline and (when -rev) engine. Reports print in input order.
	err := fleet.Each(*parallel, len(jobs), func(i int) error {
		rcj := rc
		// Per-run track label ("gcc/lane0", "gcc/validate"); metric cells
		// stay shared, which is exactly the fleet-merged registry view.
		rcj.Telemetry = set.WithLabel(jobs[i].p.Name)
		var res *core.Result
		var err error
		if sigClient != nil {
			var prep *core.Prepared
			prep, err = core.PrepareRemote(jobs[i].p.Builder(), rcj, sigClient)
			if err == nil {
				res, err = prep.RunInstance(core.InstanceOptions{
					Lanes: rcj.Lanes, Telemetry: rcj.Telemetry, Evidence: rcj.Evidence,
				})
			}
		} else {
			res, err = core.Run(jobs[i].p.Builder(), rcj)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", jobs[i].p.Name, err)
		}
		jobs[i].res = res
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "revsim:", err)
		os.Exit(1)
	}
	for i, j := range jobs {
		if i > 0 {
			fmt.Println()
		}
		printReport(j.p, *scale, j.res, *rev, resolvedLanes(*lanes))
	}
	if evidenceBuf != nil {
		if err := writeEvidence(evidenceBuf.Bytes(), *evidenceOut, *evidenceUpload, sigClient); err != nil {
			fmt.Fprintln(os.Stderr, "revsim:", err)
			os.Exit(1)
		}
	}
	flushTelemetry(set, *traceOut, *metrics)
}

// writeEvidence lands the sealed evidence stream after the run: to
// -evidence's file, and/or retained on the signature server under
// -evidence-upload's name (revattest -fetch pulls it back).
func writeEvidence(stream []byte, out, upload string, sigClient *sigserve.Client) error {
	if out != "" {
		if err := os.WriteFile(out, stream, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "revsim: wrote %d bytes of evidence to %s (verify: revattest %s)\n",
			len(stream), out, out)
	}
	if upload != "" {
		ack, err := sigClient.UploadEvidence(upload, stream)
		if err != nil {
			return fmt.Errorf("uploading evidence %q: %w", upload, err)
		}
		fmt.Fprintf(os.Stderr, "revsim: retained evidence %q on the signature server (%d bytes, %d older streams evicted)\n",
			upload, ack.Bytes, ack.Evicted)
	}
	return nil
}

// telemetrySinks builds the process-wide telemetry Set from the flags;
// nil when everything is off (the zero-cost disabled path).
func telemetrySinks(wantMetrics, wantTrace bool) *telemetry.Set {
	set := &telemetry.Set{}
	if wantMetrics {
		set.Reg = telemetry.NewRegistry()
	}
	if wantTrace {
		set.Trace = telemetry.NewRecorder(0)
	}
	if !set.Enabled() {
		return nil
	}
	return set
}

// flushTelemetry exports the sinks after every run has quiesced: the
// Chrome trace to -trace's file, the metrics registry (Prometheus text)
// to stdout under -metrics.
func flushTelemetry(set *telemetry.Set, traceOut string, metrics bool) {
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "revsim:", err)
			os.Exit(1)
		}
		if err := set.Recorder().WriteChromeTrace(f); err != nil {
			fmt.Fprintln(os.Stderr, "revsim: writing trace:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "revsim:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "revsim: wrote trace to %s (open in chrome://tracing or ui.perfetto.dev)\n", traceOut)
	}
	if metrics {
		fmt.Println()
		if err := set.Registry().Snapshot().WritePrometheus(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "revsim:", err)
			os.Exit(1)
		}
	}
}

// resolvedLanes mirrors the core's lane resolution for reporting: negative
// requests auto-size to the host (core.AutoLanes), zero stays serial.
func resolvedLanes(n int) int {
	if n < 0 {
		return core.AutoLanes()
	}
	return n
}

// runTenants prepares the workload once and validates n concurrent tenant
// instances against the shared immutable table snapshot.
func runTenants(name string, rc core.RunConfig, scale float64, n, workers int, set *telemetry.Set, sigClient *sigserve.Client) error {
	p, err := workload.ByName(name)
	if err != nil {
		return err
	}
	p = p.Scaled(scale)
	var prep *core.Prepared
	if sigClient != nil {
		prep, err = core.PrepareRemote(p.Builder(), rc, sigClient)
	} else {
		prep, err = core.Prepare(p.Builder(), rc)
	}
	if err != nil {
		return err
	}
	runner := fleet.Runner[int, *core.Result]{
		Workers: workers,
		Fn: func(_, idx int, _ int) (*core.Result, error) {
			// Each tenant gets its own track label; metric cells are shared,
			// so the registry snapshot is the merged fleet view.
			return prep.RunInstance(core.InstanceOptions{
				Lanes:     rc.Lanes,
				Telemetry: set.WithLabel(fmt.Sprintf("%s.t%d", p.Name, idx)),
			})
		},
		Blocks: func(r *core.Result) uint64 { return r.Pipe.BBCount },
		Trace:  set.Recorder(),
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	results, rep, err := runner.Run(ids)
	if err != nil {
		return err
	}

	// Merge per-tenant engine and SC counters into the fleet view.
	var eng core.Stats
	var sc core.SCView
	var instrsTotal uint64
	for _, r := range results {
		eng.Merge(r.Engine)
		sc.Merge(r.SC)
		instrsTotal += r.Pipe.Instrs
		if r.Violation != nil {
			return fmt.Errorf("tenant flagged clean workload: %v", r.Violation)
		}
	}
	fmt.Printf("benchmark        %s (scale %.2f), %d tenants over 1 shared table\n", p.Name, scale, n)
	for _, st := range prep.Tables {
		fmt.Printf("shared table     %s: %d buckets, %d records, %d bytes (decrypted snapshot, immutable)\n",
			st.Module, st.Table.Buckets, st.Table.Records, st.Table.Size)
	}
	fmt.Printf("instructions     %d total (%d per tenant)\n", instrsTotal, results[0].Pipe.Instrs)
	fmt.Printf("validated blocks %d total\n", eng.ValidatedBlocks)
	fmt.Printf("SC (merged)      %d probes: %d hits, %d partial, %d complete misses (%.2f%% miss)\n",
		sc.Probes, sc.Hits, sc.PartialMisses, sc.CompleteMisses, 100*sc.MissRate)
	fmt.Printf("memo (merged)    %d hits, %d misses\n", eng.MemoHits, eng.MemoMisses)
	fmt.Printf("fleet            %d workers, %.3fs wall, %.0f blocks/sec aggregate\n",
		rep.Workers, rep.WallSeconds, rep.BlocksPerSec)
	for _, wm := range rep.PerWorker {
		fmt.Printf("  worker %-2d      %d runs, %.3fs busy, %.0f blocks/sec\n",
			wm.Worker, wm.Jobs, wm.WallSeconds, wm.BlocksPerSec)
	}
	noted := map[string]bool{}
	for _, r := range results {
		for _, note := range r.SourceNotes {
			if noted[note.Module] {
				continue
			}
			noted[note.Module] = true
			stale := "fresh at fetch time"
			if note.Stale {
				stale = "KNOWN STALE"
			}
			fmt.Printf("SOURCE NOTE      %s: degraded to cached snapshot epoch %d, %s: %s\n",
				note.Module, note.Epoch, stale, note.Detail)
		}
	}
	return nil
}

func printReport(p workload.Profile, scale float64, res *core.Result, rev bool, lanes int) {
	fmt.Printf("benchmark        %s (scale %.2f)\n", p.Name, scale)
	fmt.Printf("instructions     %d\n", res.Pipe.Instrs)
	fmt.Printf("cycles           %d\n", res.Pipe.Cycles)
	fmt.Printf("IPC              %.4f\n", res.IPC())
	fmt.Printf("branches         %d committed, %d unique, %d mispredicted\n",
		res.Pipe.CommittedBranches, res.UniqueBranches, res.Pipe.Mispredicts)
	fmt.Printf("L1D              %d accesses, %.2f%% miss\n", res.L1D.TotalAccesses(), 100*res.L1D.MissRate())
	fmt.Printf("L1I              %d accesses, %.2f%% miss\n", res.L1I.TotalAccesses(), 100*res.L1I.MissRate())
	fmt.Printf("L2               %d accesses, %.2f%% miss\n", res.L2.TotalAccesses(), 100*res.L2.MissRate())
	if rev {
		if lanes > 0 {
			fmt.Printf("hash lanes       %d (pipelined validation; verdicts byte-identical to serial)\n", lanes)
		} else {
			fmt.Printf("hash lanes       0 (serial in-loop validation)\n")
		}
		fmt.Printf("validated blocks %d\n", res.Engine.ValidatedBlocks)
		fmt.Printf("SC               %d probes: %d hits, %d partial, %d complete misses (%.2f%% miss)\n",
			res.SC.Probes, res.SC.Hits, res.SC.PartialMisses, res.SC.CompleteMisses, 100*res.SC.MissRate)
		fmt.Printf("validation stall %d cycles\n", res.Pipe.ValidationStallCycles)
		for _, tbl := range res.Tables {
			fmt.Printf("sig table        %s: %d buckets, %d records, %d bytes (%.1f%% of executable)\n",
				tbl.Module, tbl.Buckets, tbl.Records, tbl.Size, 100*tbl.SizeRatio())
		}
		if res.Violation != nil {
			fmt.Printf("VIOLATION        %v\n", res.Violation)
		}
		// Degraded remote sources annotate the run: the verdicts above are
		// real table content served from the client's cached snapshot, but
		// the attestation authority was unreachable for part of the run.
		for _, note := range res.SourceNotes {
			stale := "fresh at fetch time"
			if note.Stale {
				stale = "KNOWN STALE (server has a newer table generation)"
			}
			fmt.Printf("SOURCE NOTE      %s: degraded to cached snapshot epoch %d, %s: %s\n",
				note.Module, note.Epoch, stale, note.Detail)
		}
	}
}
