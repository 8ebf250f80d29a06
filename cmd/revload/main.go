// Command revload is the attestation-plane load harness: it drives N
// concurrent simulated tenants against a revserved endpoint (or a
// self-hosted in-process server), measures per-message-type latency
// with HDR-style histograms, sweeps offered load open-loop, and writes
// the machine-readable BENCH_load.json record the roadmap calls for.
//
// Usage:
//
//	revload -json BENCH_load.json                 # self-hosted smoke
//	revload -tenants 8 -workers 4 -duration 5s    # heavier closed loop
//	revload -addr 127.0.0.1:7415 -tenant default  # external revserved
//	revload -rates 1000,4000,16000                # offered-load sweep
//	revload -delay 1ms                            # injected service delay
//	revload -shards 2 -replicas 2                 # sharded in-process plane
//	revload -shards 2 -drain-one                  # graceful-failover drill
//	revload -shards 2 -admit-rate 5000            # admission-control curve
//
// Two loop disciplines run in sequence (docs/OBSERVABILITY.md "revload"):
//
//   - Closed loop: every worker issues its next request as soon as the
//     previous one answers — one phase per message type (lookup, batch,
//     snapshot, evidence upload), yielding per-type service latency and
//     saturation throughput.
//   - Open loop: lookups are dispatched on a fixed schedule at each
//     offered rate, and latency is measured from the *intended* start
//     time, so queueing delay under overload is charged to the server
//     (coordinated-omission-aware), tracing out the throughput-vs-
//     offered-load curve. Each rate point also reports the send lag
//     (how late the generator enqueued each request against its
//     intended time), which bounds how much of that latency is the
//     generator's own sleep overshoot.
//
// Every remote lookup verdict is compared against a locally held copy
// of the same snapshot — the harness is also an end-to-end byte-identity
// check under concurrency. revload exits nonzero on any protocol error,
// any identity mismatch, or an empty latency record, so CI can run it
// as a load smoke test with no output parsing.
//
// With -shards N the self-hosted server becomes an in-process sharded
// control plane: N servers share one consistent-hash ring, each tenant
// client is handed its replica set in preference order, and every
// invariant above still holds — verdicts and snapshots must stay
// byte-identical at every shard and replica count. -drain-one
// gracefully drains one shard mid-run to exercise replica failover
// (the run must stay clean), and -admit-rate arms per-shard admission
// control so the open-loop sweep traces the offered-vs-achieved curve
// under backpressure: CodeOverloaded rejections are counted per sweep
// point as "rejected", never as errors (docs/DEPLOYMENT.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"rev/internal/chash"
	"rev/internal/core"
	"rev/internal/sigserve"
	"rev/internal/sigtable"
	"rev/internal/telemetry"
	"rev/internal/workload"
)

// hostMeta pins the recording host, matching revbench's records.
type hostMeta struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
}

func hostInfo() hostMeta {
	return hostMeta{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
}

// loadConfig echoes the knobs a record was produced under.
type loadConfig struct {
	Addr      string  `json:"addr"` // "self-hosted" or the external endpoint
	Bench     string  `json:"bench"`
	Scale     float64 `json:"scale"`
	Instrs    uint64  `json:"instrs"`
	Tenants   int     `json:"tenants"`
	Workers   int     `json:"workers_per_tenant"`
	DurationS float64 `json:"phase_seconds"`
	DelayNS   int64   `json:"server_delay_ns"`
	Seed      int64   `json:"seed"`
}

// phaseStats is one closed-loop phase's record.
type phaseStats struct {
	Type       string     `json:"type"`
	Ops        uint64     `json:"ops"`
	Errors     uint64     `json:"errors"`
	Rejected   uint64     `json:"rejected,omitempty"`
	Degraded   uint64     `json:"degraded"`
	Checked    uint64     `json:"checked"`
	Mismatches uint64     `json:"mismatches"`
	Seconds    float64    `json:"wall_seconds"`
	Throughput float64    `json:"ops_per_sec"`
	Latency    latSummary `json:"latency"`
}

// ratePoint is one open-loop sweep point. Rejected counts requests the
// plane refused with CodeOverloaded (admission control): backpressure
// is part of the measured curve, not a failure.
type ratePoint struct {
	OfferedOpsSec  float64    `json:"offered_ops_per_sec"`
	AchievedOpsSec float64    `json:"achieved_ops_per_sec"`
	Ops            uint64     `json:"ops"`
	Errors         uint64     `json:"errors"`
	Rejected       uint64     `json:"rejected,omitempty"`
	Latency        latSummary `json:"latency"` // from intended start time
	// SendLag is how late the generator enqueued each request: enqueue
	// time minus intended time. Latency includes it; a lag near the
	// sleep granularity (~1 ms on common kernels) means requests left in
	// bursts rather than on schedule.
	SendLag latSummary `json:"send_lag"`
}

// shardedMeta records the sharded plane a run was measured against.
type shardedMeta struct {
	Shards        int    `json:"shards"`
	Replicas      int    `json:"replicas"`
	VNodes        int    `json:"vnodes"`
	RingEpoch     uint64 `json:"ring_epoch"`
	AdmitRate     int    `json:"admit_rate,omitempty"`
	DrainedShard  string `json:"drained_shard,omitempty"`
	RejectedTotal uint64 `json:"rejected_total"`
}

// loadRecord is the BENCH_load.json shape.
type loadRecord struct {
	Schema     string            `json:"schema"`
	Host       hostMeta          `json:"host"`
	Config     loadConfig        `json:"config"`
	Negotiated uint8             `json:"negotiated_version"`
	Sharded    *shardedMeta      `json:"sharded,omitempty"`
	ClosedLoop []phaseStats      `json:"closed_loop"`
	RateSweep  []ratePoint       `json:"rate_sweep,omitempty"`
	Server     map[string]uint64 `json:"server_metrics,omitempty"` // self-hosted only
}

// tenantCtx is one simulated tenant: its own client, lookup-mode source,
// and a locally held reference snapshot every remote verdict is checked
// against.
type tenantCtx struct {
	name    string
	c       *sigserve.Client
	src     *sigserve.RemoteSource
	module  string
	ref     *sigtable.Snapshot
	refWire []byte
}

func main() {
	addr := flag.String("addr", "", "external revserved endpoint (empty = self-hosted in-process server)")
	tenantFlag := flag.String("tenant", "default", "tenant namespace to use in external mode (self-hosted mode publishes load-<i> per tenant)")
	bench := flag.String("bench", "bzip2", "workload whose tables the self-hosted server builds and serves")
	scale := flag.Float64("scale", 0.03, "workload static-size scale for the self-hosted build")
	instrs := flag.Uint64("instrs", 50_000, "profiling instruction budget for the self-hosted build")
	tenants := flag.Int("tenants", 4, "concurrent simulated tenants")
	workers := flag.Int("workers", 2, "closed-loop worker goroutines per tenant")
	duration := flag.Duration("duration", 2*time.Second, "wall time per phase")
	rates := flag.String("rates", "", "comma-separated offered lookup rates (ops/sec) for the open-loop sweep (empty = skip)")
	delay := flag.Duration("delay", 0, "injected per-request service delay on the self-hosted server; a sleep, so values under ~1ms act as ~1.1ms on common Linux hosts")
	seed := flag.Int64("seed", 1, "query-stream seed (same seed = same query sequence)")
	jsonPath := flag.String("json", "", "write the load record (e.g. BENCH_load.json)")
	shards := flag.Int("shards", 0, "self-hosted sharded plane: number of shard servers on one ring (0 = single unsharded server)")
	replicasFlag := flag.Int("replicas", 0, "replica-set size per tenant namespace in sharded mode (0 = ring default)")
	drainOne := flag.Bool("drain-one", false, "gracefully drain the last shard mid-run (sharded mode, needs replicas >= 2): failover must keep the run clean")
	admitRate := flag.Int("admit-rate", 0, "arm per-shard admission control at this sustained rate (requests/sec, 0 = off)")
	flag.Parse()

	cfg := loadConfig{
		Addr: *addr, Bench: *bench, Scale: *scale, Instrs: *instrs,
		Tenants: *tenants, Workers: *workers, DurationS: duration.Seconds(),
		DelayNS: int64(*delay), Seed: *seed,
	}
	if cfg.Addr == "" {
		cfg.Addr = "self-hosted"
	}

	// ---- server (self-hosted mode) -----------------------------------
	var (
		serverRegs []*telemetry.Registry
		srvs       []*sigserve.Server
		endpoint   = *addr
		names      []string
		addrsFor   func(name string) []string // sharded mode: replica set per tenant
		shardMeta  *shardedMeta
	)
	if *addr == "" {
		p, err := workload.ByName(*bench)
		if err != nil {
			fatal(err)
		}
		rc := core.DefaultRunConfig()
		rc.MaxInstrs = *instrs
		ccfg := core.DefaultConfig()
		ccfg.Format = sigtable.Normal
		rc.REV = &ccfg
		start := time.Now()
		prep, err := core.Prepare(p.Scaled(*scale).Builder(), rc)
		if err != nil {
			fatal(err)
		}
		for i := 0; i < *tenants; i++ {
			names = append(names, fmt.Sprintf("load-%d", i))
		}
		if *shards > 0 {
			// Sharded plane: N servers on one ring, each publishing only
			// the tenants the bounded-load placement assigns to it.
			lns := make([]net.Listener, *shards)
			nodes := make([]sigserve.RingNode, *shards)
			for i := range lns {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					fatal(err)
				}
				lns[i] = ln
				nodes[i] = sigserve.RingNode{ID: fmt.Sprintf("shard-%d", i), Addr: ln.Addr().String()}
			}
			ring, err := sigserve.NewRing(nodes, sigserve.RingConfig{Replicas: *replicasFlag, Epoch: 1})
			if err != nil {
				fatal(err)
			}
			for i := range lns {
				srv := sigserve.NewServer()
				reg := telemetry.NewRegistry()
				srv.Instrument(&telemetry.Set{Reg: reg})
				srv.SetDelay(*delay)
				srv.SetAdmission(*admitRate, 0)
				if err := srv.SetRing(ring, nodes[i].ID, names); err != nil {
					fatal(err)
				}
				for _, name := range names {
					if !srv.Owns(name) {
						continue
					}
					for _, st := range prep.Tables {
						srv.Publish(name, st.Module, *st.Table, st.Snap)
					}
				}
				go srv.Serve(lns[i])
				srvs = append(srvs, srv)
				serverRegs = append(serverRegs, reg)
			}
			addrsFor = func(name string) []string {
				var out []string
				for _, n := range ring.Replicas(name) {
					out = append(out, n.Addr)
				}
				return out
			}
			rcfg := ring.Config()
			shardMeta = &shardedMeta{
				Shards: *shards, Replicas: rcfg.Replicas, VNodes: rcfg.VNodes,
				RingEpoch: ring.Epoch(), AdmitRate: *admitRate,
			}
			fmt.Fprintf(os.Stderr, "revload: self-hosted %s on %d shards x %d replicas (%d tenants, build %.2fs)\n",
				*bench, *shards, rcfg.Replicas, *tenants, time.Since(start).Seconds())
			if *drainOne {
				drain := srvs[len(srvs)-1]
				shardMeta.DrainedShard = nodes[len(nodes)-1].ID
				go func() {
					time.Sleep(*duration / 2)
					fmt.Fprintf(os.Stderr, "revload: draining shard %s mid-run\n", shardMeta.DrainedShard)
					drain.Shutdown(5 * time.Second)
				}()
			}
		} else {
			srv := sigserve.NewServer()
			reg := telemetry.NewRegistry()
			srv.Instrument(&telemetry.Set{Reg: reg})
			srv.SetDelay(*delay)
			srv.SetAdmission(*admitRate, 0)
			for _, name := range names {
				for _, st := range prep.Tables {
					srv.Publish(name, st.Module, *st.Table, st.Snap)
				}
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				fatal(err)
			}
			go srv.Serve(ln)
			srvs = append(srvs, srv)
			serverRegs = append(serverRegs, reg)
			endpoint = ln.Addr().String()
			fmt.Fprintf(os.Stderr, "revload: self-hosted %s on %s (%d tenants, build %.2fs)\n",
				*bench, endpoint, *tenants, time.Since(start).Seconds())
		}
		defer func() {
			for _, s := range srvs {
				s.Close()
			}
		}()
	} else {
		for i := 0; i < *tenants; i++ {
			names = append(names, *tenantFlag)
		}
	}

	// ---- tenant clients ----------------------------------------------
	tcs := make([]*tenantCtx, *tenants)
	for i, name := range names {
		clcfg := sigserve.ClientConfig{Tenant: name, LookupMode: true}
		if addrsFor != nil {
			clcfg.Addrs = addrsFor(name)
		} else {
			clcfg.Addr = endpoint
		}
		c, err := sigserve.NewClient(clcfg)
		if err != nil {
			fatal(err)
		}
		defer c.Close()
		mods, err := c.Modules()
		if err != nil {
			fatal(fmt.Errorf("tenant %s: %w", name, err))
		}
		if len(mods) == 0 {
			fatal(fmt.Errorf("tenant %s serves no modules", name))
		}
		module := mods[0].Table.Module
		ref, _, _, err := c.FetchSnapshot(module)
		if err != nil {
			fatal(err)
		}
		src, err := c.Source(module)
		if err != nil {
			fatal(err)
		}
		tcs[i] = &tenantCtx{
			name: name, c: c, src: src, module: module,
			ref: ref, refWire: ref.AppendWire(nil),
		}
	}
	rec := loadRecord{
		Schema: "rev-load/v1", Host: hostInfo(), Config: cfg,
		Negotiated: tcs[0].c.NegotiatedVersion(),
	}

	// ---- closed-loop phases ------------------------------------------
	nw := *tenants * *workers
	rec.ClosedLoop = append(rec.ClosedLoop,
		closedLoop("lookup", nw, *duration, func(w int, rng *rand.Rand, h *hdrHist) outcome {
			tc := tcs[w%len(tcs)]
			end, sig := nextQuery(rng)
			t0 := time.Now()
			e, touched, err := tc.src.LookupAll(end, sig)
			h.observe(time.Since(t0))
			return verifyLookup(tc.ref, end, sig, e, touched, err)
		}),
		closedLoop("lookup_batch", nw, *duration, func(w int, rng *rand.Rand, h *hdrHist) outcome {
			tc := tcs[w%len(tcs)]
			reqs := make([]sigtable.BatchReq, 16)
			for i := range reqs {
				end, sig := nextQuery(rng)
				reqs[i] = sigtable.BatchReq{End: end, Sig: sig}
			}
			t0 := time.Now()
			res := tc.src.LookupBatch(reqs)
			h.observe(time.Since(t0))
			var out outcome
			for i, r := range res {
				if r.Err != nil && !sigtable.IsMiss(r.Err) {
					if isOverloaded(r.Err) {
						out.rejected++
					} else {
						out.errs++
					}
					continue
				}
				o := verifyLookup(tc.ref, reqs[i].End, reqs[i].Sig, r.Entry, r.Touched, r.Err)
				out.checked += o.checked
				out.mismatches += o.mismatches
			}
			return out
		}),
		closedLoop("snapshot", nw, *duration, func(w int, rng *rand.Rand, h *hdrHist) outcome {
			tc := tcs[w%len(tcs)]
			t0 := time.Now()
			snap, _, _, err := tc.c.FetchSnapshot(tc.module)
			h.observe(time.Since(t0))
			if err != nil {
				if isOverloaded(err) {
					return outcome{rejected: 1}
				}
				return outcome{errs: 1}
			}
			out := outcome{checked: 1}
			if !wireEqual(snap.AppendWire(nil), tc.refWire) {
				out.mismatches = 1
			}
			return out
		}),
		closedLoop("evidence_put", nw, *duration, func(w int, rng *rand.Rand, h *hdrHist) outcome {
			tc := tcs[w%len(tcs)]
			stream := make([]byte, 1024)
			rng.Read(stream)
			name := fmt.Sprintf("load-%d-%d", w, rng.Intn(8))
			t0 := time.Now()
			_, err := tc.c.UploadEvidence(name, stream)
			h.observe(time.Since(t0))
			if err != nil {
				if isOverloaded(err) {
					return outcome{rejected: 1}
				}
				return outcome{errs: 1}
			}
			return outcome{}
		}),
	)
	for i := range rec.ClosedLoop {
		rec.ClosedLoop[i].Degraded = degradedDelta(tcs, i == 0)
	}

	// ---- open-loop rate sweep ----------------------------------------
	if *rates != "" {
		for _, part := range strings.Split(*rates, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil || r <= 0 {
				fatal(fmt.Errorf("bad -rates entry %q", part))
			}
			before := rejectedTotal(serverRegs)
			pt := openLoop(tcs, nw, r, *duration, *seed)
			pt.Rejected = rejectedTotal(serverRegs) - before
			rec.RateSweep = append(rec.RateSweep, pt)
		}
	}

	// ---- server-side accounting (self-hosted) ------------------------
	if len(serverRegs) > 0 {
		totals := map[string]uint64{}
		var rows float64
		for _, reg := range serverRegs {
			snap := reg.Snapshot()
			totals["requests_total"] += snap.Counters["sigserve_server_requests_total"]
			totals["errors_total"] += snap.Counters["sigserve_server_errors_total"]
			totals["admission_rejected_total"] += snap.Counters["sigserve_server_admission_rejected_total"]
			rows += snap.Gauges["sigserve_server_tenant_rows"]
		}
		totals["tenant_rows"] = uint64(rows)
		rec.Server = totals
	}
	if shardMeta != nil {
		shardMeta.RejectedTotal = rejectedTotal(serverRegs)
		rec.Sharded = shardMeta
	}

	// ---- report + self-gate ------------------------------------------
	for _, p := range rec.ClosedLoop {
		fmt.Fprintf(os.Stderr, "revload: %-12s %8d ops %10.0f ops/s  p50 %s p99 %s  errs %d rej %d mism %d\n",
			p.Type, p.Ops, p.Throughput, time.Duration(p.Latency.P50), time.Duration(p.Latency.P99),
			p.Errors, p.Rejected, p.Mismatches)
	}
	for _, r := range rec.RateSweep {
		fmt.Fprintf(os.Stderr, "revload: offered %8.0f/s achieved %8.0f/s  p50 %s p99 %s  send lag p50 %s p99 %s max %s  errs %d rej %d\n",
			r.OfferedOpsSec, r.AchievedOpsSec, time.Duration(r.Latency.P50), time.Duration(r.Latency.P99),
			time.Duration(r.SendLag.P50), time.Duration(r.SendLag.P99), time.Duration(r.SendLag.Max),
			r.Errors, r.Rejected)
	}
	if *jsonPath != "" {
		buf, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fatal(err)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "revload: wrote %s\n", *jsonPath)
	}
	bad := false
	for _, p := range rec.ClosedLoop {
		if p.Errors > 0 || p.Mismatches > 0 {
			fmt.Fprintf(os.Stderr, "revload: FAIL %s: %d errors, %d mismatches\n", p.Type, p.Errors, p.Mismatches)
			bad = true
		}
		if p.Ops == 0 || p.Latency.P99 == 0 {
			fmt.Fprintf(os.Stderr, "revload: FAIL %s: empty latency record (ops %d, p99 %d)\n", p.Type, p.Ops, p.Latency.P99)
			bad = true
		}
	}
	for _, r := range rec.RateSweep {
		if r.Errors > 0 {
			fmt.Fprintf(os.Stderr, "revload: FAIL sweep @%.0f/s: %d errors\n", r.OfferedOpsSec, r.Errors)
			bad = true
		}
	}
	if bad {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "revload:", err)
	os.Exit(1)
}

// rejectedTotal sums admission-control rejections across the
// self-hosted shard registries (0 in external mode).
func rejectedTotal(regs []*telemetry.Registry) uint64 {
	var n uint64
	for _, reg := range regs {
		n += reg.Snapshot().Counters["sigserve_server_admission_rejected_total"]
	}
	return n
}

// nextQuery draws one deterministic pseudo-random query. The stream is
// miss-heavy on purpose: misses still walk the table spill chain (the
// honest worst case) and verify byte-identically like hits do.
func nextQuery(rng *rand.Rand) (uint64, chash.Sig) {
	end := 0x400000 + uint64(rng.Int63n(1<<20))&^7
	sig := chash.Sig(rng.Uint64())
	return end, sig
}

// outcome is one operation's verification tally.
type outcome struct {
	errs       uint64
	rejected   uint64
	checked    uint64
	mismatches uint64
}

// isOverloaded reports whether an error is the plane's admission
// control saying "later" (CodeOverloaded) — measured backpressure, not
// a failure.
func isOverloaded(err error) bool {
	var se *sigserve.ServerError
	return errors.As(err, &se) && se.Code == sigserve.CodeOverloaded
}

// verifyLookup replays the query against the local reference snapshot
// and compares verdicts field by field.
func verifyLookup(ref *sigtable.Snapshot, end uint64, sig chash.Sig, e sigtable.Entry, touched []uint64, err error) outcome {
	if err != nil && !sigtable.IsMiss(err) {
		return outcome{errs: 1}
	}
	le, lt, lerr := ref.LookupAll(end, sig)
	out := outcome{checked: 1}
	if (err == nil) != (lerr == nil) ||
		!u64Equal(touched, lt) ||
		(err == nil && !entryEqual(e, le)) {
		out.mismatches = 1
	}
	return out
}

func entryEqual(a, b sigtable.Entry) bool {
	return a.End == b.End && a.Hash == b.Hash && a.Term == b.Term &&
		u64Equal(a.Targets, b.Targets) && u64Equal(a.RetPreds, b.RetPreds)
}

func u64Equal(a, b []uint64) bool {
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

func wireEqual(a, b []byte) bool {
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

// degradedDelta sums the clients' degraded-lookup state; only sampled
// once (after the lookup phase) since RemoteSource latches degradation.
func degradedDelta(tcs []*tenantCtx, sample bool) uint64 {
	if !sample {
		return 0
	}
	var n uint64
	for _, tc := range tcs {
		if _, ok := tc.src.HealthNote(); ok {
			n++
		}
	}
	return n
}

// closedLoop runs one phase: nw workers each looping op back to back for
// dur, merging per-worker histograms and tallies at the end.
func closedLoop(name string, nw int, dur time.Duration, op func(w int, rng *rand.Rand, h *hdrHist) outcome) phaseStats {
	hists := make([]hdrHist, nw)
	outs := make([]outcome, nw)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
			for time.Now().Before(deadline) {
				o := op(w, rng, &hists[w])
				outs[w].errs += o.errs
				outs[w].rejected += o.rejected
				outs[w].checked += o.checked
				outs[w].mismatches += o.mismatches
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	var h hdrHist
	var total outcome
	for w := 0; w < nw; w++ {
		h.merge(&hists[w])
		total.errs += outs[w].errs
		total.rejected += outs[w].rejected
		total.checked += outs[w].checked
		total.mismatches += outs[w].mismatches
	}
	return phaseStats{
		Type: name, Ops: h.count, Errors: total.errs, Rejected: total.rejected,
		Checked: total.checked, Mismatches: total.mismatches,
		Seconds: wall, Throughput: float64(h.count) / wall,
		Latency: h.summary(),
	}
}

// openLoop dispatches lookups on a fixed schedule at rate ops/sec for
// dur, measuring each operation's latency from its *intended* start
// time: when the server (or the queue in front of it) falls behind, the
// wait is charged to the measurement instead of silently stretching the
// schedule (the coordinated-omission correction). It also records how
// late the generator itself enqueued each request (the send lag), so a
// record shows how much of that latency the schedule's own sleep
// overshoot contributed.
func openLoop(tcs []*tenantCtx, nw int, rate float64, dur time.Duration, seed int64) ratePoint {
	interval := time.Duration(float64(time.Second) / rate)
	capacity := int(rate*dur.Seconds()) + nw + 1
	queue := make(chan time.Time, capacity)
	hists := make([]hdrHist, nw)
	errs := make([]uint64, nw)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed ^ int64(w+1)<<17))
			tc := tcs[w%len(tcs)]
			for intended := range queue {
				end, sig := nextQuery(rng)
				_, _, err := tc.src.LookupAll(end, sig)
				hists[w].observe(time.Since(intended))
				if err != nil && !sigtable.IsMiss(err) {
					errs[w]++
				}
			}
		}(w)
	}
	var lag hdrHist
	start := time.Now()
	next := start
	for next.Sub(start) < dur {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		lag.observe(time.Since(next))
		queue <- next
		next = next.Add(interval)
	}
	close(queue)
	wg.Wait()
	wall := time.Since(start).Seconds()
	var h hdrHist
	var e uint64
	for w := 0; w < nw; w++ {
		h.merge(&hists[w])
		e += errs[w]
	}
	return ratePoint{
		OfferedOpsSec:  rate,
		AchievedOpsSec: float64(h.count) / wall,
		Ops:            h.count,
		Errors:         e,
		Latency:        h.summary(),
		SendLag:        lag.summary(),
	}
}
