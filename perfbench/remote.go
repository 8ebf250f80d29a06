package main

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"rev/internal/core"
	"rev/internal/fleet"
	"rev/internal/prefetch"
	"rev/internal/sigserve"
	"rev/internal/telemetry"
)

// Remote workload parameters: a gcc-shaped program at a fifth of its
// static size and 200k instructions, served by one in-process shard with
// a fixed 2 ms service delay, validated in lookup mode with a depth-16
// prefetcher.
var (
	remoteShape = shape{name: "gcc", scale: 0.2, instrs: 200_000}
	remoteDelay = 2 * time.Millisecond
	remoteDepth = 16
)

// validation is one fresh remote validator's outcome.
type validation struct {
	res      *core.Result
	pf       prefetch.Stats
	prepareS float64
	runS     float64
}

// remoteValidate runs one fresh validator: PrepareRemote in lookup mode
// with the prefetcher on, over the client, then one instance.
func remoteValidate(p *program, client *sigserve.Client, tr *tracer, parent, track int) (*validation, error) {
	rc := p.rc
	rc.Prefetch = prefetch.Config{Depth: remoteDepth}
	v := &validation{}
	t0 := time.Now()
	var rp *core.Prepared
	if err := tr.do("core.prepare_remote", parent, track, func() (err error) {
		rp, err = core.PrepareRemote(p.profile.Builder(), rc, client)
		return err
	}); err != nil {
		return nil, err
	}
	defer rp.Close()
	t1 := time.Now()
	v.prepareS = t1.Sub(t0).Seconds()
	if err := tr.do("core.run", parent, track, func() (err error) {
		v.res, err = rp.RunInstance(core.InstanceOptions{})
		return err
	}); err != nil {
		return nil, err
	}
	v.runS = time.Since(t1).Seconds()
	v.pf, _ = rp.PrefetchStats()
	return v, nil
}

// checkRemote requires a remote validator's result to equal the local
// prepared run of the same program, with no degraded lookups.
func checkRemote(res, local *core.Result) error {
	if res.SourceNotes != nil {
		return checkf("remote validator reported source notes %v", res.SourceNotes)
	}
	if d := diffResult(res, local); d != "" {
		return checkf("remote validator's result differs from the local prepared run in %s", d)
	}
	return nil
}

// remotePrograms is how many seeded programs one remote run validates,
// in turn: the median over a mix of programs depends less on one seed's
// program structure, which sets how many lookups go over the wire.
const remotePrograms = 4

// remoteProgram is one of the remote run's programs with its local
// reference result.
type remoteProgram struct {
	*program
	local *core.Result
}

// runRemote validates programs against an in-process signature server:
// each round starts nproc fresh validators at once and waits for all of
// them (a closed loop — every validator waits for its replies).
func runRemote(o options, r *run) error {
	srv := sigserve.NewServer()
	var reg *telemetry.Registry
	if r.tr != nil {
		reg = telemetry.NewRegistry()
		srv.Instrument(&telemetry.Set{Reg: reg})
	}
	srv.SetDelay(remoteDelay)
	root := r.tr.begin("setup.remote", 0, 0)
	var progs []*remoteProgram
	for k := 0; k < remotePrograms; k++ {
		p, err := seededProgram(remoteShape, o.seed*remotePrograms+int64(k))
		if err != nil {
			return err
		}
		// Distinct module names let one tenant serve every program.
		p.profile.Name = fmt.Sprintf("%s-%d", remoteShape.name, k)
		tables, err := buildTables(p.profile.Builder(), p.rc, r.tr, root)
		if err != nil {
			return err
		}
		_ = r.tr.do("sigserve.publish", root, 0, func() error {
			for _, t := range tables {
				srv.Publish("default", t.module, *t.meta, t.snap)
			}
			return nil
		})
		rp := &remoteProgram{program: p}
		if err := r.tr.do("core.prepare", root, 0, func() error {
			prep, err := core.Prepare(p.profile.Builder(), p.rc)
			if err != nil {
				return err
			}
			rp.local, err = prep.RunInstance(core.InstanceOptions{})
			return err
		}); err != nil {
			return fmt.Errorf("local reference: %w", err)
		}
		if err := checkClean(p.profile.Name, rp.local); err != nil {
			return err
		}
		progs = append(progs, rp)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	// Each of the nproc validator slots has its own client. A traced run
	// attaches the program's client metrics for the whole run.
	workers := runtime.NumCPU()
	var set *telemetry.Set
	if reg != nil {
		set = &telemetry.Set{Reg: reg}
	}
	clients := make([]*sigserve.Client, 0, workers)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for i := 0; i < workers; i++ {
		if err := r.tr.do("sigserve.connect", root, 0, func() error {
			c, err := sigserve.NewClient(sigserve.ClientConfig{Addr: ln.Addr().String(), LookupMode: true, Telemetry: set})
			if err != nil {
				return err
			}
			clients = append(clients, c)
			return c.Ping()
		}); err != nil {
			return err
		}
	}
	r.tr.end(root)

	jobs := make([]int, workers)
	var bps []float64
	var sum struct {
		prepare              float64
		issued, hits, late   float64
		misses, wasted, busy float64
		idle                 float64
		jobs                 float64
	}
	round := 0
	var before *telemetry.Snapshot
	var tracedDiff []*telemetry.Snapshot
	roundFn := func(tr *tracer) error {
		traced := tr != nil
		if traced {
			before = reg.Snapshot()
		}
		// Consecutive untraced and traced rounds validate the same
		// programs, so the tracing overhead compares like with like.
		for i := range jobs {
			jobs[i] = (round/2*workers + i) % len(progs)
		}
		round++
		rootID := tr.begin("round", 0, 0)
		t0 := time.Now()
		runner := fleet.Runner[int, *validation]{
			Workers: workers,
			Fn: func(worker, _ int, k int) (*validation, error) {
				return remoteValidate(progs[k].program, clients[worker], tr, rootID, worker+1)
			},
		}
		vs, rep, err := runner.Run(jobs)
		secs := time.Since(t0).Seconds()
		tr.end(rootID)
		r.attempted += len(jobs)
		if err != nil {
			// The fleet reports the lowest-index failure; count the round's
			// validators that returned nothing as failed.
			for _, v := range vs {
				if v == nil {
					r.failed++
				}
			}
		}
		for i, v := range vs {
			if v == nil {
				continue
			}
			if err := checkRemote(v.res, progs[jobs[i]].local); err != nil {
				return err
			}
			bps = append(bps, float64(v.res.Pipe.BBCount)/(v.prepareS+v.runS))
			if traced {
				sum.prepare += v.prepareS
				sum.issued += float64(v.pf.Issued)
				sum.hits += float64(v.pf.Hits)
				sum.late += float64(v.pf.Late)
				sum.misses += float64(v.pf.Misses)
				sum.wasted += float64(v.pf.Wasted)
			}
		}
		r.noteRound(traced, secs, len(jobs))
		if traced && rep != nil {
			tracedDiff = append(tracedDiff, reg.Snapshot().Diff(before))
			for _, w := range rep.PerWorker {
				sum.busy += w.WallSeconds
				sum.idle += w.IdleSeconds
			}
			sum.jobs += float64(rep.Jobs)
		}
		return nil
	}
	r.endSetup()
	if err := r.loop(roundFn); err != nil {
		return err
	}
	r.setE2E("blocks_per_s", "blocks/s", median(bps))
	if r.tr == nil {
		return nil
	}
	locals := make([]*core.Result, len(progs))
	for i, p := range progs {
		locals[i] = p.local
	}
	r.setCounts(locals, 1/float64(len(progs)))
	r.setLayer("core.run_s", "s", r.perOp(r.tr.total("core.run")))
	r.setLayer("core.prepare_remote_s", "s", r.perOp(sum.prepare))
	r.setLayer("fleet.busy_s", "s", r.perOp(sum.busy))
	r.setLayer("fleet.idle_s", "s", r.perOp(sum.idle))
	r.setLayer("fleet.jobs", "count", r.perOp(sum.jobs))
	r.setLayer("prefetch.issued", "count", r.perOp(sum.issued))
	r.setLayer("prefetch.hits", "count", r.perOp(sum.hits))
	r.setLayer("prefetch.late", "count", r.perOp(sum.late))
	r.setLayer("prefetch.misses", "count", r.perOp(sum.misses))
	r.setLayer("prefetch.wasted", "count", r.perOp(sum.wasted))
	useful := 0.0
	if sum.issued > 0 {
		useful = sum.hits / sum.issued
	}
	r.setLayer("prefetch.useful_ratio", "ratio", useful)
	r.setLayer("sigserve.blocking_lookups", "count", r.perOp(sum.late+sum.misses))
	r.setSigserveLayers(tracedDiff)
	r.setSetupLayers()
	return r.finishTrace("remote", map[string]any{"sigserve": tracedDiff})
}

// setSigserveLayers folds the traced rounds' registry deltas into the
// wire-path layer metrics. Percentiles come from the merged histograms
// and carry their sample counts.
func (r *run) setSigserveLayers(diffs []*telemetry.Snapshot) {
	counters := map[string]float64{}
	hists := map[string]*telemetry.HistSnapshot{}
	for _, d := range diffs {
		for name, v := range d.Counters {
			counters[name] += float64(v)
		}
		for name, h := range d.Histograms {
			acc := hists[name]
			if acc == nil {
				acc = &telemetry.HistSnapshot{Buckets: map[uint64]uint64{}}
				hists[name] = acc
			}
			acc.Count += h.Count
			acc.Sum += h.Sum
			for b, n := range h.Buckets {
				acc.Buckets[b] += n
			}
		}
	}
	for _, c := range []struct{ layer, counter string }{
		{"sigserve.client_batches", "sigserve_client_batches_total"},
		{"sigserve.coalesced", "sigserve_client_coalesced_total"},
		{"sigserve.server_requests", "sigserve_server_requests_total"},
		{"sigserve.bytes_in", "sigserve_server_bytes_in_total"},
		{"sigserve.bytes_out", "sigserve_server_bytes_out_total"},
	} {
		unit := "count"
		if c.layer == "sigserve.bytes_in" || c.layer == "sigserve.bytes_out" {
			unit = "B"
		}
		r.setLayer(c.layer, unit, r.perOp(counters[c.counter]))
	}
	for _, h := range []struct{ layer, hist string }{
		{"sigserve.rtt", "sigserve_client_rtt_ns"},
		{"sigserve.queue_wait", "sigserve_client_queue_wait_ns"},
	} {
		var p50, p99, n float64
		if acc := hists[h.hist]; acc != nil && acc.Count > 0 {
			p50, p99, n = acc.Quantile(0.5)/1e9, acc.Quantile(0.99)/1e9, float64(acc.Count)
		}
		r.setLayer(h.layer+"_p50_s", "s", p50)
		r.setLayer(h.layer+"_p99_s", "s", p99)
		r.setLayer(h.layer+"_samples", "count", n)
	}
}
