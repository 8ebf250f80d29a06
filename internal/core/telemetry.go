// Telemetry wiring for the run paths: one runTelemetry per measured run
// resolves every metric handle and trace name ID at setup time, so the
// instrumented hot paths (SC miss walks, lane jobs, epoch fences, ring
// publishes) cost a nil check when telemetry is off and an atomic add or
// a fixed-size ring write when it is on — never an allocation.
//
// Metric names are registry-global (concurrent runs add into the same
// cells — the fleet/tenant merge that used to be hand-written Stats
// loops); trace track names are prefixed with the run's Set.Label so
// several runs can share one recorder.
//
// docs/OBSERVABILITY.md is the metric and trace-event catalog.
package core

import (
	"rev/internal/branch"
	"rev/internal/cpu"
	"rev/internal/mem"
	"rev/internal/sigcache"
	"rev/internal/sigtable"
	"rev/internal/telemetry"
)

// runTelemetry bundles one run's pre-resolved telemetry handles. A nil
// *runTelemetry disables everything (every call site checks once).
type runTelemetry struct {
	set *telemetry.Set

	// Registry handles (nil when metrics are disabled; all nil-safe).
	violations   *telemetry.Counter
	epochFences  *telemetry.Counter
	ctxSwitches  *telemetry.Counter
	walkRecords  *telemetry.Histogram // records touched per SC miss walk
	walkCycles   *telemetry.Histogram // simulated miss-service cycles
	ringDepth    *telemetry.Histogram // SPSC occupancy sampled at publish
	publishBatch *telemetry.Histogram // records made visible per publish
	laneJobs     *telemetry.ShardedCounter
	laneHashed   *telemetry.ShardedCounter
	laneMemoHits *telemetry.ShardedCounter

	// Trace tracks. validate is written by whichever goroutine runs the
	// engine (the serial loop's caller, or the pipelined consumer);
	// producer only exists in pipelined mode.
	validate *telemetry.Track
	producer *telemetry.Track

	// Interned trace names.
	nPartialMiss  telemetry.NameID
	nCompleteMiss telemetry.NameID
	nEdgeMiss     telemetry.NameID
	nRecords      telemetry.NameID
	nViolation    telemetry.NameID
	nReason       telemetry.NameID
	nEpochFence   telemetry.NameID
	nRingDepth    telemetry.NameID
	nLaneWait     telemetry.NameID
	nCtxSwitch    telemetry.NameID
	nThread       telemetry.NameID

	lanes *laneTelemetry
}

// newRunTelemetry resolves the handles for one run. Returns nil when the
// set is absent or empty (the disabled fast path).
func newRunTelemetry(set *telemetry.Set) *runTelemetry {
	if !set.Enabled() {
		return nil
	}
	reg := set.Registry()
	rec := set.Recorder()
	t := &runTelemetry{
		set:           set,
		violations:    reg.Counter("rev.engine.violations", "validation failures raised"),
		epochFences:   reg.Counter("rev.pipeline.epoch_fences", "SMC epoch fences drained by the producer"),
		ctxSwitches:   reg.Counter("rev.threads.switches", "context switches serviced at validated block boundaries"),
		walkRecords:   reg.Histogram("rev.sc.walk_records", "signature-table records touched per SC miss walk"),
		walkCycles:    reg.Histogram("rev.sc.miss_service_cycles", "simulated cycles to service one SC miss"),
		ringDepth:     reg.Histogram("rev.pipeline.ring_depth", "SPSC ring occupancy sampled at each publish"),
		publishBatch:  reg.Histogram("rev.pipeline.publish_batch", "committed-block records made visible per batched publish"),
		validate:      rec.Track(set.TrackName("validate")),
		nPartialMiss:  rec.Name("sc-partial-miss"),
		nCompleteMiss: rec.Name("sc-complete-miss"),
		nEdgeMiss:     rec.Name("sc-edge-miss"),
		nRecords:      rec.Name("records"),
		nViolation:    rec.Name("violation"),
		nReason:       rec.Name("reason"),
		nEpochFence:   rec.Name("epoch-fence"),
		nRingDepth:    rec.Name("ring-depth"),
		nLaneWait:     rec.Name("lane-wait"),
		nCtxSwitch:    rec.Name("context-switch"),
		nThread:       rec.Name("thread"),
	}
	return t
}

// initPipeline adds the pipelined executor's handles: the producer track
// and one lane track + sharded counter cell per hash lane. Called once
// per pipelined run, before the lanes start.
func (t *runTelemetry) initPipeline(lanes int) {
	if t == nil {
		return
	}
	reg := t.set.Registry()
	rec := t.set.Recorder()
	t.producer = rec.Track(t.set.TrackName("producer"))
	t.laneJobs = reg.Sharded("rev.lane.jobs", "jobs consumed per hash lane", lanes)
	t.laneHashed = reg.Sharded("rev.lane.hashed", "signatures computed per hash lane", lanes)
	t.laneMemoHits = reg.Sharded("rev.lane.memo_hits", "sharded-memo hits per hash lane", lanes)
	lt := &laneTelemetry{
		nJob:    rec.Name("hash-block"),
		nHashed: rec.Name("hashed"),
	}
	for i := 0; i < lanes; i++ {
		lt.tracks = append(lt.tracks, rec.Track(t.set.TrackName(laneTrackName(i))))
		lt.jobs = append(lt.jobs, t.laneJobs.Cell(i))
		lt.hashed = append(lt.hashed, t.laneHashed.Cell(i))
		lt.memoHits = append(lt.memoHits, t.laneMemoHits.Cell(i))
	}
	t.lanes = lt
}

// laneTrackName avoids fmt on the setup path merely for symmetry; it is
// called once per lane per run.
func laneTrackName(i int) string {
	const digits = "0123456789"
	if i < 10 {
		return "lane" + digits[i:i+1]
	}
	return "lane" + digits[i/10:i/10+1] + digits[i%10:i%10+1]
}

// missWalkBegin opens the SC miss-service span (engine hot path).
func (t *runTelemetry) missWalkBegin(partial bool) {
	name := t.nCompleteMiss
	if partial {
		name = t.nPartialMiss
	}
	t.validate.Begin(name)
}

// missWalkEnd closes the span and records the walk shape.
func (t *runTelemetry) missWalkEnd(records int, serviceCycles uint64) {
	t.validate.EndArg(t.nRecords, uint64(records))
	t.walkRecords.Observe(uint64(records))
	t.walkCycles.Observe(serviceCycles)
}

// edgeWalkBegin opens the CFI-only edge-walk span.
func (t *runTelemetry) edgeWalkBegin() { t.validate.Begin(t.nEdgeMiss) }

// violationEvent marks a raised violation.
func (t *runTelemetry) violationEvent(reason ViolationReason) {
	t.violations.Inc()
	t.validate.InstantArg(t.nViolation, t.nReason, uint64(reason))
}

// publishSample records the SPSC occupancy and the batch size right after
// a batched publish (producer goroutine; the two depth loads are the
// ring's own atomics). Sampled once per flush, not per record, so the
// telemetry cost amortizes with the batch.
func (t *runTelemetry) publishSample(depth uint64, batch int) {
	t.ringDepth.Observe(depth)
	t.publishBatch.Observe(uint64(batch))
	t.producer.Count(t.nRingDepth, depth)
}

// epochFenceBegin/End bracket the producer's drain on a code-version
// change (producer goroutine).
func (t *runTelemetry) epochFenceBegin() { t.producer.Begin(t.nEpochFence) }
func (t *runTelemetry) epochFenceEnd(epoch uint64) {
	t.epochFences.Inc()
	t.producer.EndArg(t.nRecords, epoch)
}

// laneWaitBegin/End bracket the consumer stalling on a lane's done flag.
func (t *runTelemetry) laneWaitBegin()         { t.validate.Begin(t.nLaneWait) }
func (t *runTelemetry) laneWaitEnd(lane int32) { t.validate.EndArg(t.nRecords, uint64(lane)) }

// contextSwitch marks a thread switch (RunThreads).
func (t *runTelemetry) contextSwitch(next int) {
	t.ctxSwitches.Inc()
	t.validate.InstantArg(t.nCtxSwitch, t.nThread, uint64(next))
}

// laneTelemetry implements chash.LaneObserver: per-lane trace tracks and
// sharded counter cells, all lane-confined single-writer state (JobBegin
// and JobEnd are invoked from the lane's own goroutine).
type laneTelemetry struct {
	tracks   []*telemetry.Track
	jobs     []*telemetry.Counter
	hashed   []*telemetry.Counter
	memoHits []*telemetry.Counter
	nJob     telemetry.NameID
	nHashed  telemetry.NameID
}

// JobBegin opens the hash-block span on the lane's trace track.
func (lt *laneTelemetry) JobBegin(lane int) {
	lt.tracks[lane].Begin(lt.nJob)
}

// JobEnd closes the lane's hash-block span and bumps the per-lane
// job/hashed/memo-hit counters.
func (lt *laneTelemetry) JobEnd(lane int, hashed, memoHit bool) {
	var h uint64
	if hashed {
		h = 1
	}
	lt.tracks[lane].EndArg(lt.nHashed, h)
	lt.jobs[lane].Inc()
	if hashed {
		lt.hashed[lane].Inc()
	}
	if memoHit {
		lt.memoHits[lane].Inc()
	}
}

// runFigures is a by-value copy of one finished run's figure structs:
// what its registry view publishes.
type runFigures struct {
	pipe   cpu.PipeStats
	branch branch.Stats
	hier   mem.HierarchyStats
	// Protected runs only.
	protected bool
	engine    Stats
	sc        sigcache.Stats
	tables    []*sigtable.Table
}

// registerRunViews registers one snapshot-time view publishing a finished
// run's figures — pipeline, branch, memory hierarchy, and (when
// protected) engine, SC, and table layout — into the registry. The
// structs stay the figure source of truth; the view reads copies taken
// here, at run end, never the structs themselves, which a run arena
// resets and refills for its next instance. Several runs' views
// reporting the same names are summed by the registry (the merge
// plumbing that replaced per-field aggregation loops in the fleet and
// tenant paths), so N instances report exactly N times one instance's
// figures.
func registerRunViews(p *parts, set *telemetry.Set) {
	reg := set.Registry()
	if reg == nil {
		return
	}
	f := &runFigures{pipe: p.pipe.Stats, branch: p.pred.Stats, hier: p.hier.Stats()}
	if e := p.engine; e != nil {
		f.protected = true
		f.engine, f.sc, f.tables = e.Stats, e.SC.Stats, e.Tables
	}
	reg.RegisterView(f.emit)
}

// emit is the view body (telemetry.View).
func (f *runFigures) emit(o telemetry.Observer) {
	ps := &f.pipe
	o.ObserveCounter("cpu.instrs", ps.Instrs)
	o.ObserveCounter("cpu.cycles", ps.Cycles)
	o.ObserveCounter("cpu.blocks", ps.BBCount)
	o.ObserveCounter("cpu.branches", ps.CommittedBranches)
	o.ObserveCounter("cpu.mispredicts", ps.Mispredicts)
	o.ObserveCounter("cpu.validation_stall_cycles", ps.ValidationStallCycles)
	o.ObserveCounter("cpu.interrupts", ps.Interrupts)
	o.ObserveCounter("cpu.interrupt_defer_cycles", ps.InterruptDeferCycles)
	bs := &f.branch
	o.ObserveCounter("branch.cond_predicts", bs.CondPredicts)
	o.ObserveCounter("branch.cond_mispredicts", bs.CondMispredicts)
	o.ObserveCounter("branch.target_predicts", bs.TargetPredicts)
	o.ObserveCounter("branch.target_mispredicts", bs.TargetMispredicts)
	o.ObserveCounter("branch.ras_predicts", bs.RASPredicts)
	o.ObserveCounter("branch.ras_mispredicts", bs.RASMispredicts)
	f.hier.EmitTelemetry(o, "mem")
	if f.protected {
		es := &f.engine
		o.ObserveCounter("rev.engine.validated_blocks", es.ValidatedBlocks)
		o.ObserveCounter("rev.engine.skipped_disabled", es.SkippedDisabled)
		o.ObserveCounter("rev.engine.ram_lookups", es.RAMLookups)
		o.ObserveCounter("rev.engine.records_touched", es.RecordsTouched)
		o.ObserveCounter("rev.engine.sag_penalties", es.SAGPenalties)
		o.ObserveCounter("rev.engine.memo_hits", es.MemoHits)
		o.ObserveCounter("rev.engine.memo_misses", es.MemoMisses)
		f.sc.EmitTelemetry(o, "rev.sc")
		for _, tbl := range f.tables {
			tbl.EmitTelemetry(o, "rev.sigtable")
		}
	}
}
