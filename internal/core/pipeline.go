// Intra-run pipelined validation: overlap the functional machine, CHG
// hashing, and the cycle-level timing model of ONE simulated execution
// across goroutines, the way the paper overlaps the H=16-cycle CHG with
// the S=16 fetch→commit stages so validation hides under the pipeline.
//
// Topology (docs/ARCHITECTURE.md has the diagram):
//
//	producer (functional cpu.Machine)
//	    │  committed-BB records: DynInstrs + code bytes + epoch
//	    ▼  bounded lock-free SPSC ring (chash.SPSC)
//	K async CHG hash lanes (chash.LanePool)
//	    │  Sig/CodeSig + done flag, sharded per-lane signature memo
//	    ▼  reorder buffer = in-order ring retire (done-gated)
//	consumer (cpu.Pipeline timing + Engine validation, program order)
//
// Determinism: the consumer feeds the timing model the exact committed
// instruction stream of the serial loop, in program order, with signature
// *values* identical to serial recomputation (same bytes, same function).
// Simulated cycle counts, SC behaviour, and attack verdicts are therefore
// byte-identical to the serial engine at any lane count; only the
// simulator-internal memo hit/miss counters may differ (the memo is
// sharded per lane). Enforced by TestPipelinedMatchesSerial.
//
// Safety: the producer owns the functional machine and the simulated
// address space; the consumer owns the timing structures and the engine;
// lanes read only code bytes the producer copied into pooled ring slots
// before publishing. Signature tables are immutable decrypted snapshots
// (the Prepare path), so validation never reads simulated memory. On an
// epoch change (self-modifying code), the producer drains the ring before
// publishing under the new epoch — the epoch fence — so lanes never hold
// in-flight work from two code versions.
package core

import (
	"fmt"
	"runtime"

	"rev/internal/chash"
	"rev/internal/cpu"
	"rev/internal/forensics"
	"rev/internal/isa"
	"rev/internal/sigtable"
)

// AutoLanes sizes the intra-run pipeline for this host: 0 (serial inline
// loop — the pipeline is pure overhead without a second CPU) when
// GOMAXPROCS is 1, otherwise GOMAXPROCS-1 hash lanes capped at 4 (the
// producer and consumer occupy the remaining parallelism; beyond 4 lanes
// the hash work is already fully hidden).
func AutoLanes() int {
	p := runtime.GOMAXPROCS(0)
	if p <= 1 {
		return 0
	}
	k := p - 1
	if k > 4 {
		k = 4
	}
	return k
}

// resolveLanes maps a RunConfig.Lanes request to an effective lane count:
// negative auto-sizes from GOMAXPROCS, 0 stays serial, n >= 1 is honored
// as requested.
func resolveLanes(n int) int {
	if n < 0 {
		return AutoLanes()
	}
	return n
}

// pipeRingSlots bounds producer run-ahead (and, on a violation, how far
// the functional machine can have advanced past the verdict).
const pipeRingSlots = 256

// DefaultPublishBatch is the publish/retire granularity: the producer
// makes committed-block records visible to the hash lanes in groups of up
// to this many (flushing early whenever downstream runs dry), the
// consumer frees retired slots in matching strides, and each lane
// publishes its progress once per batch. Deep enough to amortize the
// per-block atomic release-stores across cores, shallow enough that the
// consumer's verdict never trails the producer by a meaningful fraction
// of the ring.
const DefaultPublishBatch = 16

// The batch must be at least one record and leave at least half the ring
// circulating, so producer, lanes, and consumer always overlap; both
// array lengths go negative, failing the build, if a change breaks that.
var (
	_ [DefaultPublishBatch - 1]struct{}
	_ [pipeRingSlots/2 - DefaultPublishBatch]struct{}
)

// revEvent is one intercepted SYS call, replayed into the engine by the
// consumer at the event's program-order position.
type revEvent struct {
	service int32
	arg     uint64
}

// pipeSlot is one pooled ring record: a committed dynamic basic block
// (or the final partial block / a decode fault) plus everything the
// consumer needs to retire it deterministically. All backing storage is
// allocated once when the ring is built and reused every lap.
type pipeSlot struct {
	job    chash.BlockJob
	instrs []cpu.DynInstr
	events []revEvent
	// outLen/halted snapshot the machine's observable state right after
	// the block's last instruction executed, so a run that aborts at this
	// block reports exactly the serial loop's Output and Halted.
	outLen int
	halted bool
	// complete marks a true basic block (terminator reached); the final
	// record of a budget-capped run may be a partial block that the
	// timing model will not end (no hook fires).
	complete bool
	// fail carries a machine decode fault (illegal opcode); instrs holds
	// the block's instructions before the fault, failPC the faulting pc.
	fail   error
	failPC uint64

	codeBuf []byte // pooled backing for job.Code
}

// pipeRun is the pipelined executor's rig: the SPSC ring, the pooled
// block records, and the lane pools over them. It is built once per parts
// (newPipeRun) and re-armed per execution (rearm), so the run-arena path
// reuses every allocation — ring, slots, code buffers, lane memos, the
// producer's exit channel, and the pre-bound hook/goroutine closures.
type pipeRun struct {
	parts *parts
	rc    RunConfig

	ring  *chash.SPSC
	slots []pipeSlot
	jobs  []*chash.BlockJob
	pool  *chash.LanePool
	// pools caches one LanePool per requested lane count; the pools share
	// the ring, the jobs, and (via Reset) the monotonic progress protocol.
	pools map[int]*chash.LanePool

	// stop is set by the consumer on an abort (violation or internal
	// error); producer and lanes exit at their next wait.
	stop chash.StopFlag

	// Producer-owned state.
	cur         *pipeSlot // slot being filled
	pending     int       // finished records not yet published (cur excluded)
	prodEnabled bool      // functional REV-enable state (SYS-tracked)
	lastEpoch   uint64
	laneGate    uint64 // cached LanePool.MinProgress (slot-reuse gate)
	maxBB       int
	maxStores   int

	// Consumer-owned state.
	curRetire *pipeSlot // record whose instructions are being fed
	finalOut  int
	finalHalt bool

	prodErr chan error // producer's exit status (always one send)

	// Pre-bound method values, created once so re-armed runs install hooks
	// and spawn the producer without allocating closures.
	hookFn    func(cpu.BBInfo) (uint64, error)
	sysFn     func(int32, uint64)
	produceFn func()
}

// newPipeRun builds the reusable rig for one parts: ring, pooled slots,
// and the pre-bound closures. Lane pools attach lazily via poolFor.
func newPipeRun(p *parts) *pipeRun {
	x := &pipeRun{
		parts:     p,
		ring:      chash.NewSPSC(pipeRingSlots),
		pools:     make(map[int]*chash.LanePool),
		maxBB:     p.pipe.Cfg.MaxBBInstrs,
		maxStores: p.pipe.Cfg.MaxBBStores,
		prodErr:   make(chan error, 1),
	}
	x.slots = make([]pipeSlot, x.ring.Cap())
	x.jobs = make([]*chash.BlockJob, x.ring.Cap())
	for i := range x.slots {
		s := &x.slots[i]
		s.instrs = make([]cpu.DynInstr, 0, x.maxBB)
		s.codeBuf = make([]byte, x.maxBB*isa.WordSize)
		x.jobs[i] = &s.job
	}
	x.hookFn = x.retireHook
	x.sysFn = x.sysEvent
	x.produceFn = x.produce
	return x
}

// poolFor returns the cached LanePool for a lane count, building it on
// first use. Callers must Reset the pool before Start: a pool created
// after the ring has advanced needs its progress cursors primed at the
// ring's current released count.
func (x *pipeRun) poolFor(lanes int) *chash.LanePool {
	if p, ok := x.pools[lanes]; ok {
		return p
	}
	p := chash.NewLanePool(x.ring, x.jobs, lanes, 0, forensics.CodeSig)
	p.SetStride(DefaultPublishBatch)
	x.pools[lanes] = p
	return p
}

// rearm readies the rig for one execution: per-run cursors cleared, the
// stop latch lowered, and the selected (already Reset) pool installed.
// The ring's sequence counters are monotonic across runs; only the
// producer's cached lane gate restarts, at the ring's released count.
func (x *pipeRun) rearm(rc RunConfig, pool *chash.LanePool) {
	x.rc = rc
	x.pool = pool
	x.stop.Reset()
	x.cur, x.curRetire = nil, nil
	x.pending = 0
	x.prodEnabled = true
	x.lastEpoch = 0
	x.laneGate = x.ring.Released()
	x.finalOut, x.finalHalt = 0, false
}

// retireHook is the consumer-side validation hook: it validates with the
// lane-computed signatures of the record being retired, cross-checking
// block identity so a front-end/producer split divergence can never
// validate the wrong signature silently.
func (x *pipeRun) retireHook(info cpu.BBInfo) (uint64, error) {
	s := x.curRetire
	if s == nil || !s.complete || info.Start != s.job.Start || info.End != s.job.End {
		return 0, fmt.Errorf("core: pipelined retire desynchronized at block [%#x,%#x]", info.Start, info.End)
	}
	return x.parts.engine.HookPrecomputed(info, &s.job)
}

// sysEvent runs on the producer (functional) goroutine: SYS calls mutate
// engine state read at validation time, so they are recorded in the block
// record and replayed in program order on the consumer.
func (x *pipeRun) sysEvent(service int32, arg uint64) {
	if service == isa.SysREVEnable {
		x.prodEnabled = arg != 0
	}
	if x.cur != nil {
		x.cur.events = append(x.cur.events, revEvent{service: service, arg: arg})
	}
}

// executePipelined drives the measured run with the intra-run pipeline.
// Callers guarantee: lanes >= 1, and when an engine is attached its
// signature tables are immutable snapshots (the Prepare path) — the
// consumer must never read simulated memory while the producer runs.
// The rig is cached on parts, so repeated executions over the same parts
// (the run-arena path) reuse every pipeline allocation.
func executePipelined(p *parts, rc RunConfig, lanes int, res *Result) error {
	x := p.rig
	if x == nil {
		x = newPipeRun(p)
		p.rig = x
	}
	pool := x.poolFor(lanes)
	// Reset before every run: wipes the per-lane memo shards (epoch
	// counters restart per run) and primes the progress cursors at the
	// ring's current released count (monotonic across arena runs).
	pool.Reset()
	x.rearm(rc, pool)
	p.tel.initPipeline(lanes)
	if p.tel != nil && p.tel.lanes != nil {
		pool.SetObserver(p.tel.lanes)
	} else {
		pool.SetObserver(nil)
	}
	return x.runMeasured(res)
}

// runMeasured executes one re-armed pipelined run to completion, writing
// the figures into res.
func (x *pipeRun) runMeasured(res *Result) error {
	p := x.parts
	mach, pipe, engine := p.mach, p.pipe, p.engine
	if p.shadowMem != nil {
		p.shadowMem.Begin()
	}
	// A run that publishes zero records (machine already halted, zero
	// budget) must still report the machine's observable state.
	x.finalOut, x.finalHalt = len(mach.Output), mach.Halted

	if engine != nil {
		pipe.Hook = x.hookFn
		mach.SysHandler = x.sysFn
		engine.deferForensics = true
		if engine.cv != nil {
			x.lastEpoch = engine.cv.CodeVersion()
		}
	}

	x.pool.Start()
	go x.produceFn()
	vio, err := x.consume()

	// Tear down: wake and join the producer and lanes, whatever state the
	// run ended in. After the joins this goroutine owns everything again.
	x.stop.Raise()
	perr := <-x.prodErr
	x.pool.Abort()
	x.pool.Close()
	x.pool.Join()
	// Leave the ring quiescent (tail == head): an aborted run strands
	// published-but-unretired records, and the arena reuse path restarts
	// lanes against the same monotonic counters. The producer balanced its
	// claims before exiting, so draining releases every published record.
	for !x.ring.Drained() {
		x.ring.Release()
	}
	if err != nil {
		return err
	}
	_ = perr // producer faults surface through ring records, in order

	if engine != nil {
		engine.MergeLaneMemoStats(x.pool.MemoCounters())
		engine.deferForensics = false
		if vio != nil && engine.pendingCapture {
			// Deferred capture: memory is quiescent now. The producer may
			// have run ahead of the verdict by up to the ring depth, so
			// evidence reflects at most that much extra execution.
			engine.pendingCapture = false
			engine.Log.Capture(vio.Reason.String(), vio.BBStart, vio.BBEnd, vio.Target, engine.Mem)
		}
	}

	x.assembleInto(res, vio)
	return nil
}

// produce runs the functional machine ahead of the timing model,
// publishing committed-BB records. It mirrors the serial loop in
// sim.go:executeMeasured and the front end's block-split rule in
// cpu.Pipeline exactly: same instruction budget, same boundaries, same
// byte capture point (after the block's last instruction executed, which
// is when the serial hook would read them).
func (x *pipeRun) produce() {
	mach := x.parts.mach
	engine := x.parts.engine
	tel := x.parts.tel
	var produced uint64
	var pb chash.Backoff
	bbInstrs, bbStores := 0, 0

	// flush publishes every finished-but-unpublished record in one
	// release-store. Called when the batch fills, before any wait on the
	// consumer (it cannot retire what it cannot see), at epoch fences, and
	// at every producer exit path — a record is never stranded unpublished.
	flush := func() {
		if x.pending == 0 {
			return
		}
		n := x.pending
		x.pending = 0
		x.ring.PublishN(n)
		if tel != nil {
			tel.publishSample(x.ring.Published()-x.ring.Released(), n)
		}
	}

	finish := func(complete bool) bool {
		s := x.cur
		s.complete = complete
		s.outLen = len(mach.Output)
		s.halted = mach.Halted
		if complete {
			start := s.instrs[0].PC
			end := s.instrs[len(s.instrs)-1].PC
			j := &s.job
			j.Start, j.End = start, end
			j.Lane = chash.LaneFor(start, end, x.pool.Lanes())
			j.NeedHash = false
			j.NeedCode = false
			j.MemoOK = false
			if engine != nil && x.prodEnabled && engine.Cfg.Format != sigtable.CFIOnly {
				j.NeedHash = true
				j.NeedCode = engine.Cfg.Blacklist != nil
				// Capture the bytes the serial hook would read at this
				// exact program point; lanes never touch live memory.
				j.Code = s.codeBuf[:len(s.instrs)*isa.WordSize]
				engine.Mem.ReadBytes(start, j.Code)
				if engine.cv != nil {
					j.Epoch = engine.cv.CodeVersion()
					j.MemoOK = true
					// Epoch fence: publish the old-epoch batch, then drain
					// every in-flight record before this block becomes
					// visible under the new code version, so lanes (and
					// their memo shards) are quiescent across
					// self-modifying-code boundaries. This record joins the
					// new epoch's first batch.
					if j.Epoch != x.lastEpoch {
						flush()
						if tel != nil {
							tel.epochFenceBegin()
						}
						for !x.ring.Drained() {
							if x.stop.Raised() {
								// Abandoned run: publish this record anyway so
								// the ring's claim accounting stays balanced;
								// nothing downstream retires it.
								x.cur = nil
								x.pending++
								flush()
								x.prodErr <- nil
								return false
							}
							pb.Wait()
						}
						pb.Reset()
						x.lastEpoch = j.Epoch
						if tel != nil {
							tel.epochFenceEnd(j.Epoch)
						}
					}
				}
			}
		}
		x.cur = nil
		x.pending++
		// Publish when the batch fills, or eagerly whenever the downstream
		// stages have run dry — batching amortizes synchronization under
		// backlog without ever making an idle consumer wait on a partial
		// batch.
		if x.pending >= DefaultPublishBatch || x.ring.Drained() {
			flush()
		}
		return true
	}

	for !mach.Halted && produced < x.rc.MaxInstrs {
		if x.stop.Raised() {
			break
		}
		if x.cur == nil {
			// Claim (and reset) the next pooled slot before stepping into
			// a new block, so SYS events always have a record to land in.
			// Claim exactly once, then gate: retrying TryAcquire after a
			// veto would claim a fresh sequence each lap and skew the
			// slot/publish accounting.
			size := uint64(x.ring.Cap())
			var seq uint64
			for {
				s, ok := x.ring.TryAcquire()
				if !ok {
					// Ring full with records still unpublished: the consumer
					// can only free slots it can see, so flush first or this
					// wait deadlocks.
					flush()
					if x.stop.Raised() {
						x.prodErr <- nil
						return
					}
					pb.Wait()
					continue
				}
				seq = s
				break
			}
			for seq >= size && x.laneGate <= seq-size {
				// The consumer released the slot's previous record, but a
				// trailing lane may still be scanning it; wait until every
				// lane's progress passed the old sequence number.
				x.laneGate = x.pool.MinProgress()
				if x.laneGate > seq-size {
					break
				}
				if x.stop.Raised() {
					x.ring.Unclaim()
					flush()
					x.prodErr <- nil
					return
				}
				pb.Wait()
			}
			{
				s := &x.slots[x.ring.SlotOf(seq)]
				// Field-wise reset: BlockJob embeds an atomic and must
				// not be copied; all backing storage is reused in place.
				j := &s.job
				j.ResetDone()
				j.Start, j.End, j.Epoch, j.Lane = 0, 0, 0, 0
				j.NeedHash, j.NeedCode, j.MemoOK = false, false, false
				j.Code = nil
				s.instrs = s.instrs[:0]
				s.events = s.events[:0]
				s.fail = nil
				s.complete = false
				x.cur = s
			}
			pb.Reset()
			bbInstrs, bbStores = 0, 0
		}
		pc, in, err := mach.Step()
		if err != nil {
			// Decode fault: publish it as the stream's final record; the
			// consumer surfaces it at the exact serial program point.
			x.cur.fail, x.cur.failPC = err, pc
			finish(false)
			flush()
			x.pool.Close()
			x.prodErr <- err
			return
		}
		produced++
		x.cur.instrs = append(x.cur.instrs, cpu.DynInstr{PC: pc, In: in, NextPC: mach.PC, MemAddr: mach.MemAddr})
		bbInstrs++
		if in.Kind() == isa.KindStore {
			bbStores++
		}
		// Front-end block-split rule (must mirror cpu.Pipeline.Next).
		if in.Kind().IsControlFlow() || bbInstrs >= x.maxBB || bbStores >= x.maxStores {
			if !finish(true) {
				return
			}
		}
	}
	if x.cur != nil {
		if len(x.cur.instrs) > 0 {
			// Budget exhausted mid-block: ship the partial tail; the
			// timing model will not see a terminator, so no hook fires —
			// exactly the serial loop's behaviour.
			finish(false)
		} else {
			x.cur = nil
			x.ring.Unclaim() // claimed but unused slot: never published
		}
	}
	flush()
	// Close before the hand-off: the send is the producer's last touch of
	// the rig, so the next run's rearm can never race a late x.pool read.
	x.pool.Close()
	x.prodErr <- nil
}

// consume retires records in program order: the reorder-buffer step. For
// each record it waits for the record's lane to finish (done-gated),
// replays SYS events, and feeds the timing model — which fires the
// validation hook at the terminator with the lane's precomputed
// signature.
func (x *pipeRun) consume() (*Violation, error) {
	pipe := x.parts.pipe
	engine := x.parts.engine
	tel := x.parts.tel
	var b chash.Backoff
	// The consumer walks its own cursor ahead of the released count and
	// frees retired slots in batch-sized strides: one release-store per
	// batch instead of per block. Every exit path (and every idle wait)
	// flushes first, so the producer is never starved behind slots that are
	// logically retired but not yet visible as free.
	crt := x.ring.Released()
	unreleased := 0
	flushRel := func() {
		if unreleased > 0 {
			x.ring.ReleaseN(unreleased)
			unreleased = 0
		}
	}
	for {
		if crt >= x.ring.Published() {
			flushRel()
			if x.pool.Closed() && x.ring.Drained() {
				return nil, nil
			}
			b.Wait()
			continue
		}
		b.Reset()
		s := &x.slots[x.ring.SlotOf(crt)]
		// Wait for the record's lane before touching it (and, crucially,
		// before releasing its slot back to the producer): the done flag is
		// the lane's release-store over the whole job.
		if !s.job.IsDone() {
			if tel != nil {
				tel.laneWaitBegin()
			}
			for !s.job.IsDone() {
				b.Wait()
			}
			if tel != nil {
				tel.laneWaitEnd(s.job.Lane)
			}
		}
		b.Reset()
		for _, ev := range s.events {
			if engine != nil {
				engine.SysHandler(ev.service, ev.arg)
			}
		}
		x.curRetire = s
		for i := range s.instrs {
			if err := pipe.Next(s.instrs[i]); err != nil {
				x.curRetire = nil
				x.finalOut, x.finalHalt = s.outLen, s.halted
				crt++
				unreleased++
				flushRel()
				if v, ok := err.(*Violation); ok {
					return v, nil
				}
				return nil, err
			}
		}
		x.curRetire = nil
		x.finalOut, x.finalHalt = s.outLen, s.halted
		// Copy the failure before the release below makes the slot
		// reclaimable: the producer may rewrite it the instant it is freed.
		fail, failPC := s.fail, s.failPC
		crt++
		unreleased++
		if unreleased >= DefaultPublishBatch {
			flushRel()
		}
		if fail != nil {
			flushRel()
			// Illegal opcode: the serial loop fed the block's pre-fault
			// instructions (just replayed above) and then faulted at decode.
			// With REV the block containing the illegal bytes can never
			// validate either; without, surface the machine error (sim.go
			// keeps the same policy serially).
			if engine != nil {
				return &Violation{Reason: ViolationHash, BBStart: failPC, BBEnd: failPC, Target: failPC}, nil
			}
			return nil, fail
		}
	}
}

// assembleInto fills the Result after producer and lanes joined,
// mirroring sim.go:executeMeasured. Output and Halted come from the last
// retired record's snapshot, so producer run-ahead past a violation is
// invisible.
func (x *pipeRun) assembleInto(res *Result, vio *Violation) {
	p := x.parts
	res.Pipe = p.pipe.Stats
	res.Branch = p.pred.Stats
	res.UniqueBranches = p.pipe.UniqueBranches()
	res.L1D = p.hier.L1D.Stats
	res.L1I = p.hier.L1I.Stats
	res.L2 = p.hier.L2.Stats
	res.DRAM = p.hier.DRAM.Stats
	res.Output = p.mach.Output[:x.finalOut]
	if x.finalOut == 0 {
		// The serial loop's Output is nil until the first OUT retires; the
		// producer may have run ahead and appended past the verdict, so
		// restore the exact serial value for an empty prefix.
		res.Output = nil
	}
	res.Halted = x.finalHalt
	res.Violation = vio
	if p.shadowMem != nil {
		if vio == nil {
			p.shadowMem.Commit()
		} else {
			p.shadowMem.Abort()
		}
		res.Shadow = p.shadowMem.Stats
	}
	if p.engine != nil {
		engine := p.engine
		res.Engine = engine.Stats
		res.Tables = engine.Tables
		res.Forensics = engine.Log
		res.SourceNotes = engine.SourceNotes()
		s := engine.SC.Stats
		res.SC = SCView{
			Probes:         s.Probes,
			Hits:           s.Hits,
			PartialMisses:  s.PartialMisses,
			CompleteMisses: s.CompleteMisses,
			Misses:         s.Misses(),
			MissRate:       s.MissRate(),
		}
	}
}
