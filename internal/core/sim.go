package core

import (
	"fmt"

	"rev/internal/branch"
	"rev/internal/cpu"
	"rev/internal/evidence"
	"rev/internal/forensics"
	"rev/internal/isa"
	"rev/internal/mem"
	"rev/internal/prefetch"
	"rev/internal/prog"
	"rev/internal/shadow"
	"rev/internal/sigtable"
	"rev/internal/telemetry"
)

// RunConfig assembles a full simulation.
type RunConfig struct {
	MaxInstrs uint64
	Pipe      cpu.PipeConfig
	Mem       mem.Config
	Branch    branch.Config
	// REV, when non-nil, attaches a REV engine; nil runs the base core.
	REV *Config
	// ProfileInstrs bounds the profiling run used to discover computed
	// control-flow targets (0 = same as MaxInstrs).
	ProfileInstrs uint64
	// KeySeed derives per-module table keys deterministically.
	KeySeed uint64
	// AttackHook, if set, is installed as the Machine's BeforeStep (attack
	// injectors mutate state mid-run through it).
	AttackHook func(m *cpu.Machine, pc uint64, in isa.Instr)
	// PageShadowing enables the paper's stricter deferred-update variant
	// (Sec. IV.A): all memory updates of the run land in shadow pages,
	// promoted to the program's real pages only if the whole execution
	// validates and discarded on a violation.
	PageShadowing bool
	// HideCodeVersion wraps the address space so it no longer advertises
	// prog.CodeVersioner, disabling the engine's signature memo (every block
	// is rehashed). For ablation tests and the un-memoized benchmark
	// baseline; results are identical either way, only simulator speed
	// differs.
	HideCodeVersion bool
	// Telemetry, when non-nil and enabled, attaches the run to a metrics
	// registry and/or trace recorder (docs/OBSERVABILITY.md). Telemetry
	// never alters simulated timing, statistics, or verdicts — results are
	// byte-identical with it on or off; only simulator wall time changes.
	// A nil or empty Set is the zero-cost disabled path.
	Telemetry *telemetry.Set
	// Prefetch tunes predictive signature prefetching for PrepareRemote
	// workloads whose sources resolve lookups over a wire (sigserve lookup
	// mode): a CFG-driven predictor fetches likely-needed entries ahead of
	// the engine so the commit path rarely blocks on the network. The zero
	// value (Depth 0) disables it. Results are byte-identical at any
	// setting — a buffered answer is served only on an exact query-key
	// match, and every miss falls back to the blocking lookup with today's
	// degradation semantics. Ignored by Prepare (local snapshots have no
	// wire latency to hide).
	Prefetch prefetch.Config
	// Evidence, when non-nil, streams hash-chained attestation evidence
	// from the run: every validated block commit and every validation
	// fence is sealed into the emitter's record chain, and the final
	// record carries the run verdict (docs/EVIDENCE.md). Requires
	// rc.REV. The stream is byte-identical across serial, fleet, lanes,
	// and remote configurations — it depends only on the committed
	// instruction stream. An Emitter is single-use, so fleet callers
	// pass per-instance emitters through InstanceOptions.Evidence
	// rather than sharing one here.
	Evidence *evidence.Emitter
	// Lanes selects the intra-run validation pipeline (pipeline.go):
	// negative auto-sizes the lane count from GOMAXPROCS (AutoLanes), 0
	// keeps the classic serial loop, and n >= 1 overlaps the functional
	// machine, n async CHG hash lanes, and the timing model across
	// goroutines. Results are byte-identical at any setting; only
	// simulator wall time changes.
	Lanes int
}

// noVersionSpace forwards an AddressSpace while hiding any CodeVersioner
// implementation of the underlying space (see RunConfig.HideCodeVersion).
type noVersionSpace struct{ prog.AddressSpace }

// DefaultRunConfig mirrors the paper's setup.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		MaxInstrs: 1_000_000,
		Pipe:      cpu.DefaultPipeConfig(),
		Mem:       mem.DefaultConfig(),
		Branch:    branch.DefaultConfig(),
		KeySeed:   0x5eed,
	}
}

// Result reports a run.
type Result struct {
	Pipe           cpu.PipeStats
	Branch         branch.Stats
	UniqueBranches int
	L1D, L1I, L2   mem.CacheStats
	DRAM           mem.DRAMStats
	// REV-side statistics (zero for baseline runs).
	SC     SCView
	Engine Stats
	Tables []*sigtable.Table
	// Violation is set when REV aborted the run.
	Violation *Violation
	// SourceNotes annotate the run's signature-table sources: non-nil
	// when a source had something to report — today, a remote source
	// that degraded to its locally cached snapshot after transport
	// failures (the verdict is still real table content, but the note
	// records which epoch served it and whether it is known stale). A
	// healthy all-local run always has nil notes, so byte-identity
	// checks between local and remote paths can include this field.
	SourceNotes []sigtable.SourceNote
	// Shadow reports page-shadowing activity when PageShadowing was on.
	Shadow shadow.Stats
	// Forensics holds captured violation evidence (REV.Forensics).
	Forensics forensics.Log
	// Output is the program's observable output.
	Output []uint64
	Halted bool
}

// SCView copies the signature-cache counters into the result.
type SCView struct {
	Probes         uint64
	Hits           uint64
	PartialMisses  uint64
	CompleteMisses uint64
	Misses         uint64
	MissRate       float64
}

// IPC is shorthand for the pipeline IPC.
func (r *Result) IPC() float64 { return r.Pipe.IPC() }

// parts bundles the microarchitectural state of one measured execution.
// A run arena (arena.go) builds it once and resets it in place between
// instances; it is owned by exactly one goroutine at a time (see
// docs/CONCURRENCY.md).
type parts struct {
	hier      *mem.Hierarchy
	pred      *branch.Predictor
	pipe      *cpu.Pipeline
	mach      *cpu.Machine
	shadowMem *shadow.Memory
	space     prog.AddressSpace
	engine    *Engine
	tel       *runTelemetry
	// rig caches the pipelined executor's ring, pooled slots, and lane
	// pools across runs of the same parts; executePipelined builds it on
	// first use.
	rig *pipeRun
}

// assemble builds the hierarchy, predictor, pipeline, (possibly shadowed)
// address space and functional machine over a program instance.
func assemble(measured *prog.Program, rc RunConfig) *parts {
	p := &parts{
		hier: mem.New(rc.Mem),
		pred: branch.New(rc.Branch),
	}
	p.pipe = cpu.NewPipeline(rc.Pipe, p.hier, p.pred)
	p.space = measured.Mem
	if rc.PageShadowing {
		p.shadowMem = shadow.New(measured.Mem)
		p.space = p.shadowMem
	}
	if rc.HideCodeVersion {
		p.space = noVersionSpace{p.space}
	}
	p.mach = cpu.NewMachineOver(measured, p.space)
	return p
}

// attach wires a REV engine into the pipeline and machine.
func (p *parts) attach(engine *Engine, rc RunConfig) {
	p.engine = engine
	p.pipe.Hook = engine.Hook
	p.mach.SysHandler = engine.SysHandler
	// Keep pipeline split limits in lockstep with the table builder.
	p.pipe.Cfg.MaxBBInstrs = rc.REV.Limits.MaxInstrs
	p.pipe.Cfg.MaxBBStores = rc.REV.Limits.MaxStores
}

// Run executes a workload: Prepare, then one RunInstance with rc's
// Lanes, Telemetry and Evidence. The builder must deterministically
// construct a fresh program instance on each call: Prepare keeps one as
// the pristine image the measured instance is cloned from and, when
// rc.REV is set, executes a twin in the profiling pass that discovers
// computed-control-flow targets (the paper's profiling pass, Sec. IV.D).
//
// Run repeats the trusted-loader work — profiling, static analysis,
// signature-table build — on every call. When many runs share one
// workload (a validation fleet), Prepare once and call
// Prepared.RunInstance per instance instead.
func Run(build func() (*prog.Program, error), rc RunConfig) (*Result, error) {
	p, err := Prepare(build, rc)
	if err != nil {
		return nil, err
	}
	return p.RunInstance(InstanceOptions{Lanes: rc.Lanes, Telemetry: rc.Telemetry, Evidence: rc.Evidence})
}

// executeInto attaches the run's telemetry and evidence, drives the
// measured execution, and writes the figures into res. On error the
// contents of res are unspecified.
func executeInto(p *parts, rc RunConfig, res *Result) error {
	// Resolve telemetry once per run: nil handles when disabled, so every
	// hot-path emission site below costs a single nil check.
	p.tel = newRunTelemetry(rc.Telemetry)
	if p.engine != nil {
		p.engine.tel = p.tel
	}
	if rc.Evidence != nil {
		if p.engine == nil {
			return fmt.Errorf("core: evidence requires a REV engine (set rc.REV)")
		}
		if err := rc.Evidence.Begin(p.engine.Cfg.Format, p.engine.moduleRanges()); err != nil {
			return fmt.Errorf("core: starting evidence stream: %w", err)
		}
		p.engine.ev = rc.Evidence
	}
	err := executeMeasured(p, rc, res)
	if p.tel != nil {
		registerRunViews(p, rc.Telemetry)
	}
	if rc.Evidence != nil {
		p.engine.ev = nil
		outRes := res
		if err != nil {
			outRes = nil
		}
		if ferr := rc.Evidence.Finish(evidenceOutcome(outRes, err)); ferr != nil && err == nil {
			err = fmt.Errorf("core: sealing evidence stream: %w", ferr)
		}
	}
	return err
}

// evidenceOutcome maps a run result onto the evidence final record: a
// verdict (pass/violation/aborted) plus the violating block when one
// was raised. Transport aborts (err != nil) carry no verdict.
func evidenceOutcome(res *Result, err error) evidence.Outcome {
	switch {
	case err != nil || res == nil:
		return evidence.Outcome{Verdict: evidence.VerdictAborted}
	case res.Violation != nil:
		v := res.Violation
		return evidence.Outcome{
			Verdict: evidence.VerdictViolation,
			Reason:  uint8(v.Reason),
			BBStart: v.BBStart, BBEnd: v.BBEnd, Target: v.Target,
		}
	default:
		return evidence.Outcome{Verdict: evidence.VerdictPass, Halted: res.Halted}
	}
}

// executeMeasured runs the measured execution loop — serial or
// pipelined — after executeInto has attached telemetry and evidence,
// writing the figures into the caller's res.
//
// res.Output aliases the functional machine's output backing; the arena
// copies it out before the machine is reset for its next run (arena.go).
func executeMeasured(p *parts, rc RunConfig, res *Result) error {
	if lanes := resolveLanes(rc.Lanes); lanes > 0 {
		return executePipelined(p, rc, lanes, res)
	}
	mach, pipe, hier, pred := p.mach, p.pipe, p.hier, p.pred
	engine, shadowMem := p.engine, p.shadowMem
	if shadowMem != nil {
		shadowMem.Begin()
	}

	var vio *Violation
	for !mach.Halted && pipe.Stats.Instrs < rc.MaxInstrs {
		pc, in, err := mach.Step()
		if err != nil {
			// Illegal opcode: hardware would fault at decode; with REV the
			// block containing it can never validate either. Surface it as
			// a hash violation when REV is active, else as a plain error.
			if engine != nil {
				vio = &Violation{Reason: ViolationHash, BBStart: pc, BBEnd: pc, Target: pc}
				break
			}
			return err
		}
		// Machine.Step records the executed load/store effective address, so
		// the timing model needs no separate pre-decode pass.
		di := cpu.DynInstr{PC: pc, In: in, NextPC: mach.PC, MemAddr: mach.MemAddr}
		if err := pipe.Next(di); err != nil {
			if v, ok := err.(*Violation); ok {
				vio = v
				break
			}
			return err
		}
	}

	res.Pipe = pipe.Stats
	res.Branch = pred.Stats
	res.UniqueBranches = pipe.UniqueBranches()
	res.L1D = hier.L1D.Stats
	res.L1I = hier.L1I.Stats
	res.L2 = hier.L2.Stats
	res.DRAM = hier.DRAM.Stats
	res.Output = mach.Output
	res.Halted = mach.Halted
	res.Violation = vio
	if shadowMem != nil {
		// The epoch commits only if the whole execution validated
		// (Sec. IV.A's strict model); a violation discards every update.
		if vio == nil {
			shadowMem.Commit()
		} else {
			shadowMem.Abort()
		}
		res.Shadow = shadowMem.Stats
	}
	if engine != nil {
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
	return nil
}
