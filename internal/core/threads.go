package core

import (
	"fmt"

	"rev/internal/branch"
	"rev/internal/cfg"
	"rev/internal/cpu"
	"rev/internal/isa"
	"rev/internal/mem"
	"rev/internal/prog"
)

// ThreadedRunConfig extends RunConfig with round-robin time slicing, the
// experiment behind requirement R4: context switches must not force
// signature-table reloads. The SC is address-tagged and tables are
// per-module, so entries survive switches; FlushSCOnSwitch exists as the
// ablation representing designs (like the CAM tables of Arora et al.) that
// must reload validation state on every switch.
type ThreadedRunConfig struct {
	RunConfig
	// Quantum is the time slice in committed instructions.
	Quantum uint64
	// SwitchPenalty is the fixed pipeline drain/refill cost per switch.
	SwitchPenalty uint64
	// FlushSCOnSwitch discards the signature cache at every switch.
	FlushSCOnSwitch bool
}

// DefaultThreadedRunConfig uses a 20k-instruction quantum.
func DefaultThreadedRunConfig() ThreadedRunConfig {
	return ThreadedRunConfig{
		RunConfig:     DefaultRunConfig(),
		Quantum:       20_000,
		SwitchPenalty: 200,
	}
}

// threadCtx is one thread's architectural state.
type threadCtx struct {
	x      [isa.NumIntRegs]uint64
	f      [isa.NumFPRegs]float64
	pc     uint64
	halted bool
	instrs uint64
}

// ThreadedResult extends Result with per-thread accounting.
type ThreadedResult struct {
	Result
	Switches     uint64
	ThreadInstrs []uint64
}

// RunThreads time-slices several threads — each starting at a named
// function symbol of the loaded program — over one simulated core with one
// shared REV engine. Each thread gets a private stack region. The run ends
// when every thread halts or the global instruction budget is exhausted.
func RunThreads(build func() (*prog.Program, error), entries []string, trc ThreadedRunConfig) (res *ThreadedResult, err error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("core: RunThreads needs at least one entry")
	}
	rc := trc.RunConfig
	if rc.MaxInstrs == 0 {
		rc.MaxInstrs = 1_000_000
	}
	if trc.Quantum == 0 {
		trc.Quantum = 20_000
	}
	measured, err := build()
	if err != nil {
		return nil, fmt.Errorf("core: building program: %w", err)
	}

	hier := mem.New(rc.Mem)
	pred := branch.New(rc.Branch)
	pipe := cpu.NewPipeline(rc.Pipe, hier, pred)
	mach := cpu.NewMachine(measured)
	tel := newRunTelemetry(rc.Telemetry)

	var engine *Engine
	if rc.REV != nil {
		twin, err := build()
		if err != nil {
			return nil, err
		}
		// Profile every thread's behaviour on the twin.
		tm := cpu.NewMachine(twin)
		profiler := cfg.NewProfiler()
		profiler.Attach(tm)
		for ti, name := range entries {
			addr, ok := lookupAny(twin, name)
			if !ok {
				return nil, fmt.Errorf("core: entry %q not found", name)
			}
			tm.PC = addr
			tm.Halted = false
			tm.X = [isa.NumIntRegs]uint64{}
			tm.X[isa.RegSP] = threadStack(ti)
			if _, err := tm.Run(rc.MaxInstrs / uint64(len(entries))); err != nil {
				return nil, fmt.Errorf("core: profiling thread %q: %w", name, err)
			}
		}
		tables, err := buildTables(measured, profiler, rc)
		if err != nil {
			return nil, err
		}
		engine = NewEngine(*rc.REV, measured.Mem, hier)
		for _, st := range tables {
			if err := engine.AddSharedModule(st); err != nil {
				return nil, err
			}
		}
		pipe.Hook = engine.Hook
		mach.SysHandler = engine.SysHandler
		pipe.Cfg.MaxBBInstrs = rc.REV.Limits.MaxInstrs
		pipe.Cfg.MaxBBStores = rc.REV.Limits.MaxStores
		engine.tel = tel
	}
	if tel != nil {
		// Publish the figures once the run is over, whichever way it ends.
		defer registerRunViews(&parts{hier: hier, pred: pred, pipe: pipe, engine: engine}, rc.Telemetry)
	}
	if rc.Evidence != nil {
		if engine == nil {
			return nil, fmt.Errorf("core: evidence requires a REV engine (set rc.REV)")
		}
		if err := rc.Evidence.Begin(engine.Cfg.Format, engine.moduleRanges()); err != nil {
			return nil, fmt.Errorf("core: starting evidence stream: %w", err)
		}
		engine.ev = rc.Evidence
		// Seal the stream on every exit path: violations and transport
		// aborts leave evidence too (see evidenceOutcome).
		defer func() {
			engine.ev = nil
			var r *Result
			if res != nil {
				r = &res.Result
			}
			if ferr := rc.Evidence.Finish(evidenceOutcome(r, err)); ferr != nil && err == nil {
				res, err = nil, fmt.Errorf("core: sealing evidence stream: %w", ferr)
			}
		}()
	}

	// Thread contexts.
	threads := make([]*threadCtx, len(entries))
	for i, name := range entries {
		addr, ok := lookupAny(measured, name)
		if !ok {
			return nil, fmt.Errorf("core: entry %q not found", name)
		}
		t := &threadCtx{pc: addr}
		t.x[isa.RegSP] = threadStack(i)
		threads[i] = t
	}

	res = &ThreadedResult{}
	res.ThreadInstrs = make([]uint64, len(threads))
	cur := 0
	load := func(t *threadCtx) {
		mach.X = t.x
		mach.F = t.f
		mach.PC = t.pc
		mach.Halted = t.halted
	}
	save := func(t *threadCtx) {
		t.x = mach.X
		t.f = mach.F
		t.pc = mach.PC
		t.halted = mach.Halted
	}
	load(threads[cur])

	var vio *Violation
	allHalted := func() bool {
		for _, t := range threads {
			if !t.halted {
				return false
			}
		}
		return true
	}

outer:
	for pipe.Stats.Instrs < rc.MaxInstrs && !allHalted() {
		// Run one quantum of the current thread, then continue to the next
		// basic-block boundary: like external interrupts, switches are
		// serviced only after the current block validates (Sec. IV.A).
		var ran uint64
		for (ran < trc.Quantum || pipe.InBlock()) && !mach.Halted && pipe.Stats.Instrs < rc.MaxInstrs {
			pc, in, err := mach.Step()
			if err != nil {
				if engine != nil {
					vio = &Violation{Reason: ViolationHash, BBStart: pc, BBEnd: pc, Target: pc}
					break outer
				}
				return nil, err
			}
			if err := pipe.Next(cpu.DynInstr{PC: pc, In: in, NextPC: mach.PC, MemAddr: mach.MemAddr}); err != nil {
				if v, ok := err.(*Violation); ok {
					vio = v
					break outer
				}
				return nil, err
			}
			ran++
			res.ThreadInstrs[cur]++
		}
		save(threads[cur])
		// Pick the next runnable thread.
		next := cur
		for off := 1; off <= len(threads); off++ {
			cand := (cur + off) % len(threads)
			if !threads[cand].halted {
				next = cand
				break
			}
		}
		if next != cur {
			res.Switches++
			if tel != nil {
				tel.contextSwitch(next)
			}
			pipe.ChargeSwitch(trc.SwitchPenalty)
			if engine != nil {
				engine.OnContextSwitch()
				if trc.FlushSCOnSwitch {
					engine.SC.Flush()
				}
			}
			cur = next
		}
		load(threads[cur])
	}
	save(threads[cur])

	res.Pipe = pipe.Stats
	res.Branch = pred.Stats
	res.UniqueBranches = pipe.UniqueBranches()
	res.L1D = hier.L1D.Stats
	res.L1I = hier.L1I.Stats
	res.L2 = hier.L2.Stats
	res.DRAM = hier.DRAM.Stats
	res.Output = mach.Output
	res.Halted = allHalted()
	res.Violation = vio
	if engine != nil {
		res.Engine = engine.Stats
		res.Tables = engine.Tables
		s := engine.SC.Stats
		res.SC = SCView{
			Probes: s.Probes, Hits: s.Hits,
			PartialMisses: s.PartialMisses, CompleteMisses: s.CompleteMisses,
			Misses: s.Misses(), MissRate: s.MissRate(),
		}
	}
	return res, nil
}

// threadStack returns thread i's private stack top.
func threadStack(i int) uint64 { return prog.StackBase - uint64(i)*0x10_0000 }

// lookupAny resolves a function symbol across all loaded modules.
func lookupAny(p *prog.Program, name string) (uint64, bool) {
	for _, m := range p.Modules {
		if a, ok := m.Lookup(name); ok {
			return a, true
		}
	}
	return 0, false
}
