// Run arenas: the reusable per-instance execution state every run goes
// through.
//
// An instance run needs a cloned program image, a memory hierarchy, a
// branch predictor, an out-of-order pipeline, a functional machine, (for
// protected runs) a REV engine over the Prepared's shared tables, and
// (pipelined) the SPSC ring with its pooled block records. A runArena
// builds the whole set once and resets it in place between runs, so
// steady-state serial instance runs are allocation-free end to end
// (pinned by TestRunInstanceZeroAllocs):
//
//   - prog.Memory.ResetFrom restores the cloned image from the pristine
//     prototype without reallocating pages (extra pages a run mapped are
//     zeroed in place — indistinguishable from absent pages through
//     AddressSpace reads).
//   - Hierarchy/Predictor/Pipeline/Machine/Engine all expose Reset
//     methods returning them to their post-construction state in place
//     (caches flushed, LRU stamps and statistics zeroed, signature memo
//     and sigcache slabs invalidated, SAG registration replayed, code
//     watches re-armed so the code-version epoch sequence restarts
//     exactly as a fresh build's).
//   - A page-shadowing run's shadow.Memory closes its epoch, zeroes its
//     statistics, and clears its code watch for the engine to re-arm.
//   - The pipelined rig (ring, slots, lane pools, producer channel, and
//     the pre-bound hook closures) is cached on the parts and re-armed
//     per run (pipeline.go); the ring's sequence counters run
//     monotonically across runs while each pool Reset primes its
//     progress cursors.
//
// Telemetry-enabled runs use the arena too: their registry view reads
// copies of the run's figure structs taken at run end
// (registerRunViews), never the structs the next run resets.
//
// Determinism: a reset arena is observationally identical to a fresh
// build — byte-identical figures, verdicts, forensics, shadow
// statistics, and evidence streams — which TestArenaReuseMatchesFresh
// pins, including across attacked, page-shadowing, telemetry, and
// self-modifying-code runs.
package core

import (
	"fmt"

	"rev/internal/cpu"
	"rev/internal/isa"
	"rev/internal/prog"
)

// runArena is one reusable instance of a Prepared workload: the cloned
// program plus every per-run structure, reset in place between runs.
// An arena is owned by exactly one goroutine between acquire and
// release; the Prepared's freelist hands each concurrent caller its own.
type runArena struct {
	owner *Prepared
	p     *parts
	// measured is the arena's cloned program image, restored from the
	// owner's pristine prototype between runs.
	measured *prog.Program

	// Pre-bound installs, created once so per-run re-attachment after the
	// resets costs plain assignments, never a closure allocation.
	serialHook func(cpu.BBInfo) (uint64, error) // engine.Hook
	serialSys  func(int32, uint64)              // engine.SysHandler
	attackStep func(pc uint64, in isa.Instr)    // wraps rc.AttackHook; nil without one
}

// acquireArena pops a free arena or builds one. Builds happen on first
// use and when more runs are in flight concurrently than ever before;
// the steady state is pure reuse.
func (p *Prepared) acquireArena() (*runArena, error) {
	p.arenaMu.Lock()
	if n := len(p.arenas); n > 0 {
		a := p.arenas[n-1]
		p.arenas = p.arenas[:n-1]
		p.arenaMu.Unlock()
		return a, nil
	}
	p.arenaMu.Unlock()
	return p.newArena()
}

// releaseArena returns an arena to the freelist.
func (p *Prepared) releaseArena(a *runArena) {
	p.arenaMu.Lock()
	p.arenas = append(p.arenas, a)
	p.arenaMu.Unlock()
}

// newArena performs the build the arena will afterwards reuse: a clone
// of the prototype, the microarchitectural parts over it, and — for a
// protected workload — an engine registered with every shared table.
func (p *Prepared) newArena() (*runArena, error) {
	measured := p.proto.Clone()
	parts := assemble(measured, p.rc)
	a := &runArena{owner: p, p: parts, measured: measured}
	if p.rc.REV != nil {
		engine := NewEngine(*p.rc.REV, parts.space, parts.hier)
		for _, st := range p.Tables {
			if err := engine.AddSharedModule(st); err != nil {
				return nil, fmt.Errorf("core: sharing table for %s: %w", st.Module, err)
			}
		}
		parts.attach(engine, p.rc)
		a.serialHook, a.serialSys = parts.pipe.Hook, parts.mach.SysHandler
	}
	if hook := p.rc.AttackHook; hook != nil {
		mach := parts.mach
		a.attackStep = func(pc uint64, in isa.Instr) { hook(mach, pc, in) }
	}
	return a, nil
}

// reset returns every arena structure to its post-build state, in order:
// the program image and any shadow over it first (which also clears
// their code watches), then the microarchitectural parts, then the
// engine — whose Reset re-arms the code watches from its module sources,
// reproducing a fresh build's epoch sequence exactly.
func (a *runArena) reset() {
	p := a.p
	p.mach.Reset(a.measured)
	a.measured.Mem.ResetFrom(a.owner.proto.Mem)
	if p.shadowMem != nil {
		p.shadowMem.Reset()
	}
	p.hier.Reset()
	p.pred.Reset()
	p.pipe.Reset()
	if p.engine != nil {
		p.engine.Reset()
	}
	p.tel = nil
}

// runInto executes one instance run over the arena, copying Output out
// of the machine backing so the caller's Result stays valid after the
// arena is reset for its next run. On error the contents of res are
// unspecified.
func (a *runArena) runInto(rc RunConfig, res *Result) error {
	a.reset()
	p := a.p
	// Re-attach after the resets cleared the hooks. Pipelined runs
	// overwrite Hook/SysHandler with the rig's pre-bound versions inside
	// runMeasured; installing the serial pair first keeps this path
	// branch-free and harmless (nothing executes in between).
	p.mach.BeforeStep = a.attackStep
	if p.engine != nil {
		p.pipe.Hook = a.serialHook
		p.mach.SysHandler = a.serialSys
	}
	outBuf := res.Output[:0]
	*res = Result{}
	if err := executeInto(p, rc, res); err != nil {
		return err
	}
	// res.Output aliases the machine's output backing, which the next run
	// over this arena will truncate and refill: copy it into the caller's
	// reusable backing. An empty output stays nil, as on a fresh machine
	// (Output is nil until the first OUT instruction retires).
	if len(res.Output) == 0 {
		res.Output = nil
	} else {
		res.Output = append(outBuf, res.Output...)
	}
	return nil
}
