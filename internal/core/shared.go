package core

import (
	"fmt"
	"sync"

	"rev/internal/cfg"
	"rev/internal/crypt"
	"rev/internal/evidence"
	"rev/internal/isa"
	"rev/internal/prefetch"
	"rev/internal/prog"
	"rev/internal/sag"
	"rev/internal/sigtable"
	"rev/internal/telemetry"
)

// SharedTable couples one module's immutable signature-table snapshot
// with the code region it covers. After Prepare returns, every field is
// read-only: any number of engines on any number of goroutines may hold
// the same SharedTable (the fleet's share-one-table path; see
// docs/CONCURRENCY.md).
type SharedTable struct {
	Module string
	// Start/Limit are the module's code range (the SAG limit-register
	// pair the trusted loader would program).
	Start, Limit uint64
	// Table is the built table's metadata (size accounting, Sec. V).
	Table *sigtable.Table
	// Snap is the decrypted, immutable lookup view (the in-process
	// path). Nil when Src supplies the lookups instead.
	Snap *sigtable.Snapshot
	// Src, when non-nil, overrides Snap as the engine's lookup source —
	// the remote-distribution path, where a sigserve.RemoteSource fetches
	// entries from a revserved signature service (and degrades to its
	// cached snapshot on transport failure). Must be safe for concurrent
	// use by any number of engines, like Snap.
	Src sigtable.Source
}

// Source returns the lookup source engines should register: Src when
// set, else the in-process Snap.
func (st *SharedTable) Source() sigtable.Source {
	if st.Src != nil {
		return st.Src
	}
	return st.Snap
}

// Prepared is the reusable, immutable preparation of a workload: for a
// REV-protected workload, the profiling pass, static analysis, and
// per-module signature-table builds — the trusted linker/loader work of
// Sec. IV.B — performed exactly once. A Prepared may then serve any
// number of concurrent RunInstance calls, each running a private engine
// over a fresh program instance while sharing the decrypted tables
// read-only.
//
// Every run goes through a Prepared: core.Run is Prepare followed by one
// RunInstance, and serving paths Prepare at load time and call
// RunInstance per request.
type Prepared struct {
	rc RunConfig
	// proto is the pristine loaded-but-never-executed program image. Each
	// run arena clones it once and restores from it between runs, instead
	// of re-running the program builder. proto itself is never executed
	// or mutated after Prepare returns.
	proto *prog.Program
	// Tables holds one immutable SharedTable per program module, in
	// module order (nil for a base run).
	Tables []*SharedTable
	// pf is the predictive signature prefetcher (PrepareRemote with
	// RunConfig.Prefetch.Depth > 0 over wire-lookup sources); nil
	// otherwise. Close stops it.
	pf *prefetch.Prefetcher

	// arenas is the freelist of reusable instance runs (arena.go): each
	// holds a cloned program plus every per-run structure, reset in place
	// between runs so steady-state instance runs are allocation-free. The
	// list grows to the peak number of concurrent runs and is then pure
	// reuse.
	arenaMu sync.Mutex
	arenas  []*runArena
}

// Prepare performs the per-workload preparation of Run once and freezes
// the result into an immutable Prepared. It builds the pristine program
// image; when rc.REV is set it also profiles a twin instance and builds
// every module's signature table (buildTables). A base run (rc.REV nil)
// keeps only the image: its instances run without an engine.
func Prepare(build func() (*prog.Program, error), rc RunConfig) (*Prepared, error) {
	if rc.MaxInstrs == 0 {
		rc.MaxInstrs = 1_000_000
	}
	// The analysis instance is only read (static analysis + table build),
	// so it is retained as the pristine clone prototype; the profiling
	// twin is executed and discarded.
	proto, err := build()
	if err != nil {
		return nil, fmt.Errorf("core: building program: %w", err)
	}
	p := &Prepared{rc: rc, proto: proto}
	if rc.REV == nil {
		return p, nil
	}
	profInstrs := rc.ProfileInstrs
	if profInstrs == 0 {
		profInstrs = rc.MaxInstrs
	}
	twin, err := build()
	if err != nil {
		return nil, fmt.Errorf("core: building profiling twin: %w", err)
	}
	profile, err := cfg.ProfileRun(twin, profInstrs)
	if err != nil {
		return nil, fmt.Errorf("core: profiling run: %w", err)
	}
	if p.Tables, err = buildTables(proto, profile, rc); err != nil {
		return nil, err
	}
	return p, nil
}

// buildTables is the trusted loader's per-module work (Sec. IV.B):
// complete each module's reference CFG from the profile plus static
// analysis of p (call/return pairing and jump-table recovery,
// Sec. IV.D), build and encrypt its signature table under the module's
// key, and freeze it into an immutable decrypted snapshot. Tables take
// consecutive page-aligned bases from prog.SigBase in module order.
func buildTables(p *prog.Program, profile *cfg.Profiler, rc RunConfig) ([]*SharedTable, error) {
	static := cfg.Analyze(p, cfg.DefaultAnalyzeOptions())
	ks := crypt.NewKeyStore(crypt.DeriveKey(rc.KeySeed, "cpu-private"))
	tables := make([]*SharedTable, 0, len(p.Modules))
	nextBase := prog.SigBase
	for i, mod := range p.Modules {
		bld := cfg.NewBuilder(mod, rc.REV.Limits)
		profile.Apply(bld)
		static.Apply(bld)
		g, err := bld.Build()
		if err != nil {
			return nil, fmt.Errorf("core: CFG for %s: %w", mod.Name, err)
		}
		tbl, img, err := sigtable.Build(g, rc.REV.Format, tableKey(rc.KeySeed, i, mod.Name), ks)
		if err != nil {
			return nil, fmt.Errorf("core: building table for %s: %w", mod.Name, err)
		}
		tbl.Base = nextBase
		snap, err := sigtable.SnapshotFromImage(tbl, img, ks)
		if err != nil {
			return nil, fmt.Errorf("core: snapshotting table for %s: %w", mod.Name, err)
		}
		tables = append(tables, &SharedTable{
			Module: mod.Name,
			Start:  mod.Base,
			Limit:  mod.Limit(),
			Table:  tbl,
			Snap:   snap,
		})
		nextBase += sigtable.SigBaseAlign(tbl.Size)
	}
	return tables, nil
}

// tableKey derives the i-th module's signature-table key from the run's
// key seed.
func tableKey(seed uint64, i int, module string) crypt.TableKey {
	return crypt.DeriveKey(seed, fmt.Sprintf("module-%d-%s", i, module))
}

// TableProvider resolves a module name to its signature-table metadata
// and lookup source — the remote-distribution seam. The in-process path
// (Prepare) builds tables locally; PrepareRemote instead asks a
// provider, typically a sigserve client connected to a revserved
// signature service, so the measurement side (this process) never needs
// the CFG analysis or the table keys at all: the verification authority
// lives out of process, as in remote-attestation designs (ScaRR,
// LO-FAT; see PAPERS.md).
//
// The returned Table must carry the base the serving side assigned
// (consecutive page-aligned slots from prog.SigBase in module order —
// the same rule Prepare uses), so miss-walk timing is identical to the
// local path. The Source must be safe for concurrent use by any number
// of engines.
type TableProvider interface {
	// Module returns the named module's table metadata and lookup
	// source.
	Module(name string) (*sigtable.Table, sigtable.Source, error)
}

// PrepareRemote builds a Prepared whose signature tables come from a
// TableProvider instead of a local build: the program is constructed
// once (the pristine clone prototype), and for each of its modules the
// provider supplies table metadata plus a concurrent-safe lookup
// source. No profiling run, CFG analysis, table build, or key material
// is needed on this side — that work happened wherever the provider's
// tables were built (e.g. inside revserved).
//
// A fleet over a PrepareRemote Prepared behaves exactly like one over
// Prepare: RunInstance works unchanged, and verdicts/figures are
// byte-identical to the in-process snapshot path as long as the
// provider serves the same tables.
func PrepareRemote(build func() (*prog.Program, error), rc RunConfig, tp TableProvider) (*Prepared, error) {
	if rc.REV == nil {
		return nil, fmt.Errorf("core: PrepareRemote requires rc.REV (nothing to validate for a base run)")
	}
	if tp == nil {
		return nil, fmt.Errorf("core: PrepareRemote requires a TableProvider")
	}
	if rc.MaxInstrs == 0 {
		rc.MaxInstrs = 1_000_000
	}
	analysis, err := build()
	if err != nil {
		return nil, fmt.Errorf("core: building program: %w", err)
	}
	p := &Prepared{rc: rc, proto: analysis}
	for _, mod := range analysis.Modules {
		tbl, src, err := tp.Module(mod.Name)
		if err != nil {
			return nil, fmt.Errorf("core: remote table for %s: %w", mod.Name, err)
		}
		if tbl.Format != rc.REV.Format {
			return nil, fmt.Errorf("core: remote table for %s is %v, run config wants %v",
				mod.Name, tbl.Format, rc.REV.Format)
		}
		p.Tables = append(p.Tables, &SharedTable{
			Module: mod.Name,
			Start:  mod.Base,
			Limit:  mod.Limit(),
			Table:  tbl,
			Src:    src,
		})
	}
	if rc.Prefetch.Depth > 0 {
		if err := p.attachPrefetcher(analysis); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// attachPrefetcher builds the predictive signature prefetcher over every
// module whose source resolves lookups over a wire (sigtable.BatchSource
// with RemoteLookups), and interposes its buffer-fronting facade as that
// module's engine-visible source. The prediction CFGs are built from
// static analysis alone — call/ret pairing and jump-table recovery on
// the never-executed analysis image — because PrepareRemote deliberately
// has no profiling run; computed targets static analysis cannot see are
// learned at run time through the predictor's MRU successor training.
// Snapshot-mode (or local) sources are left untouched: they have no
// latency to hide. When no module qualifies the Prepared simply carries
// no prefetcher.
func (p *Prepared) attachPrefetcher(analysis *prog.Program) error {
	static := cfg.Analyze(analysis, cfg.DefaultAnalyzeOptions())
	var mods []prefetch.Module
	var wrapped []*SharedTable
	for _, st := range p.Tables {
		bs, ok := st.Src.(sigtable.BatchSource)
		if !ok || !bs.RemoteLookups() {
			continue
		}
		var mod *prog.Module
		for _, m := range analysis.Modules {
			if m.Name == st.Module {
				mod = m
				break
			}
		}
		if mod == nil {
			return fmt.Errorf("core: prefetch: no program module named %s", st.Module)
		}
		bld := cfg.NewBuilder(mod, p.rc.REV.Limits)
		static.Apply(bld)
		g, err := bld.Build()
		if err != nil {
			return fmt.Errorf("core: prefetch CFG for %s: %w", st.Module, err)
		}
		mods = append(mods, prefetch.Module{Name: st.Module, Graph: g, Src: bs})
		wrapped = append(wrapped, st)
	}
	if len(mods) == 0 {
		return nil
	}
	pf, err := prefetch.New(p.rc.Prefetch, p.rc.REV.Format, mods, p.rc.Telemetry)
	if err != nil {
		return err
	}
	for _, st := range wrapped {
		st.Src = pf.SourceFor(st.Module)
	}
	p.pf = pf
	return nil
}

// Close releases background resources held by the Prepared — today the
// prefetch goroutine, when one was attached. Safe to call on any
// Prepared, more than once. Runs issued after Close still work: their
// lookups simply stop being predicted and fall back to blocking.
func (p *Prepared) Close() {
	if p.pf != nil {
		p.pf.Close()
	}
}

// PrefetchStats reports the prefetcher's cumulative counters; ok is
// false when the Prepared carries no prefetcher (local tables, snapshot
// sources, or Prefetch disabled).
func (p *Prepared) PrefetchStats() (prefetch.Stats, bool) {
	if p.pf == nil {
		return prefetch.Stats{}, false
	}
	return p.pf.Stats(), true
}

// Config returns a copy of the RunConfig the workload was prepared with.
func (p *Prepared) Config() RunConfig { return p.rc }

// InstanceOptions is the complete per-instance spec of one RunInstance
// call. The zero value runs serially with no telemetry and no evidence;
// the Prepared's RunConfig never supplies these settings (core.Run maps
// its own RunConfig onto them).
type InstanceOptions struct {
	// Lanes is the intra-run pipeline width (semantics as
	// RunConfig.Lanes: <0 auto, 0 serial, n>=1 lanes).
	Lanes int
	// Telemetry attaches the instance to a metrics registry and/or trace
	// recorder. A labeled Set gives each tenant its own trace tracks while
	// metric registrations land in the shared registry cells (the merged
	// fleet view). Telemetry-enabled instances allocate for handle
	// resolution and their run-end registry view, never per block;
	// results are byte-identical either way.
	Telemetry *telemetry.Set
	// Evidence streams the instance's attestation evidence. Emitters are
	// single-use: pass a fresh one per instance. Every instance of the
	// same Prepared produces a byte-identical stream.
	Evidence *evidence.Emitter
	// Out, when non-nil, receives the result in place of a fresh
	// allocation. Reusing one Result (and its Output backing) across
	// calls makes steady-state serial instance runs perform zero heap
	// allocations (pinned by TestRunInstanceZeroAllocs). The previous
	// contents are overwritten; the Result is valid until the caller
	// passes it to another run.
	Out *Result
}

// RunInstance executes one instance of the prepared workload. Safe to
// call from many goroutines concurrently — each concurrent call owns a
// private run arena, and instances share only the immutable Prepared
// state.
//
// Steady state reuses a run arena (arena.go): the cloned program and
// every per-run structure are reset in place rather than rebuilt.
// Results, verdicts, forensics, and evidence streams are byte-identical
// to a fresh build.
func (p *Prepared) RunInstance(o InstanceOptions) (*Result, error) {
	res := o.Out
	if res == nil {
		res = &Result{}
	}
	rc := p.rc
	rc.Lanes, rc.Telemetry, rc.Evidence = o.Lanes, o.Telemetry, o.Evidence
	a, err := p.acquireArena()
	if err != nil {
		return nil, err
	}
	defer p.releaseArena(a)
	if err := a.runInto(rc, res); err != nil {
		return nil, err
	}
	return res, nil
}

// AddSharedModule registers a prebuilt, immutable signature table with
// the engine and loads its SAG register group — the trusted loader's
// last step before execution (Sec. IV.B). The engine watches the
// module's text range for self-modifying-code memo invalidation, and the
// table's frozen base sets the record addresses its miss walks charge to
// the memory hierarchy.
func (e *Engine) AddSharedModule(st *SharedTable) error {
	e.Tables = append(e.Tables, st.Table)
	if e.cv != nil {
		// Any store landing inside the module's text bumps the
		// code-version epoch and invalidates memoized signatures
		// (self-modifying code, injection into existing code pages).
		// Limit addresses the final instruction; its bytes extend a word.
		e.cv.WatchCode(st.Start, st.Limit+uint64(isa.WordSize)-1)
	}
	src := st.Source()
	if src == nil {
		return fmt.Errorf("core: shared table for %s has neither Snap nor Src", st.Module)
	}
	e.sources = append(e.sources, moduleSource{
		module: st.Module, start: st.Start, limit: st.Limit, src: src,
	})
	if co, ok := src.(sigtable.CommitObserver); ok && e.commitObs == nil {
		// All prefetch facades feed the same predictor; the first one
		// registered carries the engine's commit stream.
		e.commitObs = co
	}
	return e.SAG.Register(&sag.Region{
		Module: st.Module,
		Start:  st.Start,
		Limit:  st.Limit,
		Reader: src,
	})
}

// Merge folds another engine's counters into s — the fleet's end-of-run
// aggregation step that turns per-worker engine statistics into one
// suite-level view.
func (s *Stats) Merge(o Stats) {
	s.ValidatedBlocks += o.ValidatedBlocks
	s.SkippedDisabled += o.SkippedDisabled
	s.RAMLookups += o.RAMLookups
	s.RecordsTouched += o.RecordsTouched
	s.SAGPenalties += o.SAGPenalties
	s.MemoHits += o.MemoHits
	s.MemoMisses += o.MemoMisses
}

// Merge folds another run's SC counters into v, recomputing the derived
// rate fields.
func (v *SCView) Merge(o SCView) {
	v.Probes += o.Probes
	v.Hits += o.Hits
	v.PartialMisses += o.PartialMisses
	v.CompleteMisses += o.CompleteMisses
	v.Misses = v.PartialMisses + v.CompleteMisses
	if v.Probes > 0 {
		v.MissRate = float64(v.Misses) / float64(v.Probes)
	}
}
