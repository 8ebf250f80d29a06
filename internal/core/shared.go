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
// RunInstance per request. Prepareds made from one Image share its
// prototype and, per format, its tables.
type Prepared struct {
	rc RunConfig
	// proto is the pristine loaded-but-never-executed program image. Each
	// run arena clones it once and restores from it between runs, instead
	// of re-running the program builder. proto itself is never executed
	// or mutated after Load returns.
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

// Image is the format-independent half of the trusted loader's work
// (Sec. IV.B) for one workload: the pristine program image and, for a
// REV load, each module's reference CFG completed from one profiling
// pass plus static analysis. The signature-table format and every
// microarchitectural parameter (the SC size among them) only matter
// later, so one Image serves every Prepared of its workload: Prepare
// signs the CFGs into tables once per format and shares them.
type Image struct {
	// rc is the load's configuration; Prepare checks its load-relevant
	// fields against every later request.
	rc    RunConfig
	proto *prog.Program
	// graphs holds one reference CFG per program module, in module order
	// (nil for a base load). Read-only after Load returns.
	graphs []*cfg.Graph

	// mu guards tables, the per-format memo of signed, snapshotted
	// tables. It is held across a build, so concurrent Prepare calls
	// build each format's tables exactly once.
	mu     sync.Mutex
	tables map[sigtable.Format][]*SharedTable
}

// Load performs the format-independent loader work once: it calls build
// once for the pristine program image and, when rc.REV is set, profiles
// a clone of it (the profiling pass that discovers computed-control-flow
// targets, Sec. IV.D), analyzes the image statically, and completes
// every module's reference CFG (buildGraphs). A base load (rc.REV nil)
// keeps only the image.
func Load(build func() (*prog.Program, error), rc RunConfig) (*Image, error) {
	if rc.MaxInstrs == 0 {
		rc.MaxInstrs = 1_000_000
	}
	proto, err := build()
	if err != nil {
		return nil, fmt.Errorf("core: building program: %w", err)
	}
	img := &Image{rc: rc, proto: proto, tables: make(map[sigtable.Format][]*SharedTable)}
	if rc.REV == nil {
		return img, nil
	}
	profInstrs := rc.ProfileInstrs
	if profInstrs == 0 {
		profInstrs = rc.MaxInstrs
	}
	// The profiling pass executes a clone, so the prototype stays pristine.
	profile, err := cfg.ProfileRun(proto.Clone(), profInstrs)
	if err != nil {
		return nil, fmt.Errorf("core: profiling run: %w", err)
	}
	if img.graphs, err = buildGraphs(proto, profile, rc.REV.Limits); err != nil {
		return nil, err
	}
	return img, nil
}

// Prepare freezes the image into a Prepared for rc. A REV rc gets the
// tables of rc.REV.Format, signed and snapshotted on the first request
// for that format and shared by every later one; a base rc gets the
// prototype only. rc must agree with the load on every field the load
// used — MaxInstrs, ProfileInstrs, KeySeed and REV.Limits — and may ask
// for REV only of a REV load; anything else is an error.
func (img *Image) Prepare(rc RunConfig) (*Prepared, error) {
	if rc.MaxInstrs == 0 {
		rc.MaxInstrs = 1_000_000
	}
	if err := img.check(rc); err != nil {
		return nil, err
	}
	p := &Prepared{rc: rc, proto: img.proto}
	if rc.REV == nil {
		return p, nil
	}
	img.mu.Lock()
	defer img.mu.Unlock()
	tables, ok := img.tables[rc.REV.Format]
	if !ok {
		var err error
		if tables, err = signTables(img.graphs, rc.REV.Format, rc.KeySeed); err != nil {
			return nil, err
		}
		img.tables[rc.REV.Format] = tables
	}
	p.Tables = tables
	return p, nil
}

// check rejects a run config the image was not loaded for.
func (img *Image) check(rc RunConfig) error {
	l := img.rc
	switch {
	case rc.MaxInstrs != l.MaxInstrs:
		return fmt.Errorf("core: run config wants MaxInstrs %d, image loaded with %d", rc.MaxInstrs, l.MaxInstrs)
	case rc.ProfileInstrs != l.ProfileInstrs:
		return fmt.Errorf("core: run config wants ProfileInstrs %d, image loaded with %d", rc.ProfileInstrs, l.ProfileInstrs)
	case rc.KeySeed != l.KeySeed:
		return fmt.Errorf("core: run config wants KeySeed %#x, image loaded with %#x", rc.KeySeed, l.KeySeed)
	case rc.REV == nil:
		return nil
	case l.REV == nil:
		return fmt.Errorf("core: run config wants REV, image loaded for a base run")
	case rc.REV.Limits != l.REV.Limits:
		return fmt.Errorf("core: run config wants block limits %+v, image loaded with %+v", rc.REV.Limits, l.REV.Limits)
	}
	return nil
}

// Prepare is Load followed by Image.Prepare: the per-workload
// preparation of Run, frozen into an immutable Prepared. The builder is
// called once; when rc.REV is set the profiling pass runs on a clone of
// the built image.
func Prepare(build func() (*prog.Program, error), rc RunConfig) (*Prepared, error) {
	img, err := Load(build, rc)
	if err != nil {
		return nil, err
	}
	return img.Prepare(rc)
}

// buildGraphs is the format-independent half of the trusted loader's
// per-module work (Sec. IV.B): complete each module's reference CFG from
// the profile plus static analysis of p (call/return pairing and
// jump-table recovery, Sec. IV.D), split at limits.
func buildGraphs(p *prog.Program, profile *cfg.Profiler, limits cfg.Limits) ([]*cfg.Graph, error) {
	static := cfg.Analyze(p, cfg.DefaultAnalyzeOptions())
	graphs := make([]*cfg.Graph, len(p.Modules))
	for i, mod := range p.Modules {
		bld := cfg.NewBuilder(mod, limits)
		profile.Apply(bld)
		static.Apply(bld)
		g, err := bld.Build()
		if err != nil {
			return nil, fmt.Errorf("core: CFG for %s: %w", mod.Name, err)
		}
		graphs[i] = g
	}
	return graphs, nil
}

// signTables finishes the loader's per-module work for one format: build
// and encrypt each module's signature table from its CFG under the
// module's key, and freeze it into an immutable decrypted snapshot.
// Tables take consecutive page-aligned bases from prog.SigBase in module
// order. The graphs are only read.
func signTables(graphs []*cfg.Graph, format sigtable.Format, keySeed uint64) ([]*SharedTable, error) {
	ks := crypt.NewKeyStore(crypt.DeriveKey(keySeed, "cpu-private"))
	tables := make([]*SharedTable, 0, len(graphs))
	nextBase := prog.SigBase
	for i, g := range graphs {
		mod := g.Module
		tbl, img, err := sigtable.Build(g, format, tableKey(keySeed, i, mod.Name), ks)
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
