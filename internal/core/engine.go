// Package core implements REV itself — the paper's contribution: the
// run-time execution validator that wires the signature cache, the
// pipelined crypto hash generator, the signature address generation unit
// and the encrypted RAM signature tables into the out-of-order pipeline.
//
// The Engine validates every committed dynamic basic block: the crypto hash
// of its fetched instruction bytes, the legality of computed control-flow
// targets, and — via the paper's delayed return validation (Sec. V.A) —
// that every return lands at a block that names the returning RET
// instruction as a legal predecessor. Memory updates from a block are
// deferred until the block validates (requirement R5), modeled by the
// pipeline's post-commit ROB and store-queue extensions.
package core

import (
	"fmt"

	"rev/internal/cfg"
	"rev/internal/chash"
	"rev/internal/cpu"
	"rev/internal/evidence"
	"rev/internal/forensics"
	"rev/internal/isa"
	"rev/internal/mem"
	"rev/internal/prog"
	"rev/internal/sag"
	"rev/internal/sigcache"
	"rev/internal/sigtable"
)

// Config parameterizes the REV hardware.
type Config struct {
	// Format selects validation coverage: Normal, Aggressive, or CFIOnly.
	Format sigtable.Format
	// SC sizes the signature cache (32 KB / 64 KB in the evaluation).
	SC sigcache.Config
	// SAG sizes the cross-module register file.
	SAG sag.Config
	// CHGLatency is H, the hash-generator pipeline depth (16 in Sec. VI).
	CHGLatency uint64
	// DecryptLatency is charged per signature-table record decrypted
	// during an SC miss (the AES unit is pipelined; a couple of cycles per
	// 16-byte block).
	DecryptLatency uint64
	// Limits are the artificial block split limits; they must match the
	// limits used when building the signature tables and the pipeline's.
	Limits cfg.Limits
	// Forensics, when enabled, captures the offending block of every
	// violation (bytes, disassembly, signature) — the paper's Sec. X
	// suggestion that failed validations reveal reusable attack
	// signatures.
	Forensics bool
	// Blacklist, when non-nil, is checked before table validation: blocks
	// whose signature matches a previously captured attack fingerprint are
	// rejected immediately, even at addresses the attack never used.
	Blacklist *forensics.Blacklist
	// MemoEntries sizes the engine's memoized basic-block signature cache
	// (direct-mapped; rounded up to a power of two). 0 selects
	// DefaultMemoEntries. The memo is a functional, simulator-speed cache
	// only — timing and detection are identical with any size (collisions
	// merely force a recompute). It is only consulted when the address
	// space implements prog.CodeVersioner, which provides the
	// self-modifying-code invalidation epoch.
	MemoEntries int
}

// DefaultConfig is the paper's default REV: normal format, 32 KB SC, H=16.
func DefaultConfig() Config {
	return Config{
		Format:         sigtable.Normal,
		SC:             sigcache.DefaultConfig(),
		SAG:            sag.DefaultConfig(),
		CHGLatency:     16,
		DecryptLatency: 2,
		Limits:         cfg.DefaultLimits(),
	}
}

// ViolationReason classifies a detected compromise (Table 1).
type ViolationReason int

const (
	// ViolationHash: the block's instruction bytes (or the block itself)
	// do not match any reference signature — code injection, or control
	// flow through a block unknown to static analysis (gadget execution).
	ViolationHash ViolationReason = iota
	// ViolationTarget: a computed jump/call went to an address not in the
	// block's legal target set (JOP, VTable compromise).
	ViolationTarget
	// ViolationReturn: a return landed at a block that does not list the
	// returning RET as a predecessor (ROP, return-to-libc).
	ViolationReturn
	// ViolationModule: the executing address is covered by no registered
	// module (illegal dynamic linking / jump outside known code).
	ViolationModule
	// ViolationBlacklist: the block matches a previously captured attack
	// fingerprint (forensics blacklist hit).
	ViolationBlacklist
)

// String names the violation class for forensics and error text.
func (r ViolationReason) String() string {
	switch r {
	case ViolationHash:
		return "hash-mismatch"
	case ViolationTarget:
		return "illegal-computed-target"
	case ViolationReturn:
		return "illegal-return"
	case ViolationModule:
		return "unknown-module"
	case ViolationBlacklist:
		return "blacklisted-signature"
	}
	return "?"
}

// Violation is the validation-failure exception REV raises.
type Violation struct {
	Reason  ViolationReason
	BBStart uint64
	BBEnd   uint64
	Target  uint64 // offending target/predecessor where applicable
}

// Error renders the violation with its block extent and offending
// address.
func (v *Violation) Error() string {
	return fmt.Sprintf("rev: validation failed (%s) in block [%#x,%#x], offending address %#x",
		v.Reason, v.BBStart, v.BBEnd, v.Target)
}

// Stats counts engine activity.
type Stats struct {
	ValidatedBlocks uint64
	SkippedDisabled uint64
	RAMLookups      uint64
	RecordsTouched  uint64
	SAGPenalties    uint64
	// MemoHits/MemoMisses count signature-memo outcomes; MemoMisses
	// includes first-touch fills, collision evictions, and code-version
	// (self-modifying code) invalidations.
	MemoHits   uint64
	MemoMisses uint64
}

// Engine is the REV hardware model.
type Engine struct {
	Cfg  Config
	Mem  prog.AddressSpace
	Hier *mem.Hierarchy
	SC   *sigcache.Cache
	SAG  *sag.Unit
	CHG  *chash.CHG

	// Tables lists the registered per-module signature tables (size
	// accounting for the Sec. V experiments).
	Tables []*sigtable.Table
	// Log holds captured violation evidence when Cfg.Forensics is set.
	Log forensics.Log

	Stats Stats

	// tel carries the run's pre-resolved telemetry handles (nil when
	// telemetry is off — every emission site is one nil check).
	tel *runTelemetry

	enabled bool
	// Delayed return validation state: the address of the RET instruction
	// that terminated the previous block, latched until the first block of
	// the caller validates (Sec. V.A).
	pendingRet    uint64
	pendingRetSet bool

	bbTag uint64

	// sources records every registered signature source alongside its
	// module name so end-of-run health annotations (remote sources that
	// degraded to a cached snapshot) can be collected into the Result.
	sources []moduleSource

	// commitObs, when non-nil, hears about every committed block (a
	// prefetch predictor training itself on observed control flow). Set
	// by AddSharedModule when a registered source implements
	// sigtable.CommitObserver; the call is non-blocking by contract.
	commitObs sigtable.CommitObserver

	// ev, when non-nil, receives every committed block (with its
	// signature) and every validation-state fence as attestation
	// evidence — the same commit-path seam as commitObs, with the same
	// contract: one nil check on the hot path, the emitter's ring
	// absorbs the hand-off. Set by the run driver (executeInto/RunThreads)
	// from RunConfig.Evidence.
	ev *evidence.Emitter

	// Signature memoization (functional hot-path cache, see memo.go):
	// memo holds per-block signatures; cv is the address space's
	// code-version epoch source (nil when the space cannot report code
	// mutations, in which case every block is recomputed as before).
	memo *sigMemo
	cv   prog.CodeVersioner
	// codeBuf is the reusable scratch for a block's instruction bytes on
	// the memo-miss path (no per-block allocation).
	codeBuf []byte
	// lookScratch is the reusable decode backing for SC-miss table walks:
	// in-process sources (Reader/Snapshot) fill it instead of allocating
	// per walk. Entries decoded into it are consumed before the next walk
	// (timing charge + SC.Fill, which copies into slab-carved MRU lists).
	lookScratch sigtable.Scratch
	// edgeBuf backs the one-element target list a CFI-only edge fill
	// installs, avoiding a per-edge-miss allocation.
	edgeBuf [1]uint64
	// deferForensics suppresses in-hook evidence capture; the pipelined
	// executor sets it and, when pendingCapture was latched by violate,
	// captures after the producer goroutine joins (capture reads simulated
	// memory, which the producer still owns when a violation retires).
	deferForensics bool
	pendingCapture bool

	// modRanges memoizes moduleRanges (the evidence Begin path), rebuilt
	// only when a registration changed the source list.
	modRanges []evidence.ModuleRange
}

// NewEngine creates a REV engine over a program's memory and hierarchy.
// It validates nothing until modules are registered (AddSharedModule).
func NewEngine(cfg Config, pmem prog.AddressSpace, hier *mem.Hierarchy) *Engine {
	cv, _ := pmem.(prog.CodeVersioner)
	return &Engine{
		Cfg:     cfg,
		Mem:     pmem,
		Hier:    hier,
		SC:      sigcache.New(cfg.SC),
		SAG:     sag.New(cfg.SAG),
		CHG:     chash.NewCHG(cfg.CHGLatency),
		enabled: true,
		memo:    newSigMemo(cfg.MemoEntries),
		cv:      cv,
	}
}

// Enabled reports whether validation is active.
func (e *Engine) Enabled() bool { return e.enabled }

// OnContextSwitch clears the delayed-return latch: it is per-thread
// microarchitectural state (in hardware it would be saved and restored
// with the context; the switch path itself runs through validated kernel
// code, so dropping the latch loses no protection). With evidence
// attached, the switch is recorded as a fence so an offline verifier
// clears its replayed latch at the same point.
func (e *Engine) OnContextSwitch() {
	e.pendingRetSet = false
	if e.ev != nil {
		e.ev.Fence(evidence.FenceContextSwitch, 0)
	}
}

// SysHandler implements REV's two system calls (Sec. VII): enabling or
// disabling validation (for trusted self-modifying code windows), and
// loading table registers (a no-op here because module registration
// pre-loads them; the call is accepted for binary compatibility).
func (e *Engine) SysHandler(service int32, arg uint64) {
	switch service {
	case isa.SysREVEnable:
		was := e.enabled
		e.enabled = arg != 0
		if !e.enabled {
			e.pendingRetSet = false
		}
		// Actual transitions become evidence fences: the verifier must
		// know where the unvalidated window lies (and clear its replayed
		// return latch at the disable point, as the engine just did).
		if e.ev != nil && was != e.enabled {
			if e.enabled {
				e.ev.Fence(evidence.FenceEnable, arg)
			} else {
				e.ev.Fence(evidence.FenceDisable, arg)
			}
		}
	case isa.SysREVSetTable:
		// Register groups are loaded by the trusted loader in this model.
	}
}

// Hook is the cpu.BBHook: validate one dynamic basic block. It returns the
// cycle at which validation data is ready; the pipeline stalls the block's
// commit until then.
func (e *Engine) Hook(info cpu.BBInfo) (uint64, error) {
	if !e.enabled {
		e.Stats.SkippedDisabled++
		return 0, nil
	}
	if e.Cfg.Format == sigtable.CFIOnly {
		return e.hookCFIOnly(info)
	}
	return e.hookHashed(info)
}

// scratch returns the engine's reusable code-byte buffer, sized to n bytes
// (growing its backing array only when a larger block than any seen before
// arrives; no steady-state allocation).
func (e *Engine) scratch(n int) []byte {
	if cap(e.codeBuf) < n {
		e.codeBuf = make([]byte, n)
	}
	return e.codeBuf[:n]
}

// violate raises a violation, capturing forensic evidence when enabled.
// Capture is deferred in pipelined mode: the producer goroutine is still
// mutating simulated memory, so the executor re-captures after it joins
// (see pipeline.go).
func (e *Engine) violate(reason ViolationReason, info cpu.BBInfo, offending uint64) error {
	if e.tel != nil {
		e.tel.violationEvent(reason)
	}
	if e.Cfg.Forensics {
		if e.deferForensics {
			e.pendingCapture = true
		} else {
			e.Log.Capture(reason.String(), info.Start, info.End, offending, e.Mem)
		}
	}
	return &Violation{Reason: reason, BBStart: info.Start, BBEnd: info.End, Target: offending}
}

// blockSig returns the block's signature (and, when a blacklist is
// installed, its position-independent code fingerprint), memoized per
// code-version epoch.
//
// The CHG hashes the bytes as fetched; functionally we read them from
// simulated memory, which is exactly what the fetch unit saw. Stores into
// watched text invalidate the memo, so tampered bytes are always rehashed
// (see memo.go).
func (e *Engine) blockSig(info cpu.BBInfo) (sig, codeSig chash.Sig, codeSigValid bool) {
	if e.cv != nil {
		epoch := e.cv.CodeVersion()
		ent, hit := e.memo.lookup(info.Start, info.End, epoch)
		if hit && (e.Cfg.Blacklist == nil || ent.codeValid) {
			e.Stats.MemoHits++
			return ent.sig, ent.codeSig, ent.codeValid
		}
		e.Stats.MemoMisses++
		code := e.scratch(info.NumInstrs * isa.WordSize)
		e.Mem.ReadBytes(info.Start, code)
		chash.BBSignatureInto(&sig, code, info.Start, info.End)
		*ent = sigMemoEntry{
			start: info.Start, end: info.End, epoch: epoch,
			valid: true, sig: sig,
		}
		if e.Cfg.Blacklist != nil {
			codeSig = forensics.CodeSig(code)
			codeSigValid = true
			ent.codeSig, ent.codeValid = codeSig, true
		}
		return sig, codeSig, codeSigValid
	}
	// The address space cannot report code mutations: recompute every
	// block, exactly as the un-memoized engine did.
	code := e.scratch(info.NumInstrs * isa.WordSize)
	e.Mem.ReadBytes(info.Start, code)
	chash.BBSignatureInto(&sig, code, info.Start, info.End)
	if e.Cfg.Blacklist != nil {
		codeSig = forensics.CodeSig(code)
		codeSigValid = true
	}
	return sig, codeSig, codeSigValid
}

func (e *Engine) hookHashed(info cpu.BBInfo) (uint64, error) {
	sig, codeSig, codeSigValid := e.blockSig(info)
	return e.validateHashed(info, sig, codeSig, codeSigValid)
}

// HookPrecomputed is the intra-run pipeline's validation entry point: the
// block's signature was computed asynchronously by a hash lane (from bytes
// the producer captured at publish time under the recorded code-version
// epoch), and the reorder buffer retires the verdict here in program
// order. Timing, detection, and SC behaviour are identical to Hook.
func (e *Engine) HookPrecomputed(info cpu.BBInfo, job *chash.BlockJob) (uint64, error) {
	if !e.enabled {
		e.Stats.SkippedDisabled++
		return 0, nil
	}
	if e.Cfg.Format == sigtable.CFIOnly {
		return e.hookCFIOnly(info)
	}
	return e.validateHashed(info, job.Sig, job.CodeSig, job.NeedCode)
}

// MergeLaneMemoStats folds the hash lanes' sharded memo counters into the
// engine statistics at the end of a pipelined run (the serial path counts
// directly in blockSig).
func (e *Engine) MergeLaneMemoStats(hits, misses uint64) {
	e.Stats.MemoHits += hits
	e.Stats.MemoMisses += misses
}

// validateHashed performs every validation step that follows signature
// acquisition: CHG timing, SAG region lookup, blacklist probes, SC probe
// and miss walk, delayed-return latching. It is shared by the serial path
// (signature from the engine memo) and the pipelined path (signature from
// an async hash lane).
func (e *Engine) validateHashed(info cpu.BBInfo, sig, codeSig chash.Sig, codeSigValid bool) (uint64, error) {
	e.bbTag++
	e.CHG.Feed(e.bbTag, info.FirstFetch)
	e.CHG.Feed(e.bbTag, info.LastFetch)
	hashReady, _ := e.CHG.ReadyAt(e.bbTag)
	e.CHG.Retire(e.bbTag)

	region, sagPen, ok := e.SAG.Lookup(info.End)
	if !ok {
		return 0, e.violate(ViolationModule, info, info.End)
	}
	if sagPen > 0 {
		e.Stats.SAGPenalties++
	}

	// Known-attack fingerprint check (Sec. X): repeat payloads are
	// rejected outright, wherever they were injected. Both probes are map
	// lookups on every execution; only the hashing is memoized.
	if e.Cfg.Blacklist != nil {
		if _, hit := e.Cfg.Blacklist.MatchPlaced(sig); hit {
			return 0, e.violate(ViolationBlacklist, info, info.Start)
		}
		if codeSigValid {
			if _, hit := e.Cfg.Blacklist.MatchCodeSig(codeSig); hit {
				return 0, e.violate(ViolationBlacklist, info, info.Start)
			}
		}
	}

	// Which addresses must be validated explicitly?
	need := sigcache.Need{}
	switch {
	case info.Term == isa.KindRet:
		// Delayed return validation: latch the RET address; the landing
		// block validates it as its predecessor. No target walk here.
	case info.Term.IsComputed():
		need.CheckTarget = true
		need.Target = info.NextPC
	case e.Cfg.Format == sigtable.Aggressive &&
		info.Term.IsControlFlow() && info.Term != isa.KindHalt:
		need.CheckTarget = true
		need.Target = info.NextPC
	}
	if e.pendingRetSet {
		need.CheckPred = true
		need.Pred = e.pendingRet
	}

	scReady := info.LastFetch
	if pr := e.SC.Probe(info.End, sig, need); pr != sigcache.Hit {
		if e.tel != nil {
			e.tel.missWalkBegin(pr == sigcache.PartialMiss)
		}
		want := sigtable.Want{
			Target: need.Target, CheckTarget: need.CheckTarget,
			Pred: need.Pred, CheckPred: need.CheckPred,
		}
		entry, touched, lerr := e.lookupSource(region.Reader, info.End, sig, want)
		e.Stats.RAMLookups++
		e.Stats.RecordsTouched += uint64(len(touched))
		// Timing: the miss walk goes through the memory hierarchy record
		// by record, decrypting each.
		t := info.LastFetch
		for _, a := range touched {
			t = e.Hier.SC(a, t) + e.Cfg.DecryptLatency
		}
		scReady = t
		if e.tel != nil {
			e.tel.missWalkEnd(len(touched), scReady-info.LastFetch)
		}
		if lerr != nil {
			if sigtable.IsMiss(lerr) {
				return 0, e.violate(ViolationHash, info, info.End)
			}
			// The source could not answer (remote endpoint down with no
			// cached fallback): no verdict exists. Abort the run with a
			// transport error — never a violation, never a silent pass.
			return 0, fmt.Errorf("core: signature source for %s: %w", region.Module, lerr)
		}
		if need.CheckTarget && !contains(entry.Targets, need.Target) {
			return 0, e.violate(ViolationTarget, info, need.Target)
		}
		if need.CheckPred && !contains(entry.RetPreds, need.Pred) {
			return 0, e.violate(ViolationReturn, info, need.Pred)
		}
		e.SC.Fill(entry, need)
	}

	e.pendingRetSet = info.Term == isa.KindRet
	if e.pendingRetSet {
		e.pendingRet = info.End
	}
	e.Stats.ValidatedBlocks++
	if e.commitObs != nil {
		e.commitObs.ObserveCommit(info.End, info.NextPC, info.Term)
	}
	if e.ev != nil {
		e.ev.Commit(info.End, info.NextPC, info.Term, sig)
	}

	ready := maxU(hashReady, scReady) + sagPen
	return ready, nil
}

// lookupSource dispatches an SC-miss walk, steering in-process sources
// through the engine's reusable scratch (allocation-free steady state);
// sources without the scratch interface — remote, or wrapped — keep the
// allocating path, whose cost transport dominates anyway.
func (e *Engine) lookupSource(src sigtable.Source, end uint64, sig chash.Sig, want sigtable.Want) (sigtable.Entry, []uint64, error) {
	if ss, ok := src.(sigtable.ScratchSource); ok {
		return ss.LookupScratch(end, sig, want, &e.lookScratch)
	}
	return src.Lookup(end, sig, want)
}

// lookupEdgeSource is lookupSource for CFI-only edge walks.
func (e *Engine) lookupEdgeSource(src sigtable.Source, from, to uint64) ([]uint64, error) {
	if ss, ok := src.(sigtable.ScratchSource); ok {
		return ss.LookupEdgeScratch(from, to, &e.lookScratch)
	}
	return src.LookupEdge(from, to)
}

// hookCFIOnly validates only computed control-flow edges (Sec. V.D): no
// hashes, no direct-branch work, tiny tables. The SC caches recently
// validated edges keyed by the source block's terminator.
func (e *Engine) hookCFIOnly(info cpu.BBInfo) (uint64, error) {
	if !info.Term.IsComputed() {
		return 0, nil
	}
	region, sagPen, ok := e.SAG.Lookup(info.End)
	if !ok {
		return 0, e.violate(ViolationModule, info, info.End)
	}
	need := sigcache.Need{CheckTarget: true, Target: info.NextPC}
	scReady := info.LastFetch
	if e.SC.Probe(info.End, 0, need) != sigcache.Hit {
		if e.tel != nil {
			e.tel.edgeWalkBegin()
		}
		touched, lerr := e.lookupEdgeSource(region.Reader, info.End, info.NextPC)
		e.Stats.RAMLookups++
		e.Stats.RecordsTouched += uint64(len(touched))
		t := info.LastFetch
		for _, a := range touched {
			t = e.Hier.SC(a, t) + e.Cfg.DecryptLatency
		}
		scReady = t
		if e.tel != nil {
			e.tel.missWalkEnd(len(touched), scReady-info.LastFetch)
		}
		if lerr != nil {
			if !sigtable.IsMiss(lerr) {
				// No verdict: the source could not be consulted (see
				// validateHashed). Distinct from any Violation.
				return 0, fmt.Errorf("core: signature source for %s: %w", region.Module, lerr)
			}
			reason := ViolationTarget
			if info.Term == isa.KindRet {
				reason = ViolationReturn
			}
			return 0, e.violate(reason, info, info.NextPC)
		}
		e.edgeBuf[0] = info.NextPC
		e.SC.Fill(sigtable.Entry{End: info.End, Hash: 0, Targets: e.edgeBuf[:]}, need)
	}
	e.Stats.ValidatedBlocks++
	if e.commitObs != nil {
		e.commitObs.ObserveCommit(info.End, info.NextPC, info.Term)
	}
	if e.ev != nil {
		// CFI-only hashes nothing; the tuple carries a zero signature.
		e.ev.Commit(info.End, info.NextPC, info.Term, 0)
	}
	return scReady + sagPen, nil
}

// moduleSource couples a registered signature source with its module
// name and code range, for post-run health annotation collection and
// for the evidence genesis record's module map.
type moduleSource struct {
	module       string
	start, limit uint64
	src          sigtable.Source
}

// moduleRanges returns the registered modules' code ranges in
// registration order — the module map the evidence genesis record
// attests (mirroring the SAG limit registers). Memoized: registrations
// only ever append, so the slice is rebuilt at most once per module set
// and an arena-reused engine starts its evidence stream allocation-free.
func (e *Engine) moduleRanges() []evidence.ModuleRange {
	if len(e.modRanges) != len(e.sources) {
		e.modRanges = make([]evidence.ModuleRange, len(e.sources))
		for i, ms := range e.sources {
			e.modRanges[i] = evidence.ModuleRange{Name: ms.module, Start: ms.start, Limit: ms.limit}
		}
	}
	return e.modRanges
}

// Reset returns the engine to the state it had immediately after
// construction and module registration, for run-arena reuse. Statistics,
// the validation latches, forensics, the signature memo, SC, SAG, and
// CHG all clear in place; the forensics log drops its backing (captures
// alias Results handed to callers). The caller must have reset the
// address space first (prog.Memory.ResetFrom): Reset then re-watches
// every module text range in registration order, reproducing the
// fresh-build code-version epoch sequence exactly — which is also why
// the memo must clear (stale entries could hit under recycled epochs).
func (e *Engine) Reset() {
	e.Stats = Stats{}
	e.Log = forensics.Log{}
	e.tel = nil
	e.ev = nil
	e.enabled = true
	e.pendingRet, e.pendingRetSet = 0, false
	e.bbTag = 0
	e.deferForensics, e.pendingCapture = false, false
	e.memo.clear()
	e.SC.Reset()
	e.SAG.Reset()
	e.CHG.Reset()
	if e.cv != nil {
		for _, ms := range e.sources {
			e.cv.WatchCode(ms.start, ms.limit+uint64(isa.WordSize)-1)
		}
	}
}

// SourceNotes collects the health annotations of every registered
// signature source that implements sigtable.HealthReporter — e.g. a
// remote source that degraded to its locally cached snapshot mid-run.
// Local Reader/Snapshot sources report nothing. The slice is nil when
// every source is healthy, so the common case stays allocation-free.
func (e *Engine) SourceNotes() []sigtable.SourceNote {
	var notes []sigtable.SourceNote
	for _, ms := range e.sources {
		if hr, ok := ms.src.(sigtable.HealthReporter); ok {
			if note, any := hr.HealthNote(); any {
				if note.Module == "" {
					note.Module = ms.module
				}
				notes = append(notes, note)
			}
		}
	}
	return notes
}

func contains(list []uint64, a uint64) bool {
	for _, x := range list {
		if x == a {
			return true
		}
	}
	return false
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
