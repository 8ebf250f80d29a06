package main

import (
	"bytes"
	"fmt"
	"time"

	"rev/internal/core"
	"rev/internal/cpu"
	"rev/internal/evidence"
	"rev/internal/isa"
)

// serveShapes are the two programs of the serve workload: a
// gcc-shaped one with a large code footprint (about 15% signature-cache
// misses, 4-6% memo misses) and a loop-bound bzip2-shaped one (about 1%
// and 0.5%), both at the paper-matched size and a 1M-instruction budget.
var serveShapes = []shape{
	{name: "gcc", scale: 1, instrs: 1_000_000},
	{name: "bzip2", scale: 1, instrs: 1_000_000},
}

// served is one serve program after set-up.
type served struct {
	*program
	prep   *core.Prepared // the validator's tables (core.Prepare)
	tables []table        // the benchmark's own build of the same tables
	ref    *core.Result   // first instance; equals a fresh core.Run
	canary *core.Prepared // same tables, with a code byte changed mid-run
	out    core.Result    // reused instance result
	stream bytes.Buffer   // reused evidence stream
}

// canaryAt is the retired-instruction count at which the canary
// instance's code is changed.
const canaryAt = 100_000

// canaryHook flips the Rs2 byte of the instruction about to execute once
// canaryAt instructions have retired, and records its address. The
// changed word still decodes, so only validation can notice it.
func canaryHook(pc *uint64) func(m *cpu.Machine, at uint64, in isa.Instr) {
	return func(m *cpu.Machine, at uint64, in isa.Instr) {
		if m.Instret != canaryAt {
			return
		}
		var w [isa.WordSize]byte
		in.EncodeTo(w[:])
		w[3] ^= 0x01
		m.Mem.WriteBytes(at, w[:])
		*pc = at
	}
}

// setupServe generates, prepares and cross-checks the serve programs, and
// builds every program's tables a second time through the benchmark's
// own staged calls, for verifying evidence streams.
func setupServe(o options, r *run) ([]*served, *uint64, error) {
	canaryPC := new(uint64)
	var progs []*served
	for _, sh := range serveShapes {
		p, err := seededProgram(sh, o.seed)
		if err != nil {
			return nil, nil, err
		}
		s := &served{program: p}
		root := r.tr.begin("setup."+sh.name, 0, 0)
		if err := r.tr.do("core.prepare", root, 0, func() (err error) {
			s.prep, err = core.Prepare(p.profile.Builder(), p.rc)
			return err
		}); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", sh.name, err)
		}
		if s.tables, err = buildTables(p.profile.Builder(), p.rc, r.tr, root); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", sh.name, err)
		}
		var fresh *core.Result
		if err := r.tr.do("core.run_fresh", root, 0, func() (err error) {
			fresh, err = core.Run(p.profile.Builder(), p.rc)
			return err
		}); err != nil {
			return nil, nil, fmt.Errorf("%s: fresh run: %w", sh.name, err)
		}
		if s.ref, err = s.prep.RunInstance(core.InstanceOptions{}); err != nil {
			return nil, nil, fmt.Errorf("%s: first instance: %w", sh.name, err)
		}
		// The canary validator shares the prepared tables, so it checks
		// with exactly the tables the timed instances use.
		var shared tableProvider
		for _, st := range s.prep.Tables {
			shared = append(shared, table{module: st.Module, meta: st.Table, snap: st.Snap})
		}
		canaryRC := p.rc
		canaryRC.AttackHook = canaryHook(canaryPC)
		if s.canary, err = core.PrepareRemote(p.profile.Builder(), canaryRC, shared); err != nil {
			return nil, nil, fmt.Errorf("%s: canary: %w", sh.name, err)
		}
		r.tr.end(root)
		if err := checkReference(sh.name, s.ref, fresh); err != nil {
			return nil, nil, err
		}
		progs = append(progs, s)
	}
	return progs, canaryPC, nil
}

// checkClean requires a reference run of a legal program to validate
// cleanly and to halt with output inside its instruction budget.
func checkClean(name string, res *core.Result) error {
	switch {
	case res.Violation != nil:
		return checkf("%s: legal program flagged: %v", name, res.Violation)
	case !res.Halted || len(res.Output) == 0:
		return checkf("%s: program did not halt with output inside its instruction budget", name)
	case res.SourceNotes != nil:
		return checkf("%s: local tables reported source notes %v", name, res.SourceNotes)
	}
	return nil
}

// checkReference holds the first instance to the properties every later
// instance is compared against: it is clean and equals a fresh core.Run
// of the same program.
func checkReference(name string, first, fresh *core.Result) error {
	if err := checkClean(name, first); err != nil {
		return err
	}
	if d := diffResult(first, fresh); d != "" {
		return checkf("%s: first prepared instance differs from a fresh core.Run in %s", name, d)
	}
	return nil
}

// checkInstance holds a later instance to the first one.
func checkInstance(name string, res, ref *core.Result) error {
	if d := diffResult(res, ref); d != "" {
		return checkf("%s: instance differs from the first instance in %s", name, d)
	}
	return nil
}

// checkCanary requires the canary instance to be flagged with a hash
// violation in the block holding the changed instruction.
func checkCanary(name string, res *core.Result, pc uint64) error {
	v := res.Violation
	switch {
	case v == nil:
		return checkf("%s: canary with a changed code byte at %#x validated cleanly", name, pc)
	case v.Reason != core.ViolationHash:
		return checkf("%s: canary flagged %v, want %v", name, v.Reason, core.ViolationHash)
	case pc < v.BBStart || pc > v.BBEnd:
		return checkf("%s: canary flagged block [%#x,%#x], changed instruction at %#x", name, v.BBStart, v.BBEnd, pc)
	}
	return nil
}

// checkEvidence requires an attested instance's stream to verify against
// the benchmark's own tables with a passing verdict, covering exactly
// the blocks the engine validated and the pipeline committed.
func checkEvidence(name string, rep *evidence.Report, verr error, res *core.Result) error {
	switch {
	case verr != nil:
		return checkf("%s: evidence stream rejected: %v", name, verr)
	case rep.Outcome.Verdict != evidence.VerdictPass:
		return checkf("%s: evidence stream sealed verdict %v", name, rep.Outcome.Verdict)
	case rep.Blocks != res.Engine.ValidatedBlocks:
		return checkf("%s: evidence covers %d blocks, engine validated %d", name, rep.Blocks, res.Engine.ValidatedBlocks)
	case rep.Blocks != res.Pipe.BBCount:
		return checkf("%s: evidence covers %d blocks, pipeline committed %d", name, rep.Blocks, res.Pipe.BBCount)
	}
	return nil
}

// runServe validates instances of the two programs back to back on one
// goroutine. Each round runs a plain and an attested instance of each
// program, interleaved; an attested instance's time covers the run with
// its evidence stream and the stream's offline verification against the
// benchmark's own tables. One untimed canary instance per round, on the
// programs in turn, must be flagged.
func runServe(o options, r *run) error {
	progs, canaryPC, err := setupServe(o, r)
	if err != nil {
		return err
	}
	var bps []float64
	var plain, attested struct{ blocks, seconds float64 }
	var ev struct{ encode, bytes, stalls float64 }
	round := 0
	roundFn := func(tr *tracer) error {
		traced := tr != nil
		var blocks uint64
		var secs float64
		root := tr.begin("round", 0, 0)
		for _, s := range progs {
			for _, attest := range []bool{false, true} {
				t0 := time.Now()
				var em *evidence.Emitter
				if attest {
					s.stream.Reset()
					em = evidence.NewEmitter(&s.stream, evidence.Config{Binding: "perfbench"})
				}
				var res *core.Result
				err := tr.do("core.run", root, 0, func() (err error) {
					res, err = s.prep.RunInstance(core.InstanceOptions{Evidence: em, Out: &s.out})
					return err
				})
				var rep *evidence.Report
				var verr error
				if attest && err == nil {
					_ = tr.do("evidence.verify", root, 0, func() error {
						rep, verr = evidence.Verify(s.stream.Bytes(), evidence.VerifyConfig{Sources: sources(s.tables)})
						return nil
					})
				}
				d := time.Since(t0).Seconds()
				secs += d
				r.attempted++
				if err != nil {
					r.failed++
					continue
				}
				if err := checkInstance(s.name, res, s.ref); err != nil {
					return err
				}
				if attest {
					if err := checkEvidence(s.name, rep, verr, res); err != nil {
						return err
					}
				}
				blocks += res.Pipe.BBCount
				if !traced {
					continue
				}
				if attest {
					st := em.Stats()
					ev.encode += st.EncodeSeconds
					ev.bytes += float64(st.Bytes)
					ev.stalls += float64(st.RingStalls)
					attested.blocks += float64(res.Pipe.BBCount)
					attested.seconds += d
				} else {
					plain.blocks += float64(res.Pipe.BBCount)
					plain.seconds += d
				}
			}
		}
		tr.end(root)
		bps = append(bps, float64(blocks)/secs)
		r.noteRound(traced, secs, 1)
		// The canary is not timed.
		s := progs[round%len(progs)]
		round++
		*canaryPC = 0
		res, err := s.canary.RunInstance(core.InstanceOptions{})
		r.attempted++
		if err != nil {
			r.failed++
			return nil
		}
		return checkCanary(s.name, res, *canaryPC)
	}
	r.endSetup()
	if err := r.loop(roundFn); err != nil {
		return err
	}
	r.setE2E("blocks_per_s", "blocks/s", median(bps))
	if r.tr == nil {
		return nil
	}
	refs := make([]*core.Result, len(progs))
	for i, s := range progs {
		refs[i] = s.ref
	}
	r.setCounts(refs, 2) // a round runs each program twice
	r.setLayer("core.run_s", "s", r.perOp(r.tr.total("core.run")))
	r.setLayer("serve.plain_blocks_per_s", "blocks/s", plain.blocks/plain.seconds)
	r.setLayer("serve.attest_blocks_per_s", "blocks/s", attested.blocks/attested.seconds)
	r.setLayer("evidence.encode_s", "s", r.perOp(ev.encode))
	r.setLayer("evidence.verify_s", "s", r.perOp(r.tr.total("evidence.verify")))
	r.setLayer("evidence.bytes_per_block", "B/block", ev.bytes/attested.blocks)
	r.setLayer("evidence.ring_stalls", "count", r.perOp(ev.stalls))
	r.setSetupLayers()
	return r.finishTrace("serve", map[string]any{"engine": engineStats(refs)})
}

// engineStats lists each reference result's engine counters.
func engineStats(rs []*core.Result) []core.Stats {
	out := make([]core.Stats, len(rs))
	for i, r := range rs {
		out[i] = r.Engine
	}
	return out
}
