package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"rev/internal/cpu"
	"rev/internal/evidence"
	"rev/internal/isa"
	"rev/internal/prog"
	"rev/internal/sigtable"
)

// evidenceSources adapts a Prepared's shared tables into the verifier's
// per-module source map.
func evidenceSources(p *Prepared) map[string]sigtable.Source {
	m := make(map[string]sigtable.Source, len(p.Tables))
	for _, st := range p.Tables {
		m[st.Module] = st.Source()
	}
	return m
}

func TestEvidenceRoundTripAllFormats(t *testing.T) {
	for _, format := range []sigtable.Format{sigtable.Normal, sigtable.Aggressive, sigtable.CFIOnly} {
		t.Run(format.String(), func(t *testing.T) {
			rc := DefaultRunConfig()
			rc.MaxInstrs = 60_000
			rc.REV = revConfig(format, 8)
			prep, err := Prepare(builderOf(loopProgram), rc)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			em := evidence.NewEmitter(&buf, evidence.Config{Tenant: "t1", Binding: "test"})
			res, err := prep.RunInstance(InstanceOptions{Evidence: em})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != nil {
				t.Fatalf("clean run flagged: %v", res.Violation)
			}

			g, err := evidence.Peek(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if g.Format != format || g.Tenant != "t1" || g.Binding != "test" {
				t.Fatalf("genesis = %+v", g)
			}
			rep, err := evidence.Verify(buf.Bytes(), evidence.VerifyConfig{
				Tenant:  "t1",
				Sources: evidenceSources(prep),
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Outcome.Verdict != evidence.VerdictPass || !rep.Outcome.Halted {
				t.Fatalf("outcome = %+v", rep.Outcome)
			}
			if rep.Blocks != res.Engine.ValidatedBlocks {
				t.Errorf("evidence blocks = %d, engine validated %d", rep.Blocks, res.Engine.ValidatedBlocks)
			}
			if st := em.Stats(); st.Blocks != rep.Blocks || st.Records != uint64(rep.Records) {
				t.Errorf("emitter stats %+v vs report %+v", st, rep)
			}
		})
	}
}

// TestEvidenceIdentityAcrossConfigs pins the stream-level determinism
// invariant: serial, every lane count, and concurrent fleet instances
// emit byte-identical evidence (the same invariant CI enforces for
// results).
func TestEvidenceIdentityAcrossConfigs(t *testing.T) {
	for _, format := range []sigtable.Format{sigtable.Normal, sigtable.Aggressive, sigtable.CFIOnly} {
		t.Run(format.String(), func(t *testing.T) {
			rc := DefaultRunConfig()
			rc.MaxInstrs = 60_000
			rc.REV = revConfig(format, 8)
			prep, err := Prepare(builderOf(loopProgram), rc)
			if err != nil {
				t.Fatal(err)
			}
			stream := func(lanes int) []byte {
				t.Helper()
				var buf bytes.Buffer
				em := evidence.NewEmitter(&buf, evidence.Config{Tenant: "t1"})
				if _, err := prep.RunInstance(InstanceOptions{Lanes: lanes, Evidence: em}); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			ref := stream(0)
			for _, lanes := range []int{1, 2, 4} {
				if got := stream(lanes); !bytes.Equal(got, ref) {
					t.Errorf("lanes=%d stream differs from serial (%d vs %d bytes)", lanes, len(got), len(ref))
				}
			}
			// Concurrent fleet instances, each with a private emitter.
			var wg sync.WaitGroup
			streams := make([][]byte, 4)
			errs := make([]error, 4)
			for i := range streams {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					var buf bytes.Buffer
					em := evidence.NewEmitter(&buf, evidence.Config{Tenant: "t1"})
					_, errs[i] = prep.RunInstance(InstanceOptions{Evidence: em})
					streams[i] = buf.Bytes()
				}(i)
			}
			wg.Wait()
			for i, s := range streams {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if !bytes.Equal(s, ref) {
					t.Errorf("fleet instance %d stream differs from serial", i)
				}
			}
		})
	}
}

// TestEvidenceViolationVerdict: a live violation seals a violation
// verdict into the final record, the committed prefix still verifies,
// and the replayed report matches the live engine's verdict exactly.
func TestEvidenceViolationVerdict(t *testing.T) {
	rc := DefaultRunConfig()
	rc.MaxInstrs = 60_000
	rc.REV = revConfig(sigtable.Normal, 32)
	fired := false
	rc.AttackHook = func(m *cpu.Machine, pc uint64, in isa.Instr) {
		if m.Instret == 500 && !fired {
			fired = true
			inj := isa.Instr{Op: isa.ADDI, Rd: 20, Imm: 666}
			var buf [isa.WordSize]byte
			inj.EncodeTo(buf[:])
			m.Mem.WriteBytes(prog.CodeBase+2*isa.WordSize, buf[:])
		}
	}
	var buf bytes.Buffer
	rc.Evidence = evidence.NewEmitter(&buf, evidence.Config{Tenant: "t1"})
	res, err := Run(builderOf(loopProgram), rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("injection not detected")
	}

	// Verify against a clean preparation of the same workload (the
	// verifier's independently built tables).
	vrc := DefaultRunConfig()
	vrc.MaxInstrs = 60_000
	vrc.REV = revConfig(sigtable.Normal, 32)
	prep, err := Prepare(builderOf(loopProgram), vrc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := evidence.Verify(buf.Bytes(), evidence.VerifyConfig{
		Tenant:  "t1",
		Sources: evidenceSources(prep),
	})
	if err != nil {
		t.Fatal(err)
	}
	o := rep.Outcome
	if o.Verdict != evidence.VerdictViolation {
		t.Fatalf("verdict = %v", o.Verdict)
	}
	v := res.Violation
	if o.Reason != uint8(v.Reason) || o.BBStart != v.BBStart || o.BBEnd != v.BBEnd || o.Target != v.Target {
		t.Errorf("sealed outcome %+v does not match live violation %+v", o, v)
	}
	if rep.Blocks != res.Engine.ValidatedBlocks {
		t.Errorf("evidence blocks = %d, engine validated %d", rep.Blocks, res.Engine.ValidatedBlocks)
	}
}

// TestEvidenceFencesSMCWindow: REV disable/enable transitions appear as
// fences and the stream still verifies (the unvalidated window commits
// no tuples).
func TestEvidenceFencesSMCWindow(t *testing.T) {
	gen := smcWindowProgram(true)
	rc := DefaultRunConfig()
	rc.REV = revConfig(sigtable.Normal, 32)
	var buf bytes.Buffer
	em := evidence.NewEmitter(&buf, evidence.Config{Tenant: "t1"})
	rc.Evidence = em
	res, err := Run(builderOf(gen), rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("windowed self-modification flagged: %v", res.Violation)
	}
	if st := em.Stats(); st.Fences != 2 {
		t.Errorf("fences = %d, want 2 (disable + enable)", st.Fences)
	}
	prep, err := Prepare(builderOf(gen), rc.withoutEvidence())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := evidence.Verify(buf.Bytes(), evidence.VerifyConfig{
		Tenant:  "t1",
		Sources: evidenceSources(prep),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fences != 2 || rep.Outcome.Verdict != evidence.VerdictPass {
		t.Errorf("report = %+v", rep)
	}
}

// withoutEvidence returns a copy of rc with the emitter detached, for
// building a verification Prepared without consuming the emitter.
func (rc RunConfig) withoutEvidence() RunConfig {
	rc.Evidence = nil
	return rc
}

// TestEvidenceThreadsContextSwitchFences: RunThreads records a fence at
// every context switch and the stream verifies.
func TestEvidenceThreadsContextSwitchFences(t *testing.T) {
	trc := DefaultThreadedRunConfig()
	trc.MaxInstrs = 200_000
	trc.Quantum = 500
	trc.REV = revConfig(sigtable.Normal, 32)
	var buf bytes.Buffer
	em := evidence.NewEmitter(&buf, evidence.Config{Tenant: "t1"})
	trc.Evidence = em
	res, err := RunThreads(builderOf(twoThreadProgram), []string{"threadA", "threadB"}, trc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("clean threads flagged: %v", res.Violation)
	}
	if st := em.Stats(); st.Fences != res.Switches {
		t.Errorf("fences = %d, switches = %d", st.Fences, res.Switches)
	}
	prep, err := Prepare(builderOf(twoThreadProgram), trc.RunConfig.withoutEvidence())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := evidence.Verify(buf.Bytes(), evidence.VerifyConfig{
		Tenant:  "t1",
		Sources: evidenceSources(prep),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fences != int(res.Switches) {
		t.Errorf("replayed fences = %d, switches = %d", rep.Fences, res.Switches)
	}
}

// TestEvidenceSingleUse: emitters refuse a second Begin, and runs
// requiring evidence without an engine fail cleanly.
func TestEvidenceSingleUse(t *testing.T) {
	rc := DefaultRunConfig()
	rc.MaxInstrs = 20_000
	rc.REV = revConfig(sigtable.Normal, 8)
	prep, err := Prepare(builderOf(loopProgram), rc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	em := evidence.NewEmitter(&buf, evidence.Config{})
	if _, err := prep.RunInstance(InstanceOptions{Evidence: em}); err != nil {
		t.Fatal(err)
	}
	if _, err := prep.RunInstance(InstanceOptions{Evidence: em}); err == nil {
		t.Fatal("second run on a consumed emitter must fail")
	}

	base := DefaultRunConfig()
	base.MaxInstrs = 1_000
	base.Evidence = evidence.NewEmitter(&buf, evidence.Config{})
	if _, err := Run(builderOf(loopProgram), base); err == nil {
		t.Fatal("evidence without rc.REV must fail")
	}
}

// TestEvidenceCrossTenantRejected: a stream emitted under one tenant is
// rejected when verified under another — the splice check.
func TestEvidenceCrossTenantRejected(t *testing.T) {
	rc := DefaultRunConfig()
	rc.MaxInstrs = 20_000
	rc.REV = revConfig(sigtable.Normal, 8)
	prep, err := Prepare(builderOf(loopProgram), rc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := prep.RunInstance(InstanceOptions{Evidence: evidence.NewEmitter(&buf, evidence.Config{Tenant: "alice"})}); err != nil {
		t.Fatal(err)
	}
	_, err = evidence.Verify(buf.Bytes(), evidence.VerifyConfig{
		Tenant:  "bob",
		Sources: evidenceSources(prep),
	})
	if !errors.Is(err, evidence.ErrBindingMismatch) {
		t.Fatalf("err = %v, want ErrBindingMismatch", err)
	}
}
