package core

import (
	"reflect"
	"runtime"
	"testing"

	"rev/internal/asm"
	"rev/internal/cpu"
	"rev/internal/isa"
	"rev/internal/prog"
	"rev/internal/sigtable"
	"rev/internal/workload"
)

// normMemo clears the simulator-internal signature-memo counters: the
// serial engine uses one direct-mapped memo while the pipelined engine
// shards it per lane, so hit/miss counts are the one part of Stats the
// identity contract excludes (see pipeline.go).
func normMemo(s Stats) Stats {
	s.MemoHits, s.MemoMisses = 0, 0
	return s
}

// mustMatch asserts the full byte-identity contract between a serial and
// a pipelined run: figures, verdicts, observable output — everything but
// the sharded memo counters.
func mustMatch(t *testing.T, tag string, serial, piped *Result) {
	t.Helper()
	if !reflect.DeepEqual(serial.Output, piped.Output) {
		t.Fatalf("%s: output diverged:\nserial %v\npiped  %v", tag, serial.Output, piped.Output)
	}
	if serial.Halted != piped.Halted {
		t.Fatalf("%s: halted diverged: serial=%v piped=%v", tag, serial.Halted, piped.Halted)
	}
	if !reflect.DeepEqual(serial.Violation, piped.Violation) {
		t.Fatalf("%s: verdict diverged:\nserial %v\npiped  %v", tag, serial.Violation, piped.Violation)
	}
	if serial.Pipe != piped.Pipe {
		t.Fatalf("%s: pipeline stats diverged (timing parity broken):\nserial %+v\npiped  %+v",
			tag, serial.Pipe, piped.Pipe)
	}
	if serial.Branch != piped.Branch || serial.UniqueBranches != piped.UniqueBranches {
		t.Fatalf("%s: branch stats diverged", tag)
	}
	if serial.L1D != piped.L1D || serial.L1I != piped.L1I ||
		serial.L2 != piped.L2 || serial.DRAM != piped.DRAM {
		t.Fatalf("%s: cache stats diverged", tag)
	}
	if serial.SC != piped.SC {
		t.Fatalf("%s: SC stats diverged:\nserial %+v\npiped  %+v", tag, serial.SC, piped.SC)
	}
	if normMemo(serial.Engine) != normMemo(piped.Engine) {
		t.Fatalf("%s: engine stats diverged:\nserial %+v\npiped  %+v",
			tag, serial.Engine, piped.Engine)
	}
	if serial.Shadow != piped.Shadow {
		t.Fatalf("%s: shadow stats diverged", tag)
	}
}

// TestPipelinedMatchesSerial is the intra-run analogue of the fleet's
// parallel-identity check: for every input, table format and lane count,
// the pipelined executor must be observationally byte-identical to the
// serial loop — same simulated cycles, same SC behaviour, same output —
// including the partial publish batch flushed at halt. The inputs are a
// hand-written loop and the generated full-scale bzip2 program.
func TestPipelinedMatchesSerial(t *testing.T) {
	bzip2, err := workload.ByName("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	inputs := []struct {
		name   string
		build  func() (*prog.Program, error)
		instrs uint64
		halts  bool // the run ends at the program's halt, not the budget
	}{
		{"loop", builderOf(loopProgram), 60_000, true},
		{"bzip2", bzip2.Builder(), 120_000, false},
	}
	for _, in := range inputs {
		// One load per input: only table signing differs by format.
		rc := DefaultRunConfig()
		rc.MaxInstrs = in.instrs
		rc.REV = revConfig(sigtable.Normal, 8)
		img, err := Load(in.build, rc)
		if err != nil {
			t.Fatal(err)
		}
		for _, format := range []sigtable.Format{sigtable.Normal, sigtable.Aggressive, sigtable.CFIOnly} {
			tag := in.name + "/" + format.String()
			rc.REV = revConfig(format, 8)
			prep, err := img.Prepare(rc)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := prep.RunInstance(InstanceOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if serial.Violation != nil || serial.Halted != in.halts {
				t.Fatalf("%s: serial reference run broken: vio=%v halted=%v",
					tag, serial.Violation, serial.Halted)
			}
			for _, lanes := range []int{1, 2, 3, 4} {
				piped, err := prep.RunInstance(InstanceOptions{Lanes: lanes})
				if err != nil {
					t.Fatalf("%s lanes=%d: %v", tag, lanes, err)
				}
				mustMatch(t, tag+"/lanes="+itoa(lanes), serial, piped)
			}
		}
	}
}

// TestPipelinedBaselineParity pins the engine-less path: a base-core run
// (no REV attached) through the pipelined executor must report identical
// figures too — the lanes degenerate to pass-throughs.
func TestPipelinedBaselineParity(t *testing.T) {
	rc := DefaultRunConfig()
	rc.MaxInstrs = 60_000
	serial, err := Run(builderOf(loopProgram), rc)
	if err != nil {
		t.Fatal(err)
	}
	rc.Lanes = 2
	piped, err := Run(builderOf(loopProgram), rc)
	if err != nil {
		t.Fatal(err)
	}
	mustMatch(t, "baseline/lanes=2", serial, piped)
}

// TestPipelinedPageShadowingParity runs the strict deferred-update
// variant through the pipeline: shadow commit/abort decisions and page
// counters must match the serial run.
func TestPipelinedPageShadowingParity(t *testing.T) {
	rc := DefaultRunConfig()
	rc.MaxInstrs = 60_000
	rc.REV = revConfig(sigtable.Normal, 8)
	rc.PageShadowing = true
	prep, err := Prepare(builderOf(loopProgram), rc)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := prep.RunInstance(InstanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	piped, err := prep.RunInstance(InstanceOptions{Lanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	mustMatch(t, "shadow/lanes=4", serial, piped)
}

// attackScenario is one attack parity case: a victim program plus a
// factory for a fresh (stateful) injection hook per run.
type attackScenario struct {
	name    string
	gen     func(b *asm.Builder)
	newHook func() func(m *cpu.Machine, pc uint64, in isa.Instr)
}

func attackScenarios() []attackScenario {
	return []attackScenario{
		{
			name: "code-injection",
			gen:  loopProgram,
			newHook: func() func(m *cpu.Machine, pc uint64, in isa.Instr) {
				fired := false
				return func(m *cpu.Machine, pc uint64, in isa.Instr) {
					if m.Instret == 500 && !fired {
						fired = true
						inj := isa.Instr{Op: isa.ADDI, Rd: 20, Imm: 666}
						var buf [isa.WordSize]byte
						inj.EncodeTo(buf[:])
						m.Mem.WriteBytes(prog.CodeBase+2*isa.WordSize, buf[:])
					}
				}
			},
		},
		{
			name: "illegal-computed-jump",
			gen:  loopProgram,
			newHook: func() func(m *cpu.Machine, pc uint64, in isa.Instr) {
				fired := false
				return func(m *cpu.Machine, pc uint64, in isa.Instr) {
					if !fired && in.Op == isa.JR && m.Instret > 100 {
						fired = true
						m.X[13] = prog.CodeBase + 1*isa.WordSize
					}
				}
			},
		},
		{
			name: "decode-fault",
			gen:  loopProgram,
			newHook: func() func(m *cpu.Machine, pc uint64, in isa.Instr) {
				fired := false
				return func(m *cpu.Machine, pc uint64, in isa.Instr) {
					if m.Instret == 500 && !fired {
						fired = true
						// Stomp the loop head with illegal bytes: the fetch
						// unit faults at decode mid-block.
						bad := [isa.WordSize]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
						m.Mem.WriteBytes(prog.CodeBase+2*isa.WordSize, bad[:])
					}
				}
			},
		},
	}
}

// TestPipelinedAttackParity replays the attack suite through the
// pipelined executor: the verdict (reason and offending addresses), the
// observable output at abort, and every simulated figure must be
// byte-identical to the serial engine, for every lane count.
func TestPipelinedAttackParity(t *testing.T) {
	for _, sc := range attackScenarios() {
		runOnce := func(lanes int) *Result {
			t.Helper()
			rc := DefaultRunConfig()
			rc.MaxInstrs = 60_000
			rc.REV = revConfig(sigtable.Normal, 8)
			rc.AttackHook = sc.newHook()
			prep, err := Prepare(builderOf(sc.gen), rc)
			if err != nil {
				t.Fatalf("%s: %v", sc.name, err)
			}
			res, err := prep.RunInstance(InstanceOptions{Lanes: lanes})
			if err != nil {
				t.Fatalf("%s lanes=%d: %v", sc.name, lanes, err)
			}
			return res
		}
		serial := runOnce(0)
		if serial.Violation == nil {
			t.Fatalf("%s: serial reference missed the attack", sc.name)
		}
		for _, lanes := range []int{1, 4} {
			mustMatch(t, sc.name+"/lanes="+itoa(lanes), serial, runOnce(lanes))
		}
	}
}

// TestPipelinedSMCWindowParity drives the trusted self-modifying-code
// window through the pipeline. It exercises both pipelined-specific
// mechanisms at once: the SYS event replay (REV disable/enable must reach
// the consumer in program order) and the epoch fence (the code-version
// bump must drain in-flight lanes before the memo is reused).
// smcWindowProgram builds the self-modifying-code probe: main patches
// the body of "patchme" with an OUT instruction, optionally inside a
// trusted SysREVEnable window. Shared by the SMC parity tests here, the
// arena-reuse suite (arena_test.go), and the batch edge-case suite.
func smcWindowProgram(withWindow bool) func(b *asm.Builder) {
	return func(b *asm.Builder) {
		b.Func("main")
		b.Entry("main")
		if withWindow {
			b.LoadImm(4, 0)
			b.Sys(isa.SysREVEnable, 4)
		}
		b.LoadImm(5, 1234)
		patch := isa.Instr{Op: isa.OUT, Rs1: 5}
		enc := patch.Encode()
		var word uint64
		for i := 7; i >= 0; i-- {
			word = word<<8 | uint64(enc[i])
		}
		b.LoadImm(6, int64(word))
		b.CodeAddrFixup(7, "patchme")
		b.Store(6, 7, 0)
		b.Call("patchme")
		if withWindow {
			b.LoadImm(4, 1)
			b.Sys(isa.SysREVEnable, 4)
		}
		b.Out(5)
		b.Halt()
		b.Func("patchme")
		b.Nop()
		b.Ret()
	}
}

func TestPipelinedSMCWindowParity(t *testing.T) {
	gen := smcWindowProgram
	for _, withWindow := range []bool{true, false} {
		rc := DefaultRunConfig()
		rc.REV = revConfig(sigtable.Normal, 32)
		prep, err := Prepare(builderOf(gen(withWindow)), rc)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := prep.RunInstance(InstanceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if withWindow {
			if serial.Violation != nil {
				t.Fatalf("windowed serial run flagged: %v", serial.Violation)
			}
		} else if serial.Violation == nil || serial.Violation.Reason != ViolationHash {
			t.Fatalf("unwindowed serial run should hash-violate, got %v", serial.Violation)
		}
		for _, lanes := range []int{1, 4} {
			piped, err := prep.RunInstance(InstanceOptions{Lanes: lanes})
			if err != nil {
				t.Fatalf("lanes=%d: %v", lanes, err)
			}
			tag := "smc-window"
			if !withWindow {
				tag = "smc-nowindow"
			}
			mustMatch(t, tag+"/lanes="+itoa(lanes), serial, piped)
		}
	}
}

// TestPipelinedDeferredForensics pins the deferred-capture path: a
// violating pipelined run must still record exactly one evidence entry
// with the serial run's reason, captured only after the producer
// goroutine quiesced.
func TestPipelinedDeferredForensics(t *testing.T) {
	sc := attackScenarios()[0] // code injection
	rc := DefaultRunConfig()
	rc.MaxInstrs = 60_000
	rc.REV = revConfig(sigtable.Normal, 8)
	rc.REV.Forensics = true
	rc.AttackHook = sc.newHook()
	prep, err := Prepare(builderOf(sc.gen), rc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.RunInstance(InstanceOptions{Lanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil || res.Violation.Reason != ViolationHash {
		t.Fatalf("violation = %v, want hash-mismatch", res.Violation)
	}
	if len(res.Forensics.Records) != 1 {
		t.Fatalf("forensics entries = %d, want 1", len(res.Forensics.Records))
	}
	ev := res.Forensics.Records[0]
	if ev.Reason != ViolationHash.String() || ev.BBStart != res.Violation.BBStart {
		t.Fatalf("captured evidence %+v does not match verdict %+v", ev, res.Violation)
	}
}

// TestAutoLanes pins the GOMAXPROCS-driven sizing rule and the
// RunConfig.Lanes resolution semantics.
func TestAutoLanes(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, c := range []struct{ procs, want int }{
		{1, 0}, {2, 1}, {3, 2}, {5, 4}, {8, 4},
	} {
		runtime.GOMAXPROCS(c.procs)
		if got := AutoLanes(); got != c.want {
			t.Errorf("AutoLanes @ GOMAXPROCS=%d = %d, want %d", c.procs, got, c.want)
		}
		if got := resolveLanes(-1); got != c.want {
			t.Errorf("resolveLanes(-1) @ GOMAXPROCS=%d = %d, want %d", c.procs, got, c.want)
		}
	}
	runtime.GOMAXPROCS(prev)
	if resolveLanes(0) != 0 || resolveLanes(3) != 3 {
		t.Error("explicit lane counts must pass through unchanged")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
