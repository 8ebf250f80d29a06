package core

import (
	"testing"

	"rev/internal/branch"
	"rev/internal/cfg"
	"rev/internal/cpu"
	"rev/internal/crypt"
	"rev/internal/mem"
	"rev/internal/prog"
)

// benchHookSetup builds a protected engine for loopProgram, replays the
// workload once through the pipeline to warm every structure (SC, SAG,
// memo), and returns the engine plus the dynamic BBInfo stream for direct
// Hook replay. hide=true wraps the address space so it does not advertise
// prog.CodeVersioner — the un-memoized configuration, in which every block
// is rehashed (the pre-memo hot path).
func benchHookSetup(b *testing.B, hide bool) (*Engine, []cpu.BBInfo) {
	b.Helper()
	build := builderOf(loopProgram)
	measured, err := build()
	if err != nil {
		b.Fatal(err)
	}
	hier := mem.New(mem.DefaultConfig())
	pred := branch.New(branch.DefaultConfig())
	pipe := cpu.NewPipeline(cpu.DefaultPipeConfig(), hier, pred)
	var space prog.AddressSpace = measured.Mem
	if hide {
		space = noVersionSpace{space}
	}
	mach := cpu.NewMachineOver(measured, space)

	twin, err := build()
	if err != nil {
		b.Fatal(err)
	}
	profiler, err := cfg.ProfileRun(twin, 1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	static := cfg.Analyze(measured, cfg.DefaultAnalyzeOptions())
	ks := crypt.NewKeyStore(crypt.DeriveKey(0x5eed, "cpu-private"))
	ecfg := DefaultConfig()
	eng := NewEngine(ecfg, space, hier)
	for i, mod := range measured.Modules {
		bld := cfg.NewBuilder(mod, ecfg.Limits)
		profiler.Apply(bld)
		static.Apply(bld)
		g, err := bld.Build()
		if err != nil {
			b.Fatal(err)
		}
		if err := installModule(eng, g, tableKey(0x5eed, i, mod.Name), ks); err != nil {
			b.Fatal(err)
		}
	}

	var infos []cpu.BBInfo
	pipe.Hook = func(info cpu.BBInfo) (uint64, error) {
		infos = append(infos, info)
		return eng.Hook(info)
	}
	mach.SysHandler = eng.SysHandler
	pipe.Cfg.MaxBBInstrs = ecfg.Limits.MaxInstrs
	pipe.Cfg.MaxBBStores = ecfg.Limits.MaxStores

	for !mach.Halted && pipe.Stats.Instrs < 1_000_000 {
		pc, in, err := mach.Step()
		if err != nil {
			b.Fatal(err)
		}
		if err := pipe.Next(cpu.DynInstr{PC: pc, In: in, NextPC: mach.PC, MemAddr: mach.MemAddr}); err != nil {
			b.Fatal(err)
		}
	}
	if !mach.Halted || len(infos) == 0 {
		b.Fatalf("warm-up run did not complete (halted=%v, %d blocks)", mach.Halted, len(infos))
	}
	return eng, infos
}

// replay drives the engine's Hook with the captured dynamic block stream.
// The stream is closed under the delayed-return latch (it starts fresh and
// ends at HALT), so it can be replayed back to back.
func replay(b *testing.B, eng *Engine, infos []cpu.BBInfo) {
	for i := 0; i < b.N; i++ {
		if _, err := eng.Hook(infos[i%len(infos)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHookHashedMemoized measures the per-block validation cost with
// the signature memo active (the production configuration). It must run
// allocation-free: block bytes land in the engine scratch on the rare miss,
// and hits touch only the memo, SC and CHG ring.
func BenchmarkHookHashedMemoized(b *testing.B) {
	eng, infos := benchHookSetup(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	replay(b, eng, infos)
	b.StopTimer()
	if eng.Stats.MemoHits == 0 {
		b.Fatal("memo never hit")
	}
}

// BenchmarkHookHashedHit measures the same per-block path with memoization
// disabled (address space hides its CodeVersioner): every block re-reads
// its bytes and recomputes the CubeHash signature, as the engine originally
// did. The Memoized/Hit ratio is the memo's direct speedup.
func BenchmarkHookHashedHit(b *testing.B) {
	eng, infos := benchHookSetup(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	replay(b, eng, infos)
	b.StopTimer()
	if eng.Stats.MemoHits != 0 || eng.Stats.MemoMisses != 0 {
		b.Fatal("memo unexpectedly active")
	}
}
