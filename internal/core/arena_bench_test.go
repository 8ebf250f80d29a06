package core

import (
	"testing"

	"rev/internal/sigtable"
	"rev/internal/workload"
)

// BenchmarkArenaRun measures the steady-state cost of a full validated
// run over a reused arena (serial and pipelined). Its allocs/op column is
// the benchmark form of TestRunInstanceZeroAllocs: 0 after warmup for
// serial runs; pipelined runs on a multi-core host also show the
// per-run goroutine allocations that test cannot see (docs/CONCURRENCY.md).
func BenchmarkArenaRun(b *testing.B) {
	p, err := workload.ByName("bzip2")
	if err != nil {
		b.Fatal(err)
	}
	rc := DefaultRunConfig()
	rc.MaxInstrs = 100_000
	rc.REV = revConfig(sigtable.Normal, 32)
	prep, err := Prepare(p.Builder(), rc)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		lanes int
	}{
		{"serial", 0},
		{"lanes2", 2},
	} {
		b.Run(c.name, func(b *testing.B) {
			var out Result
			opts := InstanceOptions{Lanes: c.lanes, Out: &out}
			for i := 0; i < 2; i++ {
				if _, err := prep.RunInstance(opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := prep.RunInstance(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
