package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersClamping(t *testing.T) {
	cases := []struct {
		n, jobs, want int
	}{
		{0, 10, min(runtime.GOMAXPROCS(0), 10)},
		{-3, 10, min(runtime.GOMAXPROCS(0), 10)},
		{4, 10, 4},
		{16, 3, 3},
		{5, 0, 1},
		{1, 1, 1},
	}
	for _, c := range cases {
		if got := Workers(c.n, c.jobs); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.n, c.jobs, got, c.want)
		}
	}
}

// TestMapOrdering proves results land at their input index no matter how
// the scheduler interleaves the workers.
func TestMapOrdering(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i * 3
	}
	for _, workers := range []int{1, 2, 7, 100} {
		got, err := Map(workers, items, func(i, v int) (string, error) {
			if i%7 == 0 {
				time.Sleep(time.Millisecond) // shuffle completion order
			}
			return fmt.Sprintf("%d:%d", i, v), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range got {
			if want := fmt.Sprintf("%d:%d", i, i*3); s != want {
				t.Fatalf("workers=%d: got[%d] = %q, want %q", workers, i, s, want)
			}
		}
	}
}

// TestLowestIndexError proves the reported error is deterministic: always
// the failing job with the smallest input index, regardless of which
// worker hit its error first.
func TestLowestIndexError(t *testing.T) {
	items := make([]int, 50)
	for i := range items {
		items[i] = i
	}
	sentinel := func(i int) error { return fmt.Errorf("job %d failed", i) }
	for trial := 0; trial < 20; trial++ {
		_, err := Map(8, items, func(i, _ int) (int, error) {
			switch i {
			case 7, 23, 41:
				return 0, sentinel(i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "job 7 failed" {
			t.Fatalf("trial %d: err = %v, want lowest-index error (job 7)", trial, err)
		}
	}
}

func TestEach(t *testing.T) {
	var hits [64]atomic.Int32
	if err := Each(4, len(hits), func(i int) error {
		hits[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if n := hits[i].Load(); n != 1 {
			t.Fatalf("job %d ran %d times", i, n)
		}
	}
	wantErr := errors.New("boom")
	if err := Each(4, 10, func(i int) error {
		if i == 3 {
			return wantErr
		}
		return nil
	}); !errors.Is(err, wantErr) {
		t.Fatalf("Each error = %v, want %v", err, wantErr)
	}
}

// TestRunnerMetrics checks the report's bookkeeping: every job accounted
// exactly once, per-worker sums match totals, blocks add up.
func TestRunnerMetrics(t *testing.T) {
	// Pin >1 procs so the pooled path (not the 1-CPU inline path) is the
	// one under test.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	items := []uint64{10, 20, 30, 40, 50}
	r := Runner[uint64, uint64]{
		Workers: 2,
		Fn:      func(_, _ int, v uint64) (uint64, error) { return v * 2, nil },
		Blocks:  func(v uint64) uint64 { return v },
	}
	out, rep, err := r.Run(items)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != items[i]*2 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if rep.Workers != 2 || rep.Jobs != len(items) {
		t.Fatalf("report header: %+v", rep)
	}
	var wantBlocks uint64
	for _, v := range items {
		wantBlocks += 2 * v
	}
	if rep.Blocks != wantBlocks {
		t.Fatalf("report blocks = %d, want %d", rep.Blocks, wantBlocks)
	}
	if len(rep.PerJob) != len(items) {
		t.Fatalf("PerJob entries = %d", len(rep.PerJob))
	}
	seen := map[int]bool{}
	var jobSum, workerSum uint64
	for _, jm := range rep.PerJob {
		if seen[jm.Index] {
			t.Fatalf("job %d reported twice", jm.Index)
		}
		seen[jm.Index] = true
		jobSum += jm.Blocks
	}
	for _, wm := range rep.PerWorker {
		workerSum += wm.Blocks
		if wm.WallSeconds < 0 {
			t.Fatalf("negative busy time: %+v", wm)
		}
	}
	if jobSum != wantBlocks || workerSum != wantBlocks {
		t.Fatalf("block sums diverge: jobs %d workers %d want %d", jobSum, workerSum, wantBlocks)
	}
	if rep.WallSeconds <= 0 || rep.BlocksPerSec <= 0 {
		t.Fatalf("degenerate wall metrics: %+v", rep)
	}
}

// TestRunnerConcurrent pins (under -race) that the pool really runs jobs
// in parallel and that worker-indexed state never crosses goroutines.
func TestRunnerConcurrent(t *testing.T) {
	// The degenerate-fleet gate runs inline at GOMAXPROCS=1; force real
	// parallelism so this test exercises the pooled path.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const jobs = 200
	var inFlight, peak atomic.Int32
	var mu sync.Mutex
	workerJobs := map[int]int{}
	r := Runner[int, int]{
		Workers: 4,
		Fn: func(worker, index, v int) (int, error) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(100 * time.Microsecond)
			inFlight.Add(-1)
			mu.Lock()
			workerJobs[worker]++
			mu.Unlock()
			return v + index, nil
		},
	}
	items := make([]int, jobs)
	_, rep, err := r.Run(items)
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p < 2 {
		t.Fatalf("peak concurrency %d: pool is not parallel", p)
	}
	total := 0
	for w, n := range workerJobs {
		if w < 0 || w >= 4 {
			t.Fatalf("worker id %d out of range", w)
		}
		total += n
	}
	if total != jobs {
		t.Fatalf("jobs run = %d, want %d", total, jobs)
	}
	if rep.Jobs != jobs {
		t.Fatalf("report jobs = %d", rep.Jobs)
	}
}

// TestInlineDegenerateFleet is the regression test for the 1-CPU fleet:
// when workers==1 (any host) or GOMAXPROCS==1 (any requested width), jobs
// must run inline on the caller goroutine — no pool goroutines at all —
// and the report must say so. On a 1-CPU box the pool measured a speedup
// below 1.0 before this path existed.
func TestInlineDegenerateFleet(t *testing.T) {
	assertInline := func(tag string, workers int) {
		t.Helper()
		callerID := goroutineProbe()
		items := []int{1, 2, 3, 4, 5, 6, 7, 8}
		r := Runner[int, int]{
			Workers: workers,
			Fn: func(worker, index, v int) (int, error) {
				if got := goroutineProbe(); got != callerID {
					t.Errorf("%s: job %d ran on goroutine %d, caller is %d (pool goroutine spawned)",
						tag, index, got, callerID)
				}
				if worker != 0 {
					t.Errorf("%s: worker id = %d on inline path", tag, worker)
				}
				return v * 10, nil
			},
			Blocks: func(v int) uint64 { return uint64(v) },
		}
		out, rep, err := r.Run(items)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if !rep.Inline {
			t.Fatalf("%s: report.Inline = false, want inline execution", tag)
		}
		if rep.Workers != 1 || len(rep.PerWorker) != 1 || rep.PerWorker[0].Jobs != len(items) {
			t.Fatalf("%s: inline report malformed: %+v", tag, rep)
		}
		for i, v := range out {
			if v != items[i]*10 {
				t.Fatalf("%s: out[%d] = %d", tag, i, v)
			}
		}
	}

	// workers==1 forces inline regardless of CPU count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	assertInline("workers=1", 1)

	// GOMAXPROCS==1 forces inline even for a wide request.
	runtime.GOMAXPROCS(1)
	assertInline("gomaxprocs=1", 4)
	runtime.GOMAXPROCS(4)

	// Sanity: the wide pool on >1 procs must NOT be inline.
	r := Runner[int, int]{Workers: 4, Fn: func(_, _, v int) (int, error) { return v, nil }}
	_, rep, err := r.Run(make([]int, 16))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Inline {
		t.Fatal("pooled path reported Inline=true")
	}
}

// goroutineProbe returns an identifier stable within one goroutine: the
// address of a goroutine-local stack variable is not (stacks move), so it
// parses the goroutine id from the runtime stack header instead.
func goroutineProbe() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	// "goroutine 123 [running]:" — extract 123.
	var id uint64
	for _, c := range buf[10:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

func TestEmptyInput(t *testing.T) {
	r := Runner[int, int]{Fn: func(_, _, v int) (int, error) { return v, nil }}
	out, rep, err := r.Run(nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty run: out=%v err=%v", out, err)
	}
	if rep.Jobs != 0 {
		t.Fatalf("report jobs = %d", rep.Jobs)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
