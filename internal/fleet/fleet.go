// Package fleet implements the parallel validation fleet: a bounded
// worker pool that shards independent simulation and validation jobs —
// benchmark runs, figure regeneration, multi-tenant validation — across
// GOMAXPROCS-bounded goroutines with deterministic, input-ordered
// result collection and per-worker throughput metrics.
//
// Design rules (see docs/CONCURRENCY.md for the full sharing contract):
//
//   - Jobs must be independent. Each job owns its engine, pipeline,
//     memory hierarchy and program instance; the only state a job may
//     share with its siblings is immutable (sigtable.Snapshot,
//     core.SharedTable, workload profiles) or internally synchronized
//     (the experiments suite's result cache).
//   - Results are collected by input index, never by completion order,
//     so a fleet of N workers produces byte-identical output to a
//     serial run over the same inputs.
//   - Errors are deterministic too: when several jobs fail, the error
//     of the lowest input index is returned. All jobs always run to
//     completion (they are short and side-effect-free), so partial
//     results remain usable by callers that want them.
//   - Work is handed out dynamically (an atomic cursor, not static
//     striping) so a slow job — gcc or gobmk in the evaluation suite —
//     does not idle the rest of the fleet.
//
// The instrumented Runner additionally records, per worker, the jobs
// executed, busy wall time, and validated-block throughput; perfbench's
// figures workload reports them as its fleet.* layer metrics.
package fleet

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rev/internal/telemetry"
)

// Workers resolves a requested worker count: n <= 0 selects
// runtime.GOMAXPROCS(0), and the result never exceeds jobs (spawning
// more goroutines than jobs would only add scheduler noise).
func Workers(n, jobs int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > jobs {
		n = jobs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// JobMetric records one job's execution: which worker ran it, how long
// it took, how long it sat queued before dispatch, and how many basic
// blocks its simulation validated (zero when the runner has no block
// extractor).
type JobMetric struct {
	Index       int     `json:"index"`
	Worker      int     `json:"worker"`
	WallSeconds float64 `json:"wall_seconds"`
	// QueueWaitSeconds is the delay from fleet start to this job's
	// dispatch: how long the input sat behind earlier jobs. Near zero for
	// the first `workers` jobs, growing with queue depth after that.
	QueueWaitSeconds float64 `json:"queue_wait_seconds,omitempty"`
	Blocks           uint64  `json:"blocks,omitempty"`
}

// WorkerMetric aggregates the jobs one worker executed. Busy and idle
// time reconcile with the fleet wall clock exactly:
// WallSeconds + IdleSeconds == Report.WallSeconds for every worker.
type WorkerMetric struct {
	Worker      int     `json:"worker"`
	Jobs        int     `json:"jobs"`
	WallSeconds float64 `json:"wall_seconds"`
	// IdleSeconds is the worker's share of the fleet wall clock not spent
	// inside Fn: dispatch overhead plus the tail wait after its last job
	// while slower siblings finish. Large values on all but one worker
	// indicate an unbalanced job mix (one gcc-sized straggler).
	IdleSeconds  float64 `json:"idle_seconds"`
	Blocks       uint64  `json:"blocks"`
	BlocksPerSec float64 `json:"blocks_per_sec"`
}

// Report describes one fleet run: total wall time (start of dispatch to
// last worker done), per-job and per-worker breakdowns, and aggregate
// block throughput across the whole fleet.
type Report struct {
	Workers      int     `json:"workers"`
	Jobs         int     `json:"jobs"`
	WallSeconds  float64 `json:"wall_seconds"`
	Blocks       uint64  `json:"blocks"`
	BlocksPerSec float64 `json:"blocks_per_sec"`
	// Inline reports that the degenerate single-lane case was detected
	// (one worker, or GOMAXPROCS=1) and jobs ran on the caller goroutine
	// with no channel or goroutine machinery at all.
	Inline    bool           `json:"inline,omitempty"`
	PerJob    []JobMetric    `json:"per_job,omitempty"`
	PerWorker []WorkerMetric `json:"per_worker"`
}

// Runner is an instrumented worker pool over a fixed job type.
//
// Fn receives the worker id (0..Workers-1), the job's input index, and
// the item; it must not retain references to mutable state shared with
// other jobs. Blocks, when non-nil, extracts a validated-block count
// from each result for throughput accounting.
type Runner[T, R any] struct {
	// Workers bounds concurrency; <= 0 selects GOMAXPROCS.
	Workers int
	// Fn executes one job.
	Fn func(worker, index int, item T) (R, error)
	// Blocks optionally extracts the job's validated-block count.
	Blocks func(R) uint64
	// Trace, when non-nil, records one trace track per worker with a span
	// per job (span arg = input index) into the recorder. Each worker
	// writes only its own track, so one recorder may be shared by the
	// whole fleet (and by the runs inside it, via per-run track labels).
	Trace *telemetry.Recorder
}

// fleetTracks bundles the per-worker trace tracks resolved at Run setup.
type fleetTracks struct {
	tracks []*telemetry.Track
	nJob   telemetry.NameID
	nIndex telemetry.NameID
}

func newFleetTracks(rec *telemetry.Recorder, workers int) *fleetTracks {
	if rec == nil {
		return nil
	}
	ft := &fleetTracks{
		nJob:   rec.Name("job"),
		nIndex: rec.Name("index"),
	}
	for w := 0; w < workers; w++ {
		ft.tracks = append(ft.tracks, rec.Track("worker"+strconv.Itoa(w)))
	}
	return ft
}

// Run executes every item and returns the results in input order plus
// the fleet report. When jobs fail, the error of the lowest input index
// is returned alongside the (complete) result slice.
func (r *Runner[T, R]) Run(items []T) ([]R, *Report, error) {
	n := len(items)
	workers := Workers(r.Workers, n)
	// Degenerate fleet: with one worker — or one CPU, where extra
	// goroutines can only time-slice — the pool is pure overhead. Run the
	// jobs inline on the caller goroutine: no goroutines, no atomic
	// cursor, no WaitGroup, and byte-identical results (collection is
	// input-ordered either way). On a 1-CPU host the pool measured a
	// speedup below 1.0 before this path existed.
	if workers == 1 || runtime.GOMAXPROCS(0) == 1 {
		return r.runInline(items)
	}
	results := make([]R, n)
	errs := make([]error, n)
	jobs := make([]JobMetric, n)
	perWorker := make([]WorkerMetric, workers)

	ft := newFleetTracks(r.Trace, workers)
	start := time.Now()
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			wm := &perWorker[worker]
			wm.Worker = worker
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				if ft != nil {
					ft.tracks[worker].Begin(ft.nJob)
				}
				res, err := r.Fn(worker, i, items[i])
				if ft != nil {
					ft.tracks[worker].EndArg(ft.nIndex, uint64(i))
				}
				wall := time.Since(t0).Seconds()
				results[i] = res
				errs[i] = err
				var blocks uint64
				if err == nil && r.Blocks != nil {
					blocks = r.Blocks(res)
				}
				jobs[i] = JobMetric{
					Index: i, Worker: worker, WallSeconds: wall,
					QueueWaitSeconds: t0.Sub(start).Seconds(), Blocks: blocks,
				}
				wm.Jobs++
				wm.WallSeconds += wall
				wm.Blocks += blocks
			}
		}(w)
	}
	wg.Wait()

	rep := &Report{
		Workers:     workers,
		Jobs:        n,
		WallSeconds: time.Since(start).Seconds(),
		PerJob:      jobs,
		PerWorker:   perWorker,
	}
	for i := range perWorker {
		wm := &perWorker[i]
		// Idle reconciles against the fleet wall clock: busy + idle ==
		// rep.WallSeconds exactly, for every worker (the spans-vs-wall
		// accounting check of docs/OBSERVABILITY.md).
		if wm.IdleSeconds = rep.WallSeconds - wm.WallSeconds; wm.IdleSeconds < 0 {
			wm.IdleSeconds = 0
		}
		if wm.WallSeconds > 0 {
			wm.BlocksPerSec = float64(wm.Blocks) / wm.WallSeconds
		}
		rep.Blocks += wm.Blocks
	}
	if rep.WallSeconds > 0 {
		rep.BlocksPerSec = float64(rep.Blocks) / rep.WallSeconds
	}
	for _, err := range errs {
		if err != nil {
			return results, rep, err
		}
	}
	return results, rep, nil
}

// runInline is the degenerate-fleet fast path: every job executes on the
// caller goroutine, in input order, with the same report shape as the
// pooled path (Workers=1, Inline=true).
func (r *Runner[T, R]) runInline(items []T) ([]R, *Report, error) {
	n := len(items)
	results := make([]R, n)
	jobs := make([]JobMetric, n)
	perWorker := make([]WorkerMetric, 1)
	wm := &perWorker[0]

	ft := newFleetTracks(r.Trace, 1)
	var firstErr error
	start := time.Now()
	for i := range items {
		t0 := time.Now()
		if ft != nil {
			ft.tracks[0].Begin(ft.nJob)
		}
		res, err := r.Fn(0, i, items[i])
		if ft != nil {
			ft.tracks[0].EndArg(ft.nIndex, uint64(i))
		}
		wall := time.Since(t0).Seconds()
		results[i] = res
		if err != nil && firstErr == nil {
			firstErr = err
		}
		var blocks uint64
		if err == nil && r.Blocks != nil {
			blocks = r.Blocks(res)
		}
		jobs[i] = JobMetric{
			Index: i, Worker: 0, WallSeconds: wall,
			QueueWaitSeconds: t0.Sub(start).Seconds(), Blocks: blocks,
		}
		wm.Jobs++
		wm.WallSeconds += wall
		wm.Blocks += blocks
	}
	rep := &Report{
		Workers:     1,
		Jobs:        n,
		WallSeconds: time.Since(start).Seconds(),
		Blocks:      wm.Blocks,
		Inline:      true,
		PerJob:      jobs,
		PerWorker:   perWorker,
	}
	if wm.IdleSeconds = rep.WallSeconds - wm.WallSeconds; wm.IdleSeconds < 0 {
		wm.IdleSeconds = 0
	}
	if wm.WallSeconds > 0 {
		wm.BlocksPerSec = float64(wm.Blocks) / wm.WallSeconds
	}
	if rep.WallSeconds > 0 {
		rep.BlocksPerSec = float64(rep.Blocks) / rep.WallSeconds
	}
	return results, rep, firstErr
}

// Map runs fn over items on up to workers goroutines and returns the
// results in input order. It is the uninstrumented convenience over
// Runner; the error of the lowest failing input index is returned.
func Map[T, R any](workers int, items []T, fn func(index int, item T) (R, error)) ([]R, error) {
	r := Runner[T, R]{
		Workers: workers,
		Fn:      func(_, index int, item T) (R, error) { return fn(index, item) },
	}
	out, _, err := r.Run(items)
	return out, err
}

// Each runs fn over every index in input-sharded fashion with no result
// collection — the fire-and-collect-errors variant for jobs that write
// into caller-owned, index-disjoint slots.
func Each(workers, n int, fn func(index int) error) error {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	_, err := Map(workers, idx, func(_ int, i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}
