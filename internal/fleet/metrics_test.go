package fleet

import (
	"math"
	"runtime"
	"testing"
	"time"

	"rev/internal/telemetry"
)

// TestWorkerClockReconciliation is the satellite invariant: for every
// worker, busy + idle time must reconcile with the fleet wall clock
// exactly (WallSeconds + IdleSeconds == Report.WallSeconds), and every
// job's queue wait must be non-negative and bounded by the wall clock —
// the accounting contract docs/OBSERVABILITY.md promises for the fleet
// report.
func TestWorkerClockReconciliation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	items := make([]int, 24)
	for i := range items {
		items[i] = i
	}
	r := Runner[int, int]{
		Workers: 3,
		Fn: func(_, i, v int) (int, error) {
			// Uneven job mix so some workers idle at the tail.
			time.Sleep(time.Duration(200+100*(i%3)) * time.Microsecond)
			return v, nil
		},
	}
	for _, inline := range []bool{false, true} {
		if inline {
			r.Workers = 1
		}
		_, rep, err := r.Run(items)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Inline != inline {
			t.Fatalf("inline = %v, want %v", rep.Inline, inline)
		}
		for _, wm := range rep.PerWorker {
			if wm.IdleSeconds < 0 {
				t.Fatalf("worker %d negative idle: %+v", wm.Worker, wm)
			}
			sum := wm.WallSeconds + wm.IdleSeconds
			if math.Abs(sum-rep.WallSeconds) > 1e-9 {
				t.Errorf("worker %d: busy %.9f + idle %.9f = %.9f != fleet wall %.9f",
					wm.Worker, wm.WallSeconds, wm.IdleSeconds, sum, rep.WallSeconds)
			}
		}
		for _, jm := range rep.PerJob {
			if jm.QueueWaitSeconds < 0 {
				t.Errorf("job %d negative queue wait %.9f", jm.Index, jm.QueueWaitSeconds)
			}
			if jm.QueueWaitSeconds > rep.WallSeconds {
				t.Errorf("job %d queue wait %.9f exceeds fleet wall %.9f",
					jm.Index, jm.QueueWaitSeconds, rep.WallSeconds)
			}
		}
		// Later jobs cannot have waited less than the first dispatched job
		// on the inline path (strict FIFO there).
		if inline {
			for i := 1; i < len(rep.PerJob); i++ {
				if rep.PerJob[i].QueueWaitSeconds < rep.PerJob[i-1].QueueWaitSeconds {
					t.Errorf("inline queue waits not monotone at job %d", i)
				}
			}
		}
	}
}

// TestFleetTraceTracks wires a shared recorder into the pool: each
// worker must own exactly one track, every job must appear as one span,
// and span args must carry the job's input index.
func TestFleetTraceTracks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const jobs = 40
	rec := telemetry.NewRecorder(256)
	r := Runner[int, int]{
		Workers: 4,
		Fn: func(_, i, v int) (int, error) {
			time.Sleep(50 * time.Microsecond)
			return v, nil
		},
		Trace: rec,
	}
	_, rep, err := r.Run(make([]int, jobs))
	if err != nil {
		t.Fatal(err)
	}
	spanCount := 0
	perTrack := map[string]int{}
	seenIndex := map[uint64]int{}
	for _, e := range rec.Events() {
		if e.Kind != "span" {
			continue
		}
		if e.Name != "job" || e.ArgName != "index" {
			t.Fatalf("unexpected span %+v", e)
		}
		spanCount++
		perTrack[e.Track]++
		seenIndex[e.Arg]++
	}
	if spanCount != jobs {
		t.Fatalf("job spans = %d, want %d", spanCount, jobs)
	}
	for i := uint64(0); i < jobs; i++ {
		if seenIndex[i] != 1 {
			t.Errorf("job %d traced %d times", i, seenIndex[i])
		}
	}
	if len(perTrack) > rep.Workers {
		t.Errorf("tracks = %d, workers = %d", len(perTrack), rep.Workers)
	}
	for track, n := range perTrack {
		// Track names are workerN; per-job counts must reconcile with the
		// report's per-worker job counts.
		var matched bool
		for _, wm := range rep.PerWorker {
			if track == "worker"+itoa(wm.Worker) && wm.Jobs == n {
				matched = true
			}
		}
		if !matched {
			t.Errorf("track %s span count %d matches no worker report %+v", track, n, rep.PerWorker)
		}
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
