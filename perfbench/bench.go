package main

import (
	"fmt"
	"sort"
	"time"
)

// run collects one workload call's counts and metrics.
type run struct {
	o  options
	tr *tracer // nil when untraced
	pf *cpuProfile

	attempted, failed int
	e2e               map[string]metric
	layers            map[string]metric

	// Traced runs alternate untraced and traced rounds; the round times
	// of both halves give the tracing overhead.
	untracedRound, tracedRound []float64
	tracedOps                  int
	setupAllocMB               float64
	opAllocMB                  []float64
}

func newRun(o options) *run {
	r := &run{o: o, e2e: map[string]metric{}, layers: map[string]metric{}}
	if o.trace {
		r.tr = newTracer()
		r.pf = &cpuProfile{byPkg: map[string]float64{}, byFunc: map[string]float64{}}
	}
	return r
}

// endSetup records setup_s: host time from process start to the first
// measured round.
func (r *run) endSetup() {
	r.e2e["setup_s"] = metric{time.Since(processStart).Seconds(), "s"}
	r.setupAllocMB = heapAllocMB()
}

func (r *run) setE2E(name, unit string, v float64) { r.e2e[name] = metric{v, unit} }

func (r *run) setLayer(name, unit string, v float64) { r.layers[name] = metric{v, unit} }

// perOp divides a traced-round total by the number of traced operations.
func (r *run) perOp(v float64) float64 {
	if r.tracedOps == 0 {
		return 0
	}
	return v / float64(r.tracedOps)
}

// result assembles the output line: end-to-end metrics untraced,
// per-layer metrics traced.
func (r *run) result(ok bool) result {
	res := result{Correct: ok, Attempted: r.attempted, Failed: r.failed}
	if res.Attempted == 0 {
		// A check failed during set-up, before any operation ran.
		res.Attempted, res.Failed = 1, 1
	}
	if r.o.trace {
		res.Metrics = complete(r.layers, perLayerMetrics)
	} else {
		r.e2e["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		res.Metrics = complete(r.e2e, endToEndMetrics)
	}
	return res
}

// roundFunc runs one round of a workload's operations. tr is the tracer
// for a traced round and nil for an untraced one.
type roundFunc func(tr *tracer) error

// loop runs whole rounds until o.seconds have passed. In a traced run the
// rounds alternate untraced/traced (an even number of them) and the
// traced ones run under the CPU profiler, so the overhead of tracing is
// measured against untraced rounds of the same process.
func (r *run) loop(round roundFunc) error {
	start := time.Now()
	for i := 0; ; i++ {
		traced := r.tr != nil && i%2 == 1
		var err error
		if traced {
			if err := r.pf.start(); err != nil {
				return err
			}
			a0 := heapAllocMB()
			err = round(r.tr)
			r.opAllocMB = append(r.opAllocMB, heapAllocMB()-a0)
			if perr := r.pf.stop(); perr != nil && err == nil {
				err = perr
			}
		} else {
			err = round(nil)
		}
		if err != nil {
			return err
		}
		if time.Since(start).Seconds() >= r.o.seconds && (r.tr == nil || traced) {
			return nil
		}
	}
}

// noteRound records a finished round in the right half; ops is the
// number of operations the per-layer metrics of the round are divided by.
func (r *run) noteRound(traced bool, seconds float64, ops int) {
	if traced {
		r.tracedRound = append(r.tracedRound, seconds)
		r.tracedOps += ops
	} else {
		r.untracedRound = append(r.untracedRound, seconds)
	}
}

// finishTrace fills the layer metrics every workload shares and writes
// the traced output files.
func (r *run) finishTrace(name string, counters map[string]any) error {
	if r.tr == nil {
		return nil
	}
	r.setLayer("runtime.setup_alloc_mb", "MB", r.setupAllocMB)
	total := 0.0
	for _, mb := range r.opAllocMB {
		total += mb
	}
	r.setLayer("runtime.op_alloc_mb", "MB", r.perOp(total))
	for _, layer := range cpuLayers {
		r.setLayer(layer+".self_s", "s", r.perOp(r.pf.byPkg[layer]))
	}
	un, tr := median(r.untracedRound), median(r.tracedRound)
	r.setLayer("trace.untraced_round_s", "s", un)
	r.setLayer("trace.traced_round_s", "s", tr)
	over := 0.0
	if un > 0 {
		over = 100 * (tr/un - 1)
	}
	r.setLayer("trace.overhead_pct", "%", over)
	return r.writeTrace(name, counters)
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// checkError marks a failed output check, as opposed to a run that could
// not complete: the result is still printed, with correct=false.
type checkError struct{ msg string }

func (e *checkError) Error() string { return e.msg }

func checkf(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}
