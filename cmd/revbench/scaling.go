package main

// The -scalingjson probe: an honest multi-core scaling record for the
// pipelined validator. Earlier BENCH_pipeline.json revisions carried a
// hand-written "produced on a 1-CPU host" caveat; this probe makes the
// hardware context machine-written — it sweeps lanes × GOMAXPROCS,
// measures wall time, byte-identity, and steady-state allocations per
// run at every point, and self-annotates the artifact
// with single_cpu / scaling_valid so a speedup claim can never outrun
// the host it was measured on.

import (
	"fmt"
	"runtime"
	"time"

	"rev/internal/core"
)

// scalePoint is one lanes×procs cell of the scaling sweep.
type scalePoint struct {
	Procs int `json:"procs"`
	Lanes int `json:"lanes"`
	// WallSeconds is the best-of-rounds wall time; Speedup is relative
	// to the serial baseline measured at the same GOMAXPROCS.
	WallSeconds float64 `json:"wall_seconds"`
	Speedup     float64 `json:"speedup"`
	// Identical reports byte-identity of the full result record against
	// the serial run (the hardware-independent check).
	Identical bool `json:"identical"`
	// AllocsPerRun is the measured steady-state heap allocation count of
	// one full run at this point (the run-arena contract: 0 after
	// warmup, pinned by TestRunInstanceZeroAllocs).
	AllocsPerRun uint64 `json:"allocs_per_run"`
}

// serialBaseline is the serial (lanes=0) reference at one GOMAXPROCS.
type serialBaseline struct {
	Procs        int     `json:"procs"`
	WallSeconds  float64 `json:"wall_seconds"`
	AllocsPerRun uint64  `json:"allocs_per_run"`
}

// scalingReport is the BENCH_pipeline.json payload: per-core scaling
// curves over the lane counts with machine-written host truth.
type scalingReport struct {
	Generated string   `json:"generated"`
	Host      hostMeta `json:"host"`
	Workload  string   `json:"workload"`
	Instrs    uint64   `json:"instrs"`
	Scale     float64  `json:"scale"`
	Rounds    int      `json:"rounds"`
	Blocks    uint64   `json:"blocks"`
	// SingleCPU is machine-written host truth: true when the recording
	// host cannot run producer and lanes concurrently (NumCPU < 2).
	SingleCPU bool `json:"single_cpu"`
	// ScalingValid reports whether the wall-clock speedups in this file
	// are meaningful measurements of pipeline scaling: it requires a
	// multi-CPU host AND byte-identity at every swept point. On a
	// single-CPU host it is false and the speedup columns record
	// scheduler time-slicing, not scaling.
	ScalingValid bool             `json:"scaling_valid"`
	Serial       []serialBaseline `json:"serial"`
	Points       []scalePoint     `json:"points"`
	// BestSpeedup is the best pipelined speedup over the whole sweep
	// (only meaningful when ScalingValid).
	BestSpeedup float64 `json:"best_speedup"`
	// MaxAllocsPerRun is the worst steady-state allocs/run over every
	// swept point — the artifact form of the zero-alloc gate.
	MaxAllocsPerRun uint64 `json:"max_allocs_per_run"`
	// Note is machine-written context for the headline numbers.
	Note string `json:"note,omitempty"`
}

// scalingProcsLadder returns the GOMAXPROCS values to sweep: powers of
// two from 1 up to NumCPU (capped at 8 to bound sweep time), always
// including NumCPU itself.
func scalingProcsLadder() []int {
	n := runtime.NumCPU()
	var ps []int
	for p := 1; p <= n && p <= 8; p *= 2 {
		ps = append(ps, p)
	}
	if len(ps) == 0 || (ps[len(ps)-1] != n && n <= 8) {
		ps = append(ps, n)
	}
	return ps
}

// measurePoint runs one configuration best-of-rounds and measures its
// steady-state allocations: two warmups grow every reusable backing,
// then one GC-bracketed run counts mallocs, then the timed rounds.
func measurePoint(prep *core.Prepared, opts core.InstanceOptions, rounds int) (*core.Result, float64, uint64, error) {
	for i := 0; i < 2; i++ {
		if _, err := prep.RunInstance(opts); err != nil {
			return nil, 0, 0, err
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := prep.RunInstance(opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, 0, 0, err
	}
	allocs := after.Mallocs - before.Mallocs
	best := 0.0
	for r := 0; r < rounds; r++ {
		start := time.Now()
		if _, err := prep.RunInstance(opts); err != nil {
			return nil, 0, 0, err
		}
		wall := time.Since(start).Seconds()
		if r == 0 || wall < best {
			best = wall
		}
	}
	return res, best, allocs, nil
}

// probeScaling sweeps the pipelined executor across lanes × GOMAXPROCS
// and writes the self-annotating scaling record. It fails on any
// identity divergence and on any point past scalingAllocs allocations
// per run.
func probeScaling(instrs uint64, scale float64, rounds int) (*scalingReport, error) {
	p, rc, err := protectedBzip2(instrs, scale)
	if err != nil {
		return nil, err
	}
	if rounds < 1 {
		rounds = 1
	}

	prep, err := core.Prepare(p.Builder(), rc)
	if err != nil {
		return nil, err
	}
	var out core.Result

	prevProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prevProcs)

	rep := &scalingReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Host:      hostInfo(),
		Workload:  p.Name,
		Instrs:    instrs,
		Scale:     scale,
		Rounds:    rounds,
		SingleCPU: runtime.NumCPU() < 2,
	}

	allIdentical := true
	var serialSig string
	for _, procs := range scalingProcsLadder() {
		runtime.GOMAXPROCS(procs)
		serialRes, serialWall, serialAllocs, err := measurePoint(prep,
			core.InstanceOptions{Out: &out}, rounds)
		if err != nil {
			return nil, fmt.Errorf("procs=%d serial: %w", procs, err)
		}
		if serialRes.Violation != nil {
			return nil, fmt.Errorf("clean workload flagged: %v", serialRes.Violation)
		}
		if serialSig == "" {
			serialSig = identitySig(serialRes)
			rep.Blocks = serialRes.Pipe.BBCount
		} else if identitySig(serialRes) != serialSig {
			return nil, fmt.Errorf("procs=%d: serial run diverged across GOMAXPROCS", procs)
		}
		rep.Serial = append(rep.Serial, serialBaseline{
			Procs: procs, WallSeconds: round3(serialWall), AllocsPerRun: serialAllocs,
		})
		if serialAllocs > rep.MaxAllocsPerRun {
			rep.MaxAllocsPerRun = serialAllocs
		}
		for _, lanes := range []int{1, 2, 4} {
			res, wall, allocs, err := measurePoint(prep,
				core.InstanceOptions{Lanes: lanes, Out: &out}, rounds)
			if err != nil {
				return nil, fmt.Errorf("procs=%d lanes=%d: %w", procs, lanes, err)
			}
			pt := scalePoint{
				Procs: procs, Lanes: lanes,
				WallSeconds:  round3(wall),
				Identical:    identitySig(res) == serialSig,
				AllocsPerRun: allocs,
			}
			if wall > 0 {
				pt.Speedup = round3(serialWall / wall)
			}
			if !pt.Identical {
				allIdentical = false
			}
			if pt.Speedup > rep.BestSpeedup {
				rep.BestSpeedup = pt.Speedup
			}
			if allocs > rep.MaxAllocsPerRun {
				rep.MaxAllocsPerRun = allocs
			}
			rep.Points = append(rep.Points, pt)
			fmt.Printf("procs=%d lanes=%d  serial %7.3fs  pipelined %7.3fs  speedup %5.2fx  identical %v  allocs/run %d\n",
				procs, lanes, serialWall, wall, pt.Speedup, pt.Identical, allocs)
		}
	}

	rep.ScalingValid = !rep.SingleCPU && allIdentical
	switch {
	case rep.SingleCPU:
		rep.Note = "single-CPU host: lanes can only time-slice with the producer, so speedup columns measure scheduler overhead, not scaling; byte-identity and allocs/run are the hardware-independent checks"
	case !allIdentical:
		rep.Note = "identity divergence at one or more points: speedups are not trustworthy until parity is restored"
	case rep.BestSpeedup <= 1.0:
		rep.Note = "multi-CPU host but no pipelined point beat serial: hashing is not the bottleneck at this workload size (memoized signatures leave lanes starved)"
	}
	if !allIdentical {
		return rep, fmt.Errorf("pipelined result diverged from serial at one or more sweep points")
	}
	if rep.MaxAllocsPerRun > scalingAllocs {
		return rep, fmt.Errorf("steady-state allocations: %d allocs/run at the worst sweep point, budget %d",
			rep.MaxAllocsPerRun, scalingAllocs)
	}
	return rep, nil
}
