package main

import (
	"fmt"
	"net"
	"time"

	"rev/internal/core"
	"rev/internal/prefetch"
	"rev/internal/sigserve"
	"rev/internal/sigtable"
	"rev/internal/workload"
)

// prefetchEntry is one (depth, delay) configuration of the prefetch
// ladder. Depth 0 is the unprefetched lookup-mode baseline.
type prefetchEntry struct {
	Depth           int     `json:"depth"`
	DelayMS         float64 `json:"delay_ms"`
	WallSeconds     float64 `json:"wall_seconds"`
	PrepareSeconds  float64 `json:"prepare_seconds"`
	SlowdownVsLocal float64 `json:"slowdown_vs_local"`
	// Identical reports verdict/figure byte-identity with the local run,
	// including a nil SourceNotes (no degradation happened).
	Identical bool   `json:"identical"`
	SCMisses  uint64 `json:"sc_misses"`
	// Hits/Late/Misses classify the engine-visible lookup stream: buffer
	// hit, coalesced with an in-flight speculative batch, or full
	// blocking round trip.
	Hits   uint64 `json:"prefetch_hits"`
	Late   uint64 `json:"prefetch_late"`
	Misses uint64 `json:"prefetch_misses"`
	// Issued/Batches/Wasted describe the speculative side: queries sent,
	// wire round trips they were packed into, and buffered answers no
	// engine ever read.
	Issued  uint64 `json:"prefetch_issued"`
	Batches uint64 `json:"prefetch_batches"`
	Wasted  uint64 `json:"prefetch_wasted"`
	// Accuracy is Hits / (Hits + Late + Misses).
	Accuracy float64 `json:"prefetch_accuracy"`
}

// prefetchReport is the -prefetchjson record (BENCH_prefetch.json).
type prefetchReport struct {
	Generated        string          `json:"generated"`
	Host             hostMeta        `json:"host"`
	Workload         string          `json:"workload"`
	Instrs           uint64          `json:"instrs"`
	Scale            float64         `json:"scale"`
	LocalWallSeconds float64         `json:"local_wall_seconds"`
	Entries          []prefetchEntry `json:"entries"`
	AllIdentical     bool            `json:"all_identical"`
	// Best5msSlowdown is the best slowdown-vs-local any prefetching
	// depth (>0) achieved at the 5 ms service delay — the headline
	// latency-hiding number (compare the depth-0 row at 5 ms).
	Best5msSlowdown float64 `json:"best_5ms_slowdown,omitempty"`
	// GateMax, when nonzero, is the -prefetchmax ceiling applied to
	// Best5msSlowdown; WithinGate records the outcome.
	GateMax    float64 `json:"gate_max,omitempty"`
	WithinGate bool    `json:"within_gate"`
}

// probePrefetch measures what predictive prefetching buys in lookup
// mode: a local in-process baseline, then a loopback revserved queried
// per-entry across a (depth × service-delay) grid. Every run must stay
// byte-identical to the local baseline — prefetching is latency hiding,
// never a semantic change — and when gateMax > 0 the best prefetching
// depth at 5 ms must come in at or under that slowdown.
func probePrefetch(instrs uint64, scale float64, depths []int, gateMax float64) (*prefetchReport, error) {
	p, err := workload.ByName("bzip2")
	if err != nil {
		return nil, err
	}
	p = p.Scaled(scale)
	rc := core.DefaultRunConfig()
	rc.MaxInstrs = instrs
	cfg := core.DefaultConfig()
	cfg.Format = sigtable.Normal
	rc.REV = &cfg

	prep, err := core.Prepare(p.Builder(), rc)
	if err != nil {
		return nil, err
	}
	localRes, localWall, _, err := timedRun(prep, 0)
	if err != nil {
		return nil, err
	}
	if localRes.Violation != nil {
		return nil, fmt.Errorf("clean workload flagged locally: %v", localRes.Violation)
	}
	sig := identitySig(localRes)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := sigserve.NewServer()
	for _, st := range prep.Tables {
		srv.Publish("default", st.Module, *st.Table, st.Snap)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-serveDone
	}()
	addr := ln.Addr().String()

	rep := &prefetchReport{
		Generated:        time.Now().UTC().Format(time.RFC3339),
		Host:             hostInfo(),
		Workload:         p.Name,
		Instrs:           instrs,
		Scale:            scale,
		LocalWallSeconds: round3(localWall),
		AllIdentical:     true,
		GateMax:          gateMax,
	}
	for _, depth := range depths {
		for _, delay := range []time.Duration{0, time.Millisecond, 5 * time.Millisecond} {
			srv.SetDelay(delay)
			client, err := sigserve.NewClient(sigserve.ClientConfig{Addr: addr, LookupMode: true})
			if err != nil {
				return nil, err
			}
			rcp := rc
			rcp.Prefetch = prefetch.Config{Depth: depth}
			prepStart := time.Now()
			rprep, err := core.PrepareRemote(p.Builder(), rcp, client)
			prepWall := time.Since(prepStart).Seconds()
			if err != nil {
				client.Close()
				return nil, fmt.Errorf("depth=%d/%v: %w", depth, delay, err)
			}
			start := time.Now()
			res, err := rprep.RunInstance(core.InstanceOptions{})
			wall := time.Since(start).Seconds()
			st, _ := rprep.PrefetchStats()
			rprep.Close()
			client.Close()
			if err != nil {
				return nil, fmt.Errorf("depth=%d/%v: %w", depth, delay, err)
			}
			e := prefetchEntry{
				Depth:          depth,
				DelayMS:        float64(delay) / float64(time.Millisecond),
				WallSeconds:    round3(wall),
				PrepareSeconds: round3(prepWall),
				Identical:      identitySig(res) == sig && res.SourceNotes == nil,
				SCMisses:       res.SC.Misses,
				Hits:           st.Hits,
				Late:           st.Late,
				Misses:         st.Misses,
				Issued:         st.Issued,
				Batches:        st.Batches,
				Wasted:         st.Wasted,
				Accuracy:       round3(st.Accuracy()),
			}
			if localWall > 0 {
				e.SlowdownVsLocal = round3(wall / localWall)
			}
			if !e.Identical {
				rep.AllIdentical = false
			}
			if depth > 0 && delay == 5*time.Millisecond &&
				(rep.Best5msSlowdown == 0 || e.SlowdownVsLocal < rep.Best5msSlowdown) {
				rep.Best5msSlowdown = e.SlowdownVsLocal
			}
			fmt.Printf("prefetch depth=%-3d delay=%-4s wall %7.3fs  slowdown %7.2fx  hits %d late %d miss %d  acc %.2f  identical %v\n",
				depth, delay, wall, e.SlowdownVsLocal, st.Hits, st.Late, st.Misses, st.Accuracy(), e.Identical)
			rep.Entries = append(rep.Entries, e)
		}
	}
	rep.WithinGate = gateMax <= 0 || (rep.Best5msSlowdown > 0 && rep.Best5msSlowdown <= gateMax)
	return rep, nil
}
