package main

import (
	"fmt"
	"net"
	"time"

	"rev/internal/core"
	"rev/internal/sigserve"
	"rev/internal/sigtable"
	"rev/internal/workload"
)

// remoteEntry is one configuration of the remote-sourcing ladder.
type remoteEntry struct {
	// Mode is "snapshot" (one fetch at prepare time) or "lookup"
	// (per-entry remote fetches, batched and coalesced).
	Mode string `json:"mode"`
	// DelayMS is the injected per-request service delay on the server.
	DelayMS float64 `json:"delay_ms"`
	// WallSeconds is the measured run's wall time (excluding PrepareRemote).
	WallSeconds float64 `json:"wall_seconds"`
	// PrepareSeconds covers PrepareRemote: the snapshot fetch and program
	// build.
	PrepareSeconds float64 `json:"prepare_seconds"`
	// SlowdownVsLocal is WallSeconds over the local baseline's.
	SlowdownVsLocal float64 `json:"slowdown_vs_local"`
	// Identical reports verdict/figure byte-identity with the local run,
	// including a nil SourceNotes (no degradation happened).
	Identical bool `json:"identical"`
	// SCMisses is the run's signature-cache miss count — in lookup mode,
	// the number of queries that crossed the wire.
	SCMisses uint64 `json:"sc_misses"`
}

// remoteReport is the -remotejson record (EXPERIMENTS.md "Remote
// signature sourcing").
type remoteReport struct {
	Host             hostMeta      `json:"host"`
	Workload         string        `json:"workload"`
	Instrs           uint64        `json:"instrs"`
	Scale            float64       `json:"scale"`
	LocalWallSeconds float64       `json:"local_wall_seconds"`
	Entries          []remoteEntry `json:"entries"`
	AllIdentical     bool          `json:"all_identical"`
}

// probeRemote measures what remote signature sourcing costs: a local
// in-process baseline (core.Prepare) against a loopback revserved in
// snapshot mode and lookup mode, each across an injected service-latency
// ladder of 0/1/5 ms. Every remote run's verdicts and figures must be
// byte-identical to the local baseline — the probe fails otherwise.
func probeRemote(instrs uint64, scale float64) (*remoteReport, error) {
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

	// Local baseline: the in-process snapshot path every prior figure
	// uses.
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

	// Loopback server publishing the exact tables the local run used.
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

	rep := &remoteReport{
		Host:             hostInfo(),
		Workload:         p.Name,
		Instrs:           instrs,
		Scale:            scale,
		LocalWallSeconds: round3(localWall),
		AllIdentical:     true,
	}
	for _, mode := range []string{"snapshot", "lookup"} {
		for _, delay := range []time.Duration{0, time.Millisecond, 5 * time.Millisecond} {
			srv.SetDelay(delay)
			client, err := sigserve.NewClient(sigserve.ClientConfig{
				Addr:       addr,
				LookupMode: mode == "lookup",
			})
			if err != nil {
				return nil, err
			}
			prepStart := time.Now()
			rprep, err := core.PrepareRemote(p.Builder(), rc, client)
			prepWall := time.Since(prepStart).Seconds()
			if err != nil {
				client.Close()
				return nil, fmt.Errorf("%s/%v: %w", mode, delay, err)
			}
			start := time.Now()
			res, err := rprep.RunInstance(core.InstanceOptions{})
			wall := time.Since(start).Seconds()
			client.Close()
			if err != nil {
				return nil, fmt.Errorf("%s/%v: %w", mode, delay, err)
			}
			e := remoteEntry{
				Mode:           mode,
				DelayMS:        float64(delay) / float64(time.Millisecond),
				WallSeconds:    round3(wall),
				PrepareSeconds: round3(prepWall),
				Identical:      identitySig(res) == sig && res.SourceNotes == nil,
				SCMisses:       res.SC.Misses,
			}
			if localWall > 0 {
				e.SlowdownVsLocal = round3(wall / localWall)
			}
			if !e.Identical {
				rep.AllIdentical = false
			}
			rep.Entries = append(rep.Entries, e)
		}
	}
	return rep, nil
}
