// Command revserved is the signature-table attestation service: it runs
// the trusted-loader pipeline (profiling, static analysis, encrypted
// table build) for the requested workloads once, then serves the
// resulting table snapshots and per-entry lookups to any number of
// measurement processes over the sigserve wire protocol
// (docs/PROTOCOL.md).
//
// Usage:
//
//	revserved -bench gcc                          # serve gcc's tables
//	revserved -bench all -listen :7415            # every benchmark
//	revserved -bench gcc,mcf -tenant team-a       # a named namespace
//	revserved -bench gcc -delay 1ms               # injected service
//	                                              # latency (bench ladder)
//	revserved -bench gcc -debug-addr :6060        # live /metrics + pprof
//
// The measurement side connects with revsim -sigserver or a
// sigserve.Client; as long as both sides name the same benchmark,
// -scale, -instrs and -format, the served tables are byte-identical to
// the ones the client would have built locally, so verdicts and figures
// are identical too (the acceptance contract in docs/PROTOCOL.md).
//
// Clients may also retain attestation evidence streams here
// (revsim -evidence-upload): each tenant keeps its newest streams,
// evicting oldest-first under the -evidence-streams / -evidence-bytes
// bounds, and revattest -fetch pulls a retained stream back for offline
// verification (docs/EVIDENCE.md).
//
// SIGINT/SIGTERM drains gracefully: /readyz (on -debug-addr) flips to
// 503 so load balancers route away, in-flight requests are answered
// CodeShutdown, and the process waits up to -drain-timeout before
// force-closing stragglers. -slow-log emits structured JSON lines for
// requests over a threshold (docs/OBSERVABILITY.md).
//
// A sharded control plane is N revserved processes sharing one -ring:
//
//	revserved -bench gcc -tenant team-a,team-b \
//	    -listen 127.0.0.1:7415 \
//	    -ring a=127.0.0.1:7415,b=127.0.0.1:7416 -ring-self a
//
// Every process is started with the identical -ring / -ring-epoch /
// -replicas / -vnodes and the identical (comma-separated) -tenant
// universe; each computes the same bounded-load placement, publishes
// tables only for the namespaces it owns, and refuses the rest with
// CodeWrongShard redirects naming the owner (docs/DEPLOYMENT.md walks
// through the full topology). -admit-rate arms per-shard admission
// control: load beyond it answers CodeOverloaded with a retry-after
// hint instead of queueing.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rev/internal/core"
	"rev/internal/sigserve"
	"rev/internal/sigtable"
	"rev/internal/telemetry"
	"rev/internal/workload"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7415", "address to serve the sigserve protocol on")
	bench := flag.String("bench", "", "benchmark name(s) to build and serve, comma separated, or 'all'")
	tenant := flag.String("tenant", "default", "tenant namespace to publish the tables under")
	format := flag.String("format", "normal", "validation format: normal, aggressive, cfi-only")
	scale := flag.Float64("scale", 1.0, "workload static-size scale (must match the measurement side)")
	instrs := flag.Uint64("instrs", 1_000_000, "profiling instruction budget (must match the measurement side)")
	keySeed := flag.Uint64("keyseed", 0x5eed, "table key derivation seed")
	delay := flag.Duration("delay", 0, "artificial per-request service delay (latency-ladder benchmarking); a sleep, so values under ~1ms act as ~1.1ms on common Linux hosts")
	evStreams := flag.Int("evidence-streams", 0, "retained evidence streams per tenant (0 keeps the default; see docs/EVIDENCE.md)")
	evBytes := flag.Int("evidence-bytes", 0, "per-stream evidence size cap in bytes (0 keeps the default)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /healthz, /readyz, /debug/vars and /debug/pprof on this address while running")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "graceful-shutdown grace: how long SIGINT/SIGTERM waits for in-flight connections before force-closing")
	tenantRows := flag.Int("tenant-rows", 0, "per-tenant metric row cap before folding into _overflow (0 keeps the default)")
	slowLog := flag.Duration("slow-log", 0, "log requests slower than this as JSON lines on stderr (0 disables)")
	slowRate := flag.Int("slow-log-rate", 10, "max slow-request log lines per second (suppressed lines are counted)")
	ring := flag.String("ring", "", "control-plane membership as id=addr pairs, comma separated; every shard must be started with the identical list (docs/DEPLOYMENT.md)")
	ringSelf := flag.String("ring-self", "", "this process's shard id in -ring (required with -ring)")
	ringEpoch := flag.Uint64("ring-epoch", 1, "topology generation; bump on every membership change, identically on every shard")
	replicas := flag.Int("replicas", 0, "replica-set size per tenant namespace (0 keeps the ring default)")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per shard on the ring (0 keeps the ring default)")
	admitRate := flag.Int("admit-rate", 0, "admission control: sustained requests/second this shard accepts before answering CodeOverloaded (0 disables)")
	admitBurst := flag.Int("admit-burst", 0, "admission burst allowance in requests (0 defaults to -admit-rate)")
	flag.Parse()

	if *bench == "" {
		flag.Usage()
		os.Exit(2)
	}
	f, err := parseFormat(*format)
	if err != nil {
		fmt.Fprintln(os.Stderr, "revserved:", err)
		os.Exit(2)
	}

	var names []string
	if *bench == "all" {
		for _, p := range workload.Profiles() {
			names = append(names, p.Name)
		}
	} else {
		for _, n := range strings.Split(*bench, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	}
	var tenants []string
	for _, tn := range strings.Split(*tenant, ",") {
		if tn = strings.TrimSpace(tn); tn != "" {
			tenants = append(tenants, tn)
		}
	}

	set := &telemetry.Set{Reg: telemetry.NewRegistry()}
	srv := sigserve.NewServer()
	srv.SetTenantRows(*tenantRows)
	srv.Instrument(set)
	srv.SetDelay(*delay)
	srv.SetEvidenceRetention(*evStreams, *evBytes)
	srv.SetSlowLog(os.Stderr, *slowLog, *slowRate)
	srv.SetAdmission(*admitRate, *admitBurst)

	if *ring != "" {
		nodes, err := parseRing(*ring)
		if err != nil {
			fmt.Fprintln(os.Stderr, "revserved:", err)
			os.Exit(2)
		}
		r, err := sigserve.NewRing(nodes, sigserve.RingConfig{
			VNodes:   *vnodes,
			Replicas: *replicas,
			Epoch:    *ringEpoch,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "revserved:", err)
			os.Exit(2)
		}
		if err := srv.SetRing(r, *ringSelf, tenants); err != nil {
			fmt.Fprintln(os.Stderr, "revserved:", err)
			os.Exit(2)
		}
	}
	// A sharded process publishes only the namespaces the ring placed on
	// it; the unsharded single-server case owns everything.
	var owned []string
	for _, tn := range tenants {
		if srv.Owns(tn) {
			owned = append(owned, tn)
		}
	}
	if len(owned) == 0 {
		fmt.Fprintf(os.Stderr, "revserved: shard %q owns none of the configured tenants; serving topology only\n", *ringSelf)
	}

	rc := core.DefaultRunConfig()
	rc.MaxInstrs = *instrs
	rc.KeySeed = *keySeed
	cfg := core.DefaultConfig()
	cfg.Format = f
	rc.REV = &cfg

	for _, name := range names {
		p, err := workload.ByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "revserved:", err)
			os.Exit(1)
		}
		p = p.Scaled(*scale)
		start := time.Now()
		prep, err := core.Prepare(p.Builder(), rc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "revserved: preparing %s: %v\n", name, err)
			os.Exit(1)
		}
		for _, tn := range owned {
			for _, st := range prep.Tables {
				epoch := srv.Publish(tn, st.Module, *st.Table, st.Snap)
				fmt.Fprintf(os.Stderr, "revserved: published %s/%s epoch %d (%s, %d records, %d bytes) in %.2fs\n",
					tn, st.Module, epoch, st.Table.Format, st.Table.Records, st.Table.Size,
					time.Since(start).Seconds())
			}
		}
	}

	if *debugAddr != "" {
		mux := telemetry.NewDebugMux(set.Registry())
		mux.Handle("/healthz", srv.HealthzHandler())
		mux.Handle("/readyz", srv.ReadyzHandler())
		bound, _, err := telemetry.ServeHandler(*debugAddr, mux)
		if err != nil {
			fmt.Fprintln(os.Stderr, "revserved:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "revserved: debug endpoint on http://%s/metrics\n", bound)
	}

	// First signal drains gracefully: /readyz flips unhealthy, in-flight
	// requests are answered CodeShutdown, and up to -drain-timeout is
	// spent waiting for connections to finish. A second signal (or the
	// deadline) force-closes.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintf(os.Stderr, "revserved: draining (up to %v; signal again to force)\n", *drainTimeout)
		go func() {
			<-sigc
			fmt.Fprintln(os.Stderr, "revserved: force close")
			srv.Close()
		}()
		srv.Shutdown(*drainTimeout)
	}()

	if *ring != "" {
		fmt.Fprintf(os.Stderr, "revserved: shard %q (ring epoch %d) serving tenants %q on %s (delay %v)\n",
			*ringSelf, srv.RingEpoch(), strings.Join(owned, ","), *listen, *delay)
	} else {
		fmt.Fprintf(os.Stderr, "revserved: serving tenant %q on %s (delay %v)\n", *tenant, *listen, *delay)
	}
	if err := srv.ListenAndServe(*listen); err != nil {
		fmt.Fprintln(os.Stderr, "revserved:", err)
		os.Exit(1)
	}
}

// parseRing parses -ring's "id=addr,id=addr" membership list.
func parseRing(s string) ([]sigserve.RingNode, error) {
	var nodes []sigserve.RingNode
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad -ring entry %q (want id=addr)", part)
		}
		nodes = append(nodes, sigserve.RingNode{ID: id, Addr: addr})
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("-ring is empty")
	}
	return nodes, nil
}

func parseFormat(s string) (sigtable.Format, error) {
	switch s {
	case "normal":
		return sigtable.Normal, nil
	case "aggressive":
		return sigtable.Aggressive, nil
	case "cfi-only":
		return sigtable.CFIOnly, nil
	}
	return 0, fmt.Errorf("unknown format %q", s)
}
