GO ?= go

.PHONY: all build test vet doccheck race race-all test-race bench-smoke bench-figures bench-scaling bench-telemetry bench-load bench-load-sharded profile clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Godoc comment-coverage gate over the documentation-critical packages
# (sigserve, sigtable, fleet, telemetry, prefetch, evidence, revattest).
# CI runs this after vet.
doccheck:
	./scripts/doccheck.sh

# Race-check the packages that run engines in parallel (the experiments
# suite fans simulations out across goroutines; each engine must stay
# goroutine-local).
race:
	$(GO) test -race ./internal/core ./internal/chash

race-all:
	$(GO) test -race ./internal/...

# The fleet race shard (what CI runs): worker pool, shared snapshots,
# engine confinement, figure determinism.
test-race:
	$(GO) test -race -short ./internal/fleet ./internal/sigtable ./internal/core ./internal/experiments ./internal/chash

# Quick perf guardrail: the hot-path microbenchmarks with allocation
# reporting. BenchmarkHookHashedMemoized must report 0 allocs/op.
bench-smoke:
	$(GO) test -run xxx -bench 'HookHashed' -benchtime 100000x ./internal/core
	$(GO) test -run xxx -bench 'CubeHashBlock|CHGFeedRetire' -benchtime 100000x ./internal/chash
	$(GO) test -run xxx -bench 'StoreTable' -benchtime 100000x ./internal/cpu

# One timing of the fig6/fig7 harness under go test. Hot-path
# regressions are judged by the benchmark module instead
# (bash perfbench/run.sh, perfbench/README.md), which takes medians over
# repeated runs and checks its output.
bench-figures:
	$(GO) test -run xxx -bench 'Fig6|Fig7' -benchtime 1x .

# Regenerate the committed pipeline scaling record: sweeps lanes {1,2,4}
# x GOMAXPROCS (powers of two up to NumCPU), checks byte identity and
# steady-state allocs/run at every point, and
# writes the self-annotating record (single_cpu / scaling_valid are
# machine-written from the recording host). Exits nonzero on identity
# divergence or any point allocating past 0 allocs/run.
bench-scaling:
	$(GO) run ./cmd/revbench -instrs 300000 -scalingjson BENCH_pipeline.json

# Regenerate the hot-path overhead record: interleaved best-of-5
# rounds of one prepared workload with telemetry and evidence disabled,
# metrics, metrics+trace and an evidence stream, plus a metrics off/on
# pair in prefetching lookup mode; the byte-identity verdict across all
# of them; evidence stream determinism and offline verification; and
# allocs per validated block. Exits nonzero when the metrics,
# prefetch-metrics or evidence hot-path overhead exceeds 2% (the CI
# telemetry-overhead job runs the same command).
bench-telemetry:
	$(GO) run ./cmd/revbench -instrs 500000 -teljson BENCH_telemetry.json

# Regenerate the attestation-plane load record: closed-loop phases per
# message type plus an open-loop offered-rate sweep against a
# self-hosted server, verifying every remote verdict against a local
# snapshot copy. Exits nonzero on any protocol error, identity
# mismatch, or empty latency record (the CI load-smoke job runs a
# shorter configuration of the same harness).
bench-load:
	$(GO) run ./cmd/revload -tenants 4 -workers 2 -duration 2s \
		-rates 1000,4000,16000 -json BENCH_load.json

# Regenerate the sharded section of the load record: the same harness
# against an in-process 2-shard x 2-replica ring with per-shard
# admission control, draining one shard halfway through. The record
# gains a "sharded" block (ring config, drained shard, total admission
# rejections) and the rate sweep shows the offered-vs-achieved collapse
# once offered load passes plane capacity — rejections are counted
# separately from errors, which must stay zero (the CI shard-identity
# job runs a shorter configuration of the same harness).
bench-load-sharded:
	$(GO) run ./cmd/revload -shards 2 -replicas 2 -drain-one \
		-admit-rate 4000 -tenants 4 -workers 2 -duration 2s \
		-rates 1000,4000,16000 -json BENCH_load.json

# CPU + allocation profiles of the fig6 harness (the per-block validation
# hot path end to end). Drops cpu.prof / mem.prof / rev.test in the repo
# root and prints the top entries; dig deeper with
#   go tool pprof rev.test cpu.prof
profile:
	$(GO) test -run xxx -bench 'Fig6' -benchtime 1x \
		-cpuprofile cpu.prof -memprofile mem.prof -o rev.test .
	$(GO) tool pprof -top -nodecount 15 rev.test cpu.prof
	$(GO) tool pprof -top -nodecount 15 -sample_index=alloc_objects rev.test mem.prof

clean:
	$(GO) clean ./...
