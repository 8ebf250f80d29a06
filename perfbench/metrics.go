package main

import "fmt"

// Every metric a run can print, with its unit. Untraced runs print every
// end-to-end metric and traced runs every per-layer metric, on every
// workload: a per-layer metric of a layer the workload does not exercise
// reads 0. BENCHMARK.json lists the same names (TestBenchmarkJSONMatches).
var endToEndMetrics = []metricDef{
	{"blocks_per_s", "blocks/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayerMetrics = []metricDef{
	// Set-up stages, timed once per run around the benchmark's own calls.
	{"workload.build_s", "s"},
	{"cfg.profile_s", "s"},
	{"cfg.analyze_s", "s"},
	{"cfg.graph_s", "s"},
	{"sigtable.build_s", "s"},
	{"sigtable.snapshot_s", "s"},
	{"runtime.setup_alloc_mb", "MB"},
	// Per operation from here on.
	{"core.run_s", "s"},
	{"core.prepare_remote_s", "s"},
	{"experiments.regen_s", "s"},
	{"runtime.op_alloc_mb", "MB"},
	// CPU profile of the traced rounds, summed by package.
	{"cpu.self_s", "s"},
	{"mem.self_s", "s"},
	{"branch.self_s", "s"},
	{"core.self_s", "s"},
	{"sigcache.self_s", "s"},
	{"chash.self_s", "s"},
	{"crypt.self_s", "s"},
	{"sigtable.self_s", "s"},
	{"cfg.self_s", "s"},
	{"workload.self_s", "s"},
	{"evidence.self_s", "s"},
	{"sigserve.self_s", "s"},
	{"prefetch.self_s", "s"},
	{"runtime.self_s", "s"},
	{"other.self_s", "s"},
	// Engine signature memo.
	{"core.memo_hits", "count"},
	{"core.memo_misses", "count"},
	{"core.memo_hit_ratio", "ratio"},
	// Validation fleet.
	{"fleet.busy_s", "s"},
	{"fleet.idle_s", "s"},
	{"fleet.jobs", "count"},
	// Plain and attested halves of the serve workload's throughput.
	{"serve.plain_blocks_per_s", "blocks/s"},
	{"serve.attest_blocks_per_s", "blocks/s"},
	// Evidence stream.
	{"evidence.encode_s", "s"},
	{"evidence.verify_s", "s"},
	{"evidence.bytes_per_block", "B/block"},
	{"evidence.ring_stalls", "count"},
	// Signature service wire path.
	{"sigserve.blocking_lookups", "count"},
	{"sigserve.rtt_p50_s", "s"},
	{"sigserve.rtt_p99_s", "s"},
	{"sigserve.rtt_samples", "count"},
	{"sigserve.queue_wait_p50_s", "s"},
	{"sigserve.queue_wait_p99_s", "s"},
	{"sigserve.queue_wait_samples", "count"},
	{"sigserve.client_batches", "count"},
	{"sigserve.coalesced", "count"},
	{"sigserve.server_requests", "count"},
	{"sigserve.bytes_in", "B"},
	{"sigserve.bytes_out", "B"},
	// Signature prefetcher.
	{"prefetch.issued", "count"},
	{"prefetch.hits", "count"},
	{"prefetch.late", "count"},
	{"prefetch.misses", "count"},
	{"prefetch.wasted", "count"},
	{"prefetch.useful_ratio", "ratio"},
	// Simulated counts: identical across any change that only speeds up
	// the simulator.
	{"cpu.instrs", "count"},
	{"cpu.cycles", "count"},
	{"cpu.blocks", "count"},
	{"branch.mispredicts", "count"},
	{"sigcache.probes", "count"},
	{"sigcache.partial_misses", "count"},
	{"sigcache.complete_misses", "count"},
	{"core.ram_lookups", "count"},
	{"core.records_touched", "count"},
	{"core.validation_stall_cycles", "count"},
	// Tracing overhead against untraced rounds of the same process.
	{"trace.overhead_pct", "%"},
	{"trace.untraced_round_s", "s"},
	{"trace.traced_round_s", "s"},
}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// complete returns ms with every metric of defs that ms lacks set to 0
// in its declared unit. A metric outside defs, or in another unit, is a
// bug in the benchmark.
func complete(ms map[string]metric, defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{0, d.unit}
	}
	for name, m := range ms {
		if d, ok := out[name]; !ok || d.Unit != m.Unit {
			panic(fmt.Sprintf("perfbench: metric %s (%s) is not declared", name, m.Unit))
		}
		out[name] = m
	}
	return out
}
