package main

// metricDef names one metric of the benchmark. BENCHMARK.json lists the same
// names, units and directions (a test keeps the two in step); moves is the
// written-down prediction of which end-to-end metric a layer metric should
// move, and where (README.md has the full map).
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is the share of the parent's median an end-to-end metric may
	// worsen by before it counts as a regression (0 for per-layer metrics).
	bound float64
	// span, for a per-layer time, is the span whose mean self time per op
	// is the value; metrics without one are counts or derived values that
	// the traced pass fills in by name.
	span  string
	moves string
}

// endToEnd is what a user of the system sees. failed_frac is not among them
// because it is always 0 on these workloads; the run's attempted/failed
// counts carry it. The tail is not either: a p95 sits where a handful of
// samples (exact_*) or the collector's duty cycle (serve_light) put it, and
// from run to run that moved it past any bound the contract allows; the
// traced run reports it, whole-window, as runtime.op_p95_ms.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "heap_retained_mb", unit: "MB", better: "lower", bound: 0.05},
}

const (
	exactLoop  = "op_p50_ms, ops_per_s on exact_dense and exact_sharded"
	compileAll = "ops_per_s, op_p50_ms on cold_compile"
	compileP95 = "ops_per_s and the tail (runtime.op_p95_ms) on cold_compile (cyclic kinds)"
	compileLow = "ops_per_s and the low quartile on cold_compile (restore kinds)"
	lightP50   = "op_p50_ms on serve_light"
	writesP95  = "ops_per_s and the tail (runtime.op_p95_ms) on serve_writes (write path)"
	writesP50  = "op_p50_ms on serve_writes (reads)"
	ownRun     = "ops_per_s, heap_retained_mb on the workload it is reported for"
	// A run has one CPU, so the parallel runtime's gain shows in no end-to-end
	// metric; the probes measure it on every CPU.
	parallelGain = "none end to end: what a second CPU would buy exact_dense"
)

var perLayer = []metricDef{
	// Algorithm 1's loop, from Options.CollectPhases.
	{name: "core.pivot_ms", unit: "ms", better: "lower", span: "core.pivot", moves: exactLoop},
	{name: "core.trim_ms", unit: "ms", better: "lower", span: "core.trim", moves: exactLoop},
	{name: "core.derive_ms", unit: "ms", better: "lower", span: "core.derive", moves: exactLoop},
	{name: "core.count_ms", unit: "ms", better: "lower", span: "core.count", moves: exactLoop},
	{name: "core.tail_ms", unit: "ms", better: "lower", span: "core.answer", moves: exactLoop},
	{name: "core.iterations", unit: "count", better: "lower", moves: exactLoop},
	{name: "core.materialized", unit: "count", better: "lower", moves: exactLoop},
	{name: "core.max_instance_tuples", unit: "count", better: "lower", moves: exactLoop},
	// Single passes of the loop's layers on the full instance.
	{name: "pivot.select_ms", unit: "ms", better: "lower", span: "pivot.select", moves: exactLoop},
	{name: "pivot.merge_us", unit: "us", better: "lower", span: "pivot.merge", moves: "op_p50_ms on exact_sharded"},
	{name: "trim.sum_adjacent_ms", unit: "ms", better: "lower", span: "trim.sum_adjacent", moves: exactLoop},
	{name: "trim.minmax_ms", unit: "ms", better: "lower", span: "trim.minmax", moves: exactLoop},
	{name: "trim.lex_ms", unit: "ms", better: "lower", span: "trim.lex", moves: exactLoop},
	{name: "jointree.derive_ms", unit: "ms", better: "lower", span: "jointree.derive", moves: exactLoop},
	{name: "parallel.count_speedup", unit: "ratio", better: "higher", moves: parallelGain},
	{name: "parallel.exec_speedup", unit: "ratio", better: "higher", moves: parallelGain},
	{name: "parallel.answer_speedup", unit: "ratio", better: "higher", moves: parallelGain},
	{name: "shard.partition_ms", unit: "ms", better: "lower", span: "shard.partition", moves: "setup_s on exact_sharded"},
	// Compile and restore.
	{name: "qjoin.prepare_ms", unit: "ms", better: "lower", span: "qjoin.prepare", moves: compileAll},
	{name: "qjoin.prepare_cyclic_ms", unit: "ms", better: "lower", span: "qjoin.prepare_cyclic", moves: compileP95},
	{name: "qjoin.restore_ms", unit: "ms", better: "lower", span: "qjoin.restore", moves: compileLow},
	{name: "query.selfjoin_us", unit: "us", better: "lower", span: "query.selfjoin", moves: compileAll},
	{name: "relation.dedup_ms", unit: "ms", better: "lower", span: "relation.dedup", moves: compileAll},
	{name: "jointree.build_us", unit: "us", better: "lower", span: "jointree.build", moves: compileAll},
	{name: "jointree.exec_ms", unit: "ms", better: "lower", span: "jointree.exec", moves: compileAll},
	{name: "jointree.reduce_ms", unit: "ms", better: "lower", span: "jointree.reduce", moves: compileAll},
	{name: "yannakakis.count_ms", unit: "ms", better: "lower", span: "yannakakis.count", moves: compileAll},
	{name: "decomp.search_us", unit: "us", better: "lower", span: "decomp.search", moves: compileP95},
	{name: "decomp.materialize_ms", unit: "ms", better: "lower", span: "decomp.materialize", moves: compileP95},
	{name: "decomp.bag_rows", unit: "count", better: "lower", moves: compileP95},
	{name: "snap.sections_ms", unit: "ms", better: "lower", span: "snap.sections", moves: compileLow},
	{name: "snap.decode_ms", unit: "ms", better: "lower", moves: compileLow},
	{name: "snap.encode_ms", unit: "ms", better: "lower", span: "snap.encode", moves: "setup_s on cold_compile"},
	{name: "snap.bytes_per_tuple", unit: "B", better: "lower", moves: compileLow},
	// The request path.
	{name: "server.handler_us", unit: "us", better: "lower", span: "server.handler", moves: lightP50},
	{name: "server.http_overhead_us", unit: "us", better: "lower", moves: lightP50},
	{name: "server.cache_get_ns", unit: "ns", better: "lower", span: "server.cache_get", moves: lightP50},
	{name: "qjoin.parse_spec_ns", unit: "ns", better: "lower", span: "qjoin.parse_spec", moves: lightP50},
	{name: "qjoin.json_decode_ns", unit: "ns", better: "lower", span: "qjoin.json_decode", moves: lightP50},
	{name: "qjoin.json_encode_ns", unit: "ns", better: "lower", span: "qjoin.json_encode", moves: lightP50},
	{name: "qjoin.answer_sketch_us", unit: "us", better: "lower", span: "qjoin.answer_sketch", moves: lightP50},
	{name: "server.miss_ms", unit: "ms", better: "lower", moves: "ops_per_s on serve_light"},
	{name: "server.cache_hit_ratio", unit: "ratio", better: "higher", moves: "ops_per_s on serve_light"},
	{name: "server.cache_evictions", unit: "count", better: "lower", moves: "ops_per_s on serve_light"},
	{name: "sketch.build_ms", unit: "ms", better: "lower", span: "sketch.build", moves: "setup_s on serve_light"},
	{name: "sketch.entries", unit: "count", better: "lower", moves: "setup_s on serve_light"},
	// Writes beside reads.
	{name: "server.delta_ms", unit: "ms", better: "lower", moves: writesP95},
	{name: "qjoin.db_apply_ms", unit: "ms", better: "lower", span: "qjoin.db_apply", moves: writesP95},
	{name: "snap.wal_append_ms", unit: "ms", better: "lower", span: "snap.wal_append", moves: writesP95},
	{name: "snap.wal_bytes_per_row", unit: "B", better: "lower", moves: writesP95},
	{name: "qjoin.update_ms", unit: "ms", better: "lower", span: "qjoin.update", moves: writesP95},
	{name: "qjoin.warm_sketches_ms", unit: "ms", better: "lower", span: "qjoin.warm_sketches", moves: writesP95},
	{name: "server.cache_migrations", unit: "count", better: "higher", moves: writesP95},
	{name: "server.read_exact_ms", unit: "ms", better: "lower", moves: writesP50},
	{name: "server.read_approx_us", unit: "us", better: "lower", moves: writesP50},
	// The process, per workload.
	{name: "runtime.allocs_per_op", unit: "count", better: "lower", moves: ownRun},
	{name: "runtime.alloc_kb_per_op", unit: "KB", better: "lower", moves: ownRun},
	{name: "runtime.peak_rss_mb", unit: "MB", better: "lower", moves: ownRun},
	{name: "runtime.gc_cpu_frac", unit: "ratio", better: "lower", moves: ownRun},
	{name: "runtime.op_p95_ms", unit: "ms", better: "lower", moves: ownRun},
	{name: "runtime.op_p99_ms", unit: "ms", better: "lower", moves: ownRun},
	{name: "runtime.op_max_ms", unit: "ms", better: "lower", moves: ownRun},
	{name: "server.errors", unit: "count", better: "lower", moves: "failed ops on the workload it is reported for"},
	{name: "server.timeouts", unit: "count", better: "lower", moves: "failed ops on the workload it is reported for"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower", moves: "none: how far the decomposed replay is from the untraced run"},
}

// unitNS is how many nanoseconds one unit of a time metric holds.
var unitNS = map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerValues turns the traced pass's spans and named values into the full
// per-layer metric set. A layer the workload never enters reports 0: it took
// no time there.
func layerValues(self map[string]layerTime, named map[string]float64) map[string]value {
	out := make(map[string]value, len(perLayer))
	for _, m := range perLayer {
		v := named[m.name]
		if m.span != "" {
			v = self[m.span].perOp() / unitNS[m.unit]
		}
		out[m.name] = value{Value: v, Unit: m.unit}
	}
	return out
}
