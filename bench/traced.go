package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// maxTracedOps bounds the decomposed replay, and with it the trace file.
const maxTracedOps = 5000

// runTraced is the -trace 1 run. It sets the workload up once, measures an
// untraced window (the client-observed and process-level numbers, and the
// base of the tracing overhead), replays the sequence from the same point
// decomposed into layer spans, then probes single layers, and reports every
// per-layer metric. The time is split 40/30 between the two windows; the
// probes take what their repeat counts need.
func runTraced(cfg config, def workloadDef, oracle any) (*result, error) {
	w, err := setUp(cfg, def, oracle)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer w.close()
	named := make(map[string]float64)

	var before, after runtime.MemStats
	stats0 := serverStats(w)
	runtime.ReadMemStats(&before)
	s := measure(w, def, def.warmup, time.Duration(0.4*cfg.seconds*float64(time.Second)))
	runtime.ReadMemStats(&after)
	lat := s.all()
	if len(lat) == 0 {
		return nil, fmt.Errorf("no op succeeded: %v", s.firstEr)
	}
	ops := float64(len(lat))
	named["runtime.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / ops
	named["runtime.alloc_kb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / ops
	named["runtime.gc_cpu_frac"] = after.GCCPUFraction
	named["runtime.op_p95_ms"], _ = percentile(lat, 95)
	if hs := highestSupported(len(lat)); hs < 99 {
		fmt.Fprintf(os.Stderr, "bench: %d ops in the untraced window: percentiles above p%v have fewer than %d samples beyond them\n", len(lat), hs, minBeyond)
	}
	named["runtime.op_p99_ms"], _ = percentile(lat, 99)
	named["runtime.op_max_ms"] = lat[len(lat)-1]
	if stats0 != nil {
		st := serverStats(w)
		hits, misses := st.Cache.Hits-stats0.Cache.Hits, st.Cache.Misses-stats0.Cache.Misses
		named["server.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
		named["server.cache_evictions"] = float64(st.Cache.Evictions - stats0.Cache.Evictions)
		named["server.cache_migrations"] = float64(st.Cache.Migrations - stats0.Cache.Migrations)
		named["server.errors"] = float64(st.Metrics.Errors - stats0.Metrics.Errors)
		named["server.timeouts"] = float64(st.Metrics.Timeouts - stats0.Metrics.Timeouts)
	}
	res := s.result(w)

	// A world may keep state of its own for the decomposed ops; building it
	// is not part of any op.
	if p, ok := w.(interface{ prepareTraced() error }); ok {
		if err := p.prepareTraced(); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
	}
	tr := newTracer()
	budget := time.Duration(0.3 * cfg.seconds * float64(time.Second))
	t0 := time.Now()
	traced := 0
	for ; traced < maxTracedOps && time.Since(t0) < budget; traced++ {
		res.Attempted++
		if err := w.traced(tr, def.warmup+traced); err != nil {
			fmt.Fprintf(os.Stderr, "bench: traced op %d: %v\n", traced, err)
			res.Failed++
			res.Correct = false
		}
	}
	tracedWall := time.Since(t0)
	opSpans := len(tr.spans)
	// One caller replays the decomposed ops, so compare it with one client's
	// share of the untraced rate.
	untraced := ops / s.wall.Seconds() / float64(def.clients)
	named["trace.overhead_frac"] = 1 - float64(traced)/tracedWall.Seconds()/untraced

	if err := w.probes(tr, s, named); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	named["runtime.peak_rss_mb"] = peakRSSMB()
	for name, vs := range tr.counts {
		named[name] = mean(vs)
	}
	self := tr.selfTimes()
	res.Metrics = layerValues(self, named)

	file := traceFile{
		Workload: def.name, Seed: cfg.seed,
		TracedOps: traced, TracedWallNS: int64(tracedWall),
		UntracedOpNS: mean(lat) * 1e6,
		Spans:        tr.spans,
	}
	for _, sp := range tr.spans[:opSpans] {
		if sp.Parent < 0 {
			file.SelfSumNS += float64(sp.End - sp.Start) // a root's duration is its tree's self times summed
		}
	}
	file.DecomposedOpNS = file.SelfSumNS / float64(max(traced, 1))
	if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
		return nil, err
	}
	if err := file.write(cfg.traceOut); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: %d traced ops, self times sum to %.1f%% of their wall time; decomposed op %.4f ms vs %.4f ms client-observed; spans in %s\n",
		traced, 100*file.SelfSumNS/float64(tracedWall), file.DecomposedOpNS/1e6, file.UntracedOpNS/1e6, cfg.traceOut)
	return res, nil
}
