package server

import (
	"expvar"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a lock-free latency histogram with power-of-two microsecond
// buckets: bucket i counts observations in [2^(i-1), 2^i) µs (bucket 0 is
// < 1µs). Percentile estimates report the upper bound of the bucket the
// percentile falls in, which is conservative and stable under load.
type Histogram struct {
	buckets [hbuckets]atomic.Int64
	count   atomic.Int64
	sumUS   atomic.Int64
}

// hbuckets covers < 1µs .. ≥ ~1.2 hours in 33 power-of-two steps.
const hbuckets = 33

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	idx := bits.Len64(uint64(us)) // 0 for <1µs, else floor(log2)+1
	if idx >= hbuckets {
		idx = hbuckets - 1
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sumUS.Add(us)
}

// HistogramStats is a JSON-friendly snapshot of a histogram.
type HistogramStats struct {
	Count  int64 `json:"count"`
	MeanUS int64 `json:"mean_us"`
	P50US  int64 `json:"p50_us"`
	P95US  int64 `json:"p95_us"`
	P99US  int64 `json:"p99_us"`
}

// Snapshot summarizes the histogram. Counters are read without a global
// lock, so a snapshot taken under fire is approximate by design.
func (h *Histogram) Snapshot() HistogramStats {
	var counts [hbuckets]int64
	total := int64(0)
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s := HistogramStats{Count: total}
	if total == 0 {
		return s
	}
	s.MeanUS = h.sumUS.Load() / total
	s.P50US = percentile(&counts, total, 0.50)
	s.P95US = percentile(&counts, total, 0.95)
	s.P99US = percentile(&counts, total, 0.99)
	return s
}

// percentile returns the upper bound (in µs) of the bucket holding the q-th
// sample.
func percentile(counts *[hbuckets]int64, total int64, q float64) int64 {
	target := int64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	cum := int64(0)
	for i, c := range counts {
		cum += c
		if cum > target {
			if i == 0 {
				return 1
			}
			return 1 << i
		}
	}
	return 1 << (hbuckets - 1)
}

// Metrics holds the per-endpoint request counters and latency histograms
// of one server.
type Metrics struct {
	Requests struct {
		Load, Delta, Query, Stats, Snapshot atomic.Int64
	}
	Errors   atomic.Int64 // responses with status >= 400
	Timeouts atomic.Int64 // requests rejected by the gate or deadline
	Inflight atomic.Int64 // currently admitted requests (gauge)

	LoadLatency     Histogram
	DeltaLatency    Histogram
	QueryLatency    Histogram
	SnapshotLatency Histogram
}

// EndpointStats is the JSON form of one endpoint's metrics.
type EndpointStats struct {
	Requests int64          `json:"requests"`
	Latency  HistogramStats `json:"latency"`
}

// MetricsSnapshot is the JSON form of Metrics (part of /stats and the
// expvar "qjserve" variable).
type MetricsSnapshot struct {
	Load     EndpointStats `json:"load"`
	Delta    EndpointStats `json:"delta"`
	Query    EndpointStats `json:"query"`
	Snap     EndpointStats `json:"snapshot"`
	StatsReq int64         `json:"stats_requests"`
	Errors   int64         `json:"errors"`
	Timeouts int64         `json:"timeouts"`
	Inflight int64         `json:"inflight"`
	// Panics counts the queries and compiles whose work panicked; each
	// answered 500 (see recovered).
	Panics int64 `json:"panics"`
}

// Snapshot captures all counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Load:     EndpointStats{Requests: m.Requests.Load.Load(), Latency: m.LoadLatency.Snapshot()},
		Delta:    EndpointStats{Requests: m.Requests.Delta.Load(), Latency: m.DeltaLatency.Snapshot()},
		Query:    EndpointStats{Requests: m.Requests.Query.Load(), Latency: m.QueryLatency.Snapshot()},
		Snap:     EndpointStats{Requests: m.Requests.Snapshot.Load(), Latency: m.SnapshotLatency.Snapshot()},
		StatsReq: m.Requests.Stats.Load(),
		Errors:   m.Errors.Load(),
		Timeouts: m.Timeouts.Load(),
		Inflight: m.Inflight.Load(),
	}
}

// expvarServer is the server whose stats the process-wide expvar variable
// "qjserve" reports. The daemon runs exactly one server; tests may create
// many, in which case the most recently constructed one wins. Registering
// through an indirection (instead of expvar.Publish per server) avoids the
// duplicate-name panic expvar reserves the right to raise.
var expvarServer atomic.Pointer[Server]

func init() {
	expvar.Publish("qjserve", expvar.Func(func() any {
		s := expvarServer.Load()
		if s == nil {
			return nil
		}
		return s.StatsSnapshot()
	}))
}
