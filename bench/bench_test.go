package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/quantilejoins/qjoin/internal/relation"
)

// digest hashes a workload's seeded inputs: its generated data and the first
// ops of every client.
func digest(t *testing.T, name string, seed int64) string {
	t.Helper()
	cfg := config{workload: name, seed: seed}
	h := sha256.New()
	data := func(db *relation.Database) {
		for _, rn := range db.Names() {
			r := db.Get(rn)
			h.Write([]byte(rn))
			for i := 0; i < r.Len(); i++ {
				binary.Write(h, binary.LittleEndian, r.RowValues(i))
			}
		}
	}
	const ops = 200
	switch name {
	case "exact_dense", "exact_sharded":
		s := newExactSeq(cfg)
		data(s.db)
		for i := 0; i < ops; i++ {
			h.Write(s.opBytes(0, i))
		}
	case "cold_compile":
		for _, k := range compileKinds(cfg) {
			h.Write([]byte(k.name + k.rank))
			if k.restore == 0 {
				h.Write([]byte(k.q.String()))
				data(k.db)
			}
		}
	case "serve_light", "serve_writes":
		s := newSnSeq(cfg, serveClients)
		data(s.sn.DB)
		data(s.adhocDB)
		for c := 0; c < serveClients; c++ {
			for i := 0; i < ops; i++ {
				if name == "serve_light" {
					h.Write(s.lightBytes(c, i))
				} else {
					h.Write(s.writesBytes(c, i))
				}
			}
		}
	default:
		t.Fatalf("no digest for workload %s", name)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The same seed must give byte-identical inputs — on every machine and in
// every later commit, or results stop being comparable — and another seed
// must give others.
func TestInputsReplay(t *testing.T) {
	pinned := map[string]string{
		"exact_dense":   "5a9881306922985b6b22bb342e7159b1fbf4aadc669b820cad5360abb3c3dd48",
		"exact_sharded": "5a9881306922985b6b22bb342e7159b1fbf4aadc669b820cad5360abb3c3dd48",
		"cold_compile":  "89119ba7465f12f8b019d4d09d2f2d4fc11f5de6f7821b6eaa3ce8d80c537c64",
		"serve_light":   "a4e2c25605cbbff27ed76b557a267cd3c4eab87c1c7675c45c6f888e8bee01e4",
		"serve_writes":  "37aed43b4859bb9aadbca2056ccae5fde3d924ff1c01a58f83bc15c8ce010321",
	}
	for _, def := range workloads {
		got := digest(t, def.name, 1)
		if again := digest(t, def.name, 1); again != got {
			t.Errorf("%s: seed 1 gave two different input digests", def.name)
		}
		if other := digest(t, def.name, 2); other == got {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", def.name)
		}
		if got != pinned[def.name] {
			t.Errorf("%s: inputs of seed 1 changed: digest %s, pinned %s", def.name, got, pinned[def.name])
		}
	}
}

func TestWritesPattern(t *testing.T) {
	want := []int{classDelta, classExact, classApproxRd, classExact, classApproxRd, classExact, classApproxRd, classExact, classApproxRd, classExact}
	for c := 0; c < serveClients; c++ {
		deltas := 0
		for i := 0; i < 40; i++ {
			class, k := writesOp(c, i)
			if class != want[(i+5*c)%10] {
				t.Fatalf("client %d op %d: class %d, want %d", c, i, class, want[(i+5*c)%10])
			}
			if class == classDelta {
				if k != deltas {
					t.Fatalf("client %d op %d is delta %d, want %d", c, i, k, deltas)
				}
				deltas++
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		p         float64
		want      float64
		supported bool
	}{{50, 50, true}, {90, 90, true}, {95, 95, false}, {99, 99, false}, {100, 100, false}, {0.5, 1, true}} {
		got, ok := percentile(xs, tc.p)
		if got != tc.want || ok != tc.supported {
			t.Errorf("p%v of 1..100 = %v (supported %v), want %v (%v)", tc.p, got, ok, tc.want, tc.supported)
		}
	}
	// 5% of 200 samples is exactly ten beyond p95; one fewer is not enough.
	for n, want := range map[int]float64{9: 0, 20: 50, 100: 90, 199: 90, 200: 95, 1000: 99, 10000: 99.9} {
		if got := highestSupported(n); got != want {
			t.Errorf("highest supported percentile of %d samples = %v, want %v", n, got, want)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("an empty sample supports no percentile")
	}
}

// window builds a sample from ops given as (start s, latency ms, class).
func window(seconds float64, classes int, ops ...op) *sample {
	s := &sample{window: time.Duration(seconds * float64(time.Second)), ops: ops, lat: make([][]float64, classes)}
	for _, o := range ops {
		s.lat[o.class] = append(s.lat[o.class], o.ms)
	}
	return s
}

func TestQuietSlices(t *testing.T) {
	// Eight quarter-second slices of 100 ops each. Class 1 takes ten times as
	// long as class 0, which by itself makes no slice noisy; slices 2 and 5
	// are the only ones whose ops ran at their class's usual speed.
	var ops []op
	for sl := 0; sl < 8; sl++ {
		class, ms := sl%2, 1.0
		if class == 1 {
			ms = 10
		}
		if sl != 2 && sl != 5 {
			ms *= 1.5
		}
		for k := 0; k < 100; k++ {
			ops = append(ops, op{at: 0.25*float64(sl) + 0.0001*float64(k), ms: ms, class: class})
		}
	}
	lat, rate := window(2, 2, ops...).quiet()
	if len(lat) != 200 || lat[0] != 1 || lat[99] != 1 || lat[100] != 10 || lat[199] != 10 {
		t.Errorf("quiet kept %d ops from %v to %v, want the 200 of slices 2 and 5", len(lat), lat[0], lat[len(lat)-1])
	}
	if math.Abs(rate-400) > 1e-6 {
		t.Errorf("rate = %v, want 200 ops in half a second", rate)
	}

	// Fewer ops than minPooled: every slice is kept, and the rate is the window's.
	lat, rate = window(2, 2, ops[:30]...).quiet()
	if len(lat) != 30 || math.Abs(rate-15) > 1e-6 {
		t.Errorf("sparse window: %d ops at %v/s, want all 30 at 15/s", len(lat), rate)
	}

	// An op counts in each slice by the time it spent there, and what ran
	// past the window's end is not work done in it.
	s := window(0.5, 1, op{at: 0.2, ms: 100}, op{at: 0.45, ms: 100})
	if lat, rate = s.quiet(); len(lat) != 2 || math.Abs(rate-(0.5+0.5+0.5)/0.5) > 1e-6 {
		t.Errorf("straddling ops: %d ops at %v/s, want 2 at 3/s", len(lat), rate)
	}
}

// Python: statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q3 != 5.25 {
		t.Errorf("quartiles = %v, %v, want 1.75, 5.25", q1, q3)
	}
	if got := spread([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{name: "op_p50_ms", better: "lower", bound: 0.10}
	higher := metricDef{name: "ops_per_s", better: "higher", bound: 0.10}
	steady := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c} }
	for _, tc := range []struct {
		m    metricDef
		a, b []float64
		want string
	}{
		{lower, steady(10), steady(10.5), "same"},
		{lower, steady(10), steady(11.5), "worse"},
		{lower, steady(10), steady(8), "better"},
		{higher, steady(10), steady(8), "worse"},
		{higher, steady(10), steady(12), "better"},
		{lower, steady(10), []float64{8, 10, 12, 14, 16}, "unresolved"},
		{lower, []float64{10}, []float64{12}, "worse"},
	} {
		if got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", tc.m.name, tc.a, tc.b, got, tc.want)
		}
	}
	a := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	shift := func(d float64, except int) []float64 {
		b := make([]float64, len(a))
		for i := range a {
			b[i] = a[i] + d
			if i < except {
				b[i] = a[i] - d
			}
		}
		return b
	}
	for _, tc := range []struct {
		b    []float64
		want string
	}{
		{shift(-1, 0), "better"},  // wins 10 of 10, medians a full unit apart
		{shift(-1, 1), "better"},  // 9 of 10
		{shift(-1, 2), "same"},    // 8 of 10 is not nine tenths
		{shift(-0.05, 0), "same"}, // wins every pair, but by less than the parent's own spread
		{shift(1, 0), "worse"},
	} {
		if got := pairsVerdict(lower, a, tc.b); got != tc.want {
			t.Errorf("pairsVerdict(%v) = %s, want %s", tc.b, got, tc.want)
		}
	}
}

// BENCHMARK.json is the contract the driver reads; the program must report
// exactly what it lists.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program has %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if g := spec.EndToEnd[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better || g.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, g, m)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program has %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if g := spec.PerLayer[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, g, m)
		}
	}
}

// Every workload and its traced pass run end to end on shrunken instances,
// so the harness cannot rot: answers checked, every metric reported, span
// self times adding up to the traced ops' wall time.
func TestQuickEndToEnd(t *testing.T) {
	dir := t.TempDir()
	for _, def := range workloads {
		cfg := config{workload: def.name, seed: 7, seconds: 0.15, quick: true, scratch: filepath.Join(dir, "data")}
		res, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", def.name, res.Correct, res.Attempted, res.Failed)
		}
		for _, m := range endToEnd {
			if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit || !(v.Value > 0) {
				t.Errorf("%s: %s = %+v, want a positive value in %s", def.name, m.name, v, m.unit)
			}
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics reported, want %d", def.name, len(res.Metrics), len(endToEnd))
		}

		cfg.trace, cfg.traceOut = true, filepath.Join(dir, def.name+".json")
		res, err = run(cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", def.name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s traced: correct=%v failed=%d", def.name, res.Correct, res.Failed)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s traced: %d metrics reported, want %d", def.name, len(res.Metrics), len(perLayer))
		}
		for _, m := range perLayer {
			if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s traced: %s = %+v", def.name, m.name, v)
			}
		}
		data, err := os.ReadFile(cfg.traceOut)
		if err != nil {
			t.Fatal(err)
		}
		var file traceFile
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatal(err)
		}
		if file.TracedOps == 0 || len(file.Spans) == 0 {
			t.Fatalf("%s traced: empty trace", def.name)
		}
		if share := file.SelfSumNS / float64(file.TracedWallNS); share < 0.9 || share > 1.0001 {
			t.Errorf("%s traced: span self times sum to %.1f%% of the traced ops' wall time", def.name, 100*share)
		}
	}
}
