package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/quantilejoins/qjoin/internal/server"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool   // shrink every instance (tests); numbers mean nothing
	traceOut string // where -trace 1 writes its spans
	scratch  string // directory for the durable workload's data
}

// world is one workload set up and ready to take ops: datasets loaded, plans
// and sketches warm, warm-up ops replayed. The op sequence of a client is a
// pure function of the seed, so a run replays the same ops on both sides of
// any later comparison.
type world interface {
	// do performs op i of a client (a closed loop: the caller waits for the
	// reply) and checks the reply against the oracle. It returns the op's
	// class, an index into the workload's classes.
	do(client, i int) (int, error)
	// traced performs op i of the traced pass's own caller, decomposed into
	// one span per layer.
	traced(tr *tracer, i int) error
	// probes times direct calls into single layers on the workload's
	// instance and fills in the layer metrics that are not span times; s is
	// what the untraced window observed, per class.
	probes(tr *tracer, s *sample, named map[string]float64) error
	// finish runs the checks that need the whole run (serve_writes compares
	// the server's final state with a fresh Prepare) and reports how many
	// it attempted and how many failed.
	finish() (attempted, failed int)
	close()
}

// serverStats returns the counters of the server behind a world, or nil for
// a workload of library calls.
func serverStats(w world) *server.StatsResponse {
	s, ok := w.(interface{ stats() server.StatsResponse })
	if !ok {
		return nil
	}
	st := s.stats()
	return &st
}

// workloadDef is one named workload. Names are normative: later issues cite
// them.
type workloadDef struct {
	name    string
	why     string
	clients int // closed-loop callers, one connection and one processor each; never more than nproc
	warmup  int // ops replayed before the timed window, per client; part of setup_s
	classes []string
	// oracle computes the expected answers from the generated inputs. It is
	// not timed: setup_s and the measured window exclude it.
	oracle func(cfg config) (any, error)
	// setup generates the inputs from the seed, loads them and warms the
	// plans and sketches; the harness then replays the warm-up ops.
	setup func(cfg config, oracle any) (world, error)
}

var workloads = []workloadDef{exactDense, exactSharded, coldCompile, serveLight, serveWrites}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// A run sets the workload up at least minSetups times, and goes on while the
// set-ups so far took less than setupBudget together, up to maxSetups;
// setup_s is the median, which drops the first set-up's cold-process cost.
// Cheap set-ups are the noisy ones, so they are the ones repeated more.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 5 * time.Second
)

// op is one successful op of the timed window.
type op struct {
	at    float64 // start, seconds into the window
	ms    float64 // client-observed latency
	class int
}

// sample is what one timed window observed.
type sample struct {
	ops     []op
	lat     [][]float64   // per class, milliseconds, one per successful op
	window  time.Duration // the window asked for: no op starts after it
	wall    time.Duration // until the last op ended
	failed  int
	firstEr error
}

// all returns every latency, ascending.
func (s *sample) all() []float64 {
	out := make([]float64, 0, len(s.ops))
	for _, o := range s.ops {
		out = append(out, o.ms)
	}
	sort.Float64s(out)
	return out
}

// measure runs the closed loop for d: each client performs its ops from
// index start on, one at a time, until the deadline passes. A failed op
// contributes no latency sample.
func measure(w world, def workloadDef, start int, d time.Duration) *sample {
	recs := make([][]op, def.clients)
	fails := make([]int, def.clients)
	errs := make([]error, def.clients)
	var wg sync.WaitGroup
	begin := time.Now()
	deadline := begin.Add(d)
	for c := 0; c < def.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := start; ; i++ {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				class, err := w.do(c, i)
				if err != nil {
					fails[c]++
					if errs[c] == nil {
						errs[c] = fmt.Errorf("client %d op %d: %w", c, i, err)
					}
					continue
				}
				recs[c] = append(recs[c], op{t0.Sub(begin).Seconds(), float64(time.Since(t0)) / 1e6, class})
			}
		}(c)
	}
	wg.Wait()
	s := &sample{window: d, wall: time.Since(begin), lat: make([][]float64, len(def.classes))}
	for c := range recs {
		s.ops = append(s.ops, recs[c]...)
		for _, o := range recs[c] {
			s.lat[o.class] = append(s.lat[o.class], o.ms)
		}
		s.failed += fails[c]
		if s.firstEr == nil {
			s.firstEr = errs[c]
		}
	}
	return s
}

// The machine the benchmark runs on is shared: for seconds at a time other
// tenants slow memory-bound code by a third, and nothing in a run can tell
// that from a slower program. So the end-to-end latencies and the rate are
// taken over the quiet part of the window, not all of it. The window is cut
// into slices of sliceSeconds; a slice is as noisy as its ops were slow for
// their class (latency over the class's median across the window, averaged),
// which does not depend on which classes a slice happened to hold; the
// quietest quietShare of the slices are kept, and more of them until they
// hold minPooled ops. A slice is several garbage collections long on every
// workload, so what is kept pays the program's own costs in full.
const (
	sliceSeconds = 0.25
	quietShare   = 0.25
	minPooled    = 50
)

// quiet returns the latencies of the ops that started in the window's
// quietest slices, ascending, and the rate of work in those slices: an op
// that ran across a slice boundary counts in each slice by the share of its
// time spent there.
func (s *sample) quiet() (lat []float64, opsPerS float64) {
	n := max(1, int(s.window.Seconds()/sliceSeconds))
	width := s.window.Seconds() / float64(n)
	classMedian := make([]float64, len(s.lat))
	for c, l := range s.lat {
		classMedian[c] = median(l)
	}
	type slice struct {
		ops  []float64 // latencies of the ops that started in it
		slow float64   // sum over those ops of latency / class median
		work float64   // ops done in it, counting an op by its time spent here
	}
	slices := make([]slice, n)
	for _, o := range s.ops {
		first := min(int(o.at/width), n-1)
		sl := &slices[first]
		sl.ops = append(sl.ops, o.ms)
		if m := classMedian[o.class]; m > 0 {
			sl.slow += o.ms / m
		}
		end := o.at + o.ms/1e3
		if end <= o.at {
			sl.work++
			continue
		}
		for i := first; i < n && float64(i)*width < end; i++ {
			lo, hi := max(o.at, float64(i)*width), min(end, float64(i+1)*width)
			slices[i].work += (hi - lo) / (end - o.at)
		}
	}
	noise := func(sl *slice) float64 {
		if len(sl.ops) == 0 {
			return math.Inf(1) // all of it went into an op that started earlier
		}
		return sl.slow / float64(len(sl.ops))
	}
	sort.SliceStable(slices, func(i, j int) bool { return noise(&slices[i]) < noise(&slices[j]) })
	keep := int(math.Ceil(quietShare * float64(n)))
	work := 0.0
	for i := range slices {
		if i >= keep && len(lat) >= minPooled {
			break
		}
		keep = max(keep, i+1)
		lat = append(lat, slices[i].ops...)
		work += slices[i].work
	}
	sort.Float64s(lat)
	return lat, work / (float64(keep) * width)
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// setUp builds the world and replays the warm-up ops, every client at once
// as in the timed window. All of it counts as set-up time.
func setUp(cfg config, def workloadDef, oracle any) (world, error) {
	w, err := def.setup(cfg, oracle)
	if err != nil {
		return nil, err
	}
	errs := make([]error, def.clients)
	var wg sync.WaitGroup
	for c := 0; c < def.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < def.warmup && errs[c] == nil; i++ {
				if _, err := w.do(c, i); err != nil {
					errs[c] = fmt.Errorf("warm-up: client %d op %d: %w", c, i, err)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

// confine gives the process one processor per closed-loop client, and binds
// a process of one processor to one CPU, the last one: interrupts land on
// the first. The machine the benchmark runs on is a few virtual CPUs of a
// shared host. A processor that carries no client runs the collector's and
// the engine's second worker on a CPU the host may have given to someone
// else, and the first one waits for it; requests pay for wake-ups that cross
// CPUs; and where the kernel places the threads decides which of two speeds
// a run sees. On the reference box that made runs up to half as slow again
// one time in five, and no faster the other four (README.md).
func confine(clients int) {
	runtime.GOMAXPROCS(clients)
	if clients == 1 {
		pin(runtime.NumCPU() - 1)
	}
}

// run performs one run of one workload: the end-to-end metrics with tracing
// off, or (cfg.trace) the per-layer metrics from the traced pass.
func run(cfg config) (*result, error) {
	def, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	def.clients = min(def.clients, runtime.NumCPU())
	confine(def.clients)
	if cfg.quick {
		def.warmup = max(def.warmup/50, 10)
	}
	oracle, err := def.oracle(cfg)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	runtime.GC()
	if cfg.trace {
		return runTraced(cfg, def, oracle)
	}

	var w world
	var setups []float64
	var total time.Duration
	for len(setups) < minSetups || (len(setups) < maxSetups && total < setupBudget) {
		if w != nil {
			w.close()
			w = nil
			runtime.GC()
		}
		t0 := time.Now()
		if w, err = setUp(cfg, def, oracle); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(t0)
		setups = append(setups, took.Seconds())
		total += took
	}
	defer w.close()

	s := measure(w, def, def.warmup, time.Duration(cfg.seconds*float64(time.Second)))
	if len(s.ops) == 0 {
		return nil, fmt.Errorf("no op succeeded: %v", s.firstEr)
	}
	lat, rate := s.quiet()
	p50, supported := percentile(lat, 50)
	if !supported {
		fmt.Fprintf(os.Stderr, "bench: %d samples leave fewer than %d beyond the median\n", len(lat), minBeyond)
	}
	res := s.result(w)
	res.Metrics = map[string]value{
		"setup_s":   {median(setups), "s"},
		"op_p50_ms": {p50, "ms"},
		"ops_per_s": {rate, "1/s"},
	}
	// The samples are the benchmark's, not the system's: drop them before
	// asking what the run retained.
	s, lat = nil, nil
	res.Metrics["heap_retained_mb"] = value{retainedHeapMB(), "MB"}
	runtime.KeepAlive(w)
	return res, nil
}

// result runs the world's final checks and counts the run's ops: a failed
// op or check makes the run incorrect.
func (s *sample) result(w world) *result {
	if s.firstEr != nil {
		fmt.Fprintln(os.Stderr, "bench: first failed op:", s.firstEr)
	}
	checks, checkFails := w.finish()
	failed := s.failed + checkFails
	return &result{Correct: failed == 0, Attempted: len(s.ops) + s.failed + checks, Failed: failed}
}

// retainedHeapMB is the live heap after two forced collections (the second
// frees what finalizers released in the first).
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
