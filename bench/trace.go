package main

import (
	"encoding/json"
	"os"
	"time"

	"github.com/quantilejoins/qjoin"
)

// span is one timed call into a layer, recorded by the benchmark around its
// own call (spans inside the program are a later change). Start and End are
// nanoseconds since the tracer was created; Parent indexes the enclosing
// span (-1 for the root of an op) and spans of one op share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op_id"`
}

// tracer keeps spans in memory; the traced pass has one caller, so the open
// spans form a stack. Counts recorded at the same boundaries (iterations,
// rows, bytes) are kept beside them.
type tracer struct {
	t0     time.Time
	spans  []span
	cur    int // innermost open span, -1 at top level
	op     int
	counts map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), cur: -1, counts: make(map[string][]float64)}
}

// startOp opens the root span of a new op (or of one layer probe).
func (t *tracer) startOp(name string) int {
	t.op++
	return t.begin(name)
}

func (t *tracer) begin(name string) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: t.cur, Op: t.op, Start: int64(time.Since(t.t0))})
	t.cur = id
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].End = int64(time.Since(t.t0))
	t.cur = t.spans[id].Parent
}

// in runs fn inside a span.
func (t *tracer) in(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// probe times one direct call into a layer as an op of its own.
func (t *tracer) probe(name string, fn func()) {
	id := t.startOp(name)
	fn()
	t.end(id)
}

func (t *tracer) count(name string, v float64) {
	t.counts[name] = append(t.counts[name], v)
}

// phases attaches the pivot-loop phase times of one exact answer, which the
// engine reports as durations (Options.CollectPhases), as children of the
// span that covered the AnswerStats call. They are laid end to end from the
// parent's start: their positions are synthetic, their lengths — and with
// them the parent's self time, the loop's tail — are as measured.
func (t *tracer) phases(parent int, st *qjoin.RunStats) {
	if st == nil {
		return
	}
	t.count("core.iterations", float64(st.Iterations))
	t.count("core.materialized", float64(st.Materialized))
	t.count("core.max_instance_tuples", float64(st.MaxInstanceTuples))
	if st.Phases == nil {
		return
	}
	var pivot, trim, derive, count time.Duration
	for _, it := range st.Phases.Iterations {
		pivot += it.Pivot
		trim += it.Trim
		derive += it.Derive
		count += it.Count
	}
	at := t.spans[parent].Start
	for _, c := range []struct {
		name string
		d    time.Duration
	}{{"core.pivot", pivot}, {"core.trim", trim}, {"core.derive", derive}, {"core.count", count}} {
		t.spans = append(t.spans, span{Name: c.name, Parent: parent, Op: t.spans[parent].Op, Start: at, End: at + int64(c.d)})
		at += int64(c.d)
	}
}

// layerTime is what the traced pass knows about one span name.
type layerTime struct {
	selfNS float64 // total self time: duration minus the children's
	ops    int     // ops that contain at least one such span
}

// perOp is the mean self time per op containing the span, in nanoseconds.
func (l layerTime) perOp() float64 {
	if l.ops == 0 {
		return 0
	}
	return l.selfNS / float64(l.ops)
}

// selfTimes folds the spans into per-name self times. Ops are recorded one
// after another, so "a new op containing this name" is a change of op id.
func (t *tracer) selfTimes() map[string]layerTime {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := make(map[string]layerTime)
	lastOp := make(map[string]int)
	for i, s := range t.spans {
		l := out[s.Name]
		l.selfNS += float64(self[i])
		if lastOp[s.Name] != s.Op {
			lastOp[s.Name] = s.Op
			l.ops++
		}
		out[s.Name] = l
	}
	return out
}

// traceFile is what -trace 1 writes out when the run ends.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// TracedOps is the number of ops replayed decomposed, TracedWallNS the
	// wall time of that replay and SelfSumNS the sum of their spans' self
	// times; the two differ by what the tracer itself costs between ops.
	TracedOps    int     `json:"traced_ops"`
	TracedWallNS int64   `json:"traced_wall_ns"`
	SelfSumNS    float64 `json:"self_sum_ns"`
	// UntracedOpNS is the mean client-observed latency of the untraced
	// window and DecomposedOpNS the mean decomposed op: what the decomposed
	// replay does not cover (HTTP, admission, scheduling) is their gap.
	UntracedOpNS   float64 `json:"untraced_op_ns"`
	DecomposedOpNS float64 `json:"decomposed_op_ns"`
	Spans          []span  `json:"spans"`
}

func (f *traceFile) write(path string) error {
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
