// Package parallel is the shared data-parallel runtime of the repository:
// a bounded worker pool sized from GOMAXPROCS, chunked index-range
// scheduling, panic propagation, and helpers for the deterministic ordered
// merge of per-chunk partial results.
//
// Every hot pass of the quantile engine — the Yannakakis counting and
// reduction passes (Section 2.4), join-group index construction, input
// deduplication, and the per-round trim constructions of Algorithm 1 — is a
// loop over tuples or join groups with no cross-iteration dependencies.
// This package runs those loops over contiguous index chunks on a fixed
// number of workers.
//
// # Determinism contract
//
// The engine guarantees byte-identical answers regardless of the worker
// count. The runtime's part of that contract is structural: chunks are
// contiguous, results are produced per chunk and merged in chunk order, and
// no output ever depends on goroutine scheduling or completion order.
// Callers uphold the other half by making their per-chunk computation a
// pure function of the chunk's index range and by writing merges that are
// invariant under the chunk decomposition (concatenation in chunk order,
// first-chunk-wins deduplication, associative folds). Under that discipline
// any chunking of [0,n) — including the single-chunk sequential one — yields
// the same output, so worker count can only change wall-clock time.
//
// # Sequential fallback
//
// Inputs shorter than SeqThreshold run inline on the calling goroutine, as
// does any call with workers <= 1: goroutine startup and merge overhead
// exceed the win on tiny inputs, and Parallelism 1 must follow the exact
// sequential code path.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// SeqThreshold is the element count below which chunked loops run inline on
// the calling goroutine regardless of the requested worker count.
const SeqThreshold = 512

// minChunk is the smallest chunk the splitter produces; fewer chunks than
// workers are used when n/workers would drop below it.
const minChunk = 256

// Workers resolves a Parallelism knob to a concrete worker count: values
// <= 0 select GOMAXPROCS, everything else is taken as-is.
func Workers(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// Range is a contiguous half-open index interval [Lo, Hi).
type Range struct{ Lo, Hi int }

// Len returns the number of indexes in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// overSplit is the chunks-per-worker factor of a parallel decomposition.
// Chunks are claimed dynamically (see Do), so a modest surplus lets workers
// that drew cheap chunks take over the remainder instead of idling behind a
// straggler — with exactly one chunk per worker, the slowest chunk alone
// sets the wall clock. Bounded by minChunk, so tiny inputs never shatter.
const overSplit = 2

// Ranges splits [0, n) into contiguous chunks of nearly equal size — up to
// overSplit per worker, so the claim loop can rebalance uneven chunk costs.
// It returns a single chunk when workers <= 1, when n is below SeqThreshold,
// or when more chunks would shrink them under minChunk.
func Ranges(workers, n int) []Range {
	if n <= 0 {
		return nil
	}
	chunks := workers
	if workers > 1 {
		chunks = workers * overSplit
	}
	if max := n / minChunk; chunks > max {
		chunks = max
	}
	if workers <= 1 || n < SeqThreshold || chunks <= 1 {
		return []Range{{0, n}}
	}
	out := make([]Range, chunks)
	lo := 0
	for c := 0; c < chunks; c++ {
		hi := lo + (n-lo)/(chunks-c)
		out[c] = Range{lo, hi}
		lo = hi
	}
	return out
}

// Do executes task(i) for every i in [0, tasks) on up to workers
// goroutines, one of which is the calling goroutine itself: a call with
// workers=w spawns w-1 goroutines and the caller works the claim loop
// instead of idling in a join. That halves the spawn cost of the smallest
// parallel calls — at workers=2, the dominant regime of the engine's many
// short per-iteration regions, each region starts one goroutine instead of
// two and the caller never parks. Tasks are claimed through an atomic
// counter, so long tasks do not serialize behind short ones. With
// workers <= 1 or a single task the tasks run inline. The first panic
// raised by any task is re-raised on the caller after all workers stop;
// remaining unclaimed tasks are abandoned.
//
// Unlike For/MapRanges, Do has no small-input fallback — a task is a unit
// of unknown size (one join group may hold most of the rows), so two tasks
// can already be worth two goroutines. Callers looping over many provably
// tiny tasks gate the worker count themselves (the trim constructions drop
// to workers=1 below SeqThreshold total tuples).
func Do(workers, tasks int, task func(i int)) {
	if tasks <= 0 {
		return
	}
	if workers > tasks {
		workers = tasks
	}
	if workers <= 1 {
		for i := 0; i < tasks; i++ {
			task(i)
		}
		return
	}
	var (
		next     atomic.Int64
		aborted  atomic.Bool
		panicked any
		once     sync.Once
		wg       sync.WaitGroup
	)
	run := func() {
		defer func() {
			if r := recover(); r != nil {
				once.Do(func() { panicked = r })
				aborted.Store(true)
			}
		}()
		for !aborted.Load() {
			i := int(next.Add(1)) - 1
			if i >= tasks {
				return
			}
			task(i)
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run() // the caller is worker 0
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// For runs body over disjoint contiguous chunks of [0, n) on up to workers
// goroutines. A sequential call (workers <= 1 or n < SeqThreshold) executes
// body(0, n) inline — the exact sequential code path. The body must only
// perform writes that are disjoint across chunks (e.g. out[i] for i in
// [lo, hi)); for merges of per-chunk values use MapRanges.
func For(workers, n int, body func(lo, hi int)) {
	rs := Ranges(workers, n)
	if len(rs) <= 1 {
		if n > 0 {
			body(0, n)
		}
		return
	}
	Do(workers, len(rs), func(c int) { body(rs[c].Lo, rs[c].Hi) })
}

// MapRanges runs fn over each chunk of [0, n) and returns the per-chunk
// results in chunk order, ready for a deterministic ordered merge. A
// sequential call returns a single element computed inline.
func MapRanges[T any](workers, n int, fn func(lo, hi int) T) []T {
	rs := Ranges(workers, n)
	if len(rs) == 0 {
		return nil
	}
	out := make([]T, len(rs))
	if len(rs) == 1 {
		out[0] = fn(0, n)
		return out
	}
	Do(workers, len(rs), func(c int) { out[c] = fn(rs[c].Lo, rs[c].Hi) })
	return out
}
