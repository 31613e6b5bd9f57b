package parallel

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func TestRangesCoverExactly(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 4, 7, 8, 64} {
		for _, n := range []int{0, 1, 5, minChunk - 1, minChunk, SeqThreshold - 1, SeqThreshold, 1000, 4096, 100003} {
			rs := Ranges(workers, n)
			if n == 0 {
				if rs != nil {
					t.Fatalf("Ranges(%d, 0) = %v, want nil", workers, rs)
				}
				continue
			}
			lo := 0
			for _, r := range rs {
				if r.Lo != lo {
					t.Fatalf("Ranges(%d, %d): gap or overlap at %v", workers, n, rs)
				}
				if r.Len() <= 0 {
					t.Fatalf("Ranges(%d, %d): empty chunk in %v", workers, n, rs)
				}
				lo = r.Hi
			}
			if lo != n {
				t.Fatalf("Ranges(%d, %d) covers [0, %d), want [0, %d)", workers, n, lo, n)
			}
			if len(rs) > workers*2 && workers >= 1 {
				t.Fatalf("Ranges(%d, %d): %d chunks exceed the oversplit bound %d", workers, n, len(rs), workers*2)
			}
			if (workers <= 1 || n < SeqThreshold) && len(rs) != 1 {
				t.Fatalf("Ranges(%d, %d): want sequential single chunk, got %d", workers, n, len(rs))
			}
		}
	}
}

func TestForDisjointWrites(t *testing.T) {
	const n = 10000
	for _, workers := range []int{1, 2, 4, 8} {
		out := make([]int, n)
		For(workers, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = i * i
			}
		})
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapRangesOrderedMerge(t *testing.T) {
	const n = 50000
	want := n * (n - 1) / 2
	for _, workers := range []int{1, 2, 3, 8} {
		parts := MapRanges(workers, n, func(lo, hi int) int {
			s := 0
			for i := lo; i < hi; i++ {
				s += i
			}
			return s
		})
		got := 0
		for _, p := range parts {
			got += p
		}
		if got != want {
			t.Fatalf("workers=%d: sum = %d, want %d", workers, got, want)
		}
	}
}

// The per-chunk results of MapRanges must arrive in chunk order, not
// completion order, so ordered merges reproduce the sequential output.
func TestMapRangesChunkOrder(t *testing.T) {
	const n = 8192
	parts := MapRanges(8, n, func(lo, hi int) Range { return Range{lo, hi} })
	lo := 0
	for _, p := range parts {
		if p.Lo != lo {
			t.Fatalf("chunk results out of order: %v", parts)
		}
		lo = p.Hi
	}
	if lo != n {
		t.Fatalf("chunks cover [0, %d), want [0, %d)", lo, n)
	}
}

func TestDoRunsEveryTask(t *testing.T) {
	const tasks = 1000
	var hits [tasks]atomic.Int32
	Do(8, tasks, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("task %d ran %d times", i, got)
		}
	}
}

func TestDoPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("panic did not propagate")
				}
				if s, ok := r.(string); !ok || s != "boom" {
					t.Fatalf("unexpected panic value %v", r)
				}
			}()
			Do(workers, 100, func(i int) {
				if i == 37 {
					panic("boom")
				}
			})
		})
	}
}

func TestForPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("panic did not propagate through For")
		}
	}()
	For(4, 100000, func(lo, hi int) { panic("chunk failure") })
}

// Tiny inputs must take the exact sequential code path — a single chunk
// executed inline on the calling goroutine — regardless of the requested
// worker count.
func TestSequentialPath(t *testing.T) {
	n := SeqThreshold - 1
	calls := 0
	For(8, n, func(lo, hi int) {
		calls++
		if lo != 0 || hi != n {
			t.Fatalf("sequential path called with (%d, %d), want (0, %d)", lo, hi, n)
		}
	})
	if calls != 1 {
		t.Fatalf("tiny input ran %d chunks, want 1 inline call", calls)
	}
	if parts := MapRanges(8, n, func(lo, hi int) int { return hi - lo }); len(parts) != 1 || parts[0] != n {
		t.Fatalf("MapRanges on tiny input = %v, want single full-range part", parts)
	}
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("explicit worker count not honored")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Fatal("defaulted worker count must be >= 1")
	}
}
