package core

import (
	"sync/atomic"

	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/trim"
)

// pivotTree is what the exact descents over one engine vector under one
// ranking have in common, remembered: Algorithm 1's pivot for a candidate band
// is a function of the instance, the ranking and the band — not of the rank
// asked for — and every band is one trim of the original instance, so the
// round a run executes on a band is the round every later run would execute
// there. A node is one such round; the tree holds no instance, no executable
// tree and no count array, a few hundred bytes a node. It lives in the first
// engine's trim.Cache (trim.Cache.Remembered) and is valid for exactly the
// engines it was built over (over). Lossy runs keep none: their partitions
// overlap and their ε depends on the depth.
//
// Nodes and sides are immutable once published and published by
// compare-and-swap: runs race to write the same value, the first wins, and no
// run waits for another.
type pivotTree struct {
	// over stamps the engine vector: the trim caches of the engines after the
	// first (the tree sits in the first's). A cache changes hands exactly when
	// its engine's set view does not change (engine.Update), which is when a
	// remembered round stays true.
	over []*trim.Cache
	root atomic.Pointer[pivotNode]
	// nodes left to allocate: one per 256 input tuples, at least 64 — under a
	// byte per tuple and ranking. Past it deeper rounds run unremembered.
	left atomic.Int64
}

// pivotNode is one remembered round: the pivot of its band.
type pivotNode struct {
	weight ranking.Weightv
	// answer is the pivot answer over the source variables: the equal
	// partition's only member when the class is a singleton.
	answer []relation.Value
	sides  [2]atomic.Pointer[pivotSide]
}

// pivotSide is one partition of a remembered round that some run has built.
type pivotSide struct {
	count counting.Count
	// size is the partition's instance size summed over the shards — what
	// RunStats.MaxInstanceTuples saw when it was built.
	size int
	// dead[i] says shard i has no candidate in the partition (nil: none is).
	dead []bool
	// below is the round on this partition.
	below atomic.Pointer[pivotNode]
}

// treeFor returns the pivot tree of the engine vector under f, an empty one
// when none is kept yet or the one kept was built over other engines.
func treeFor(engs []*engine.Engine, f *ranking.Func, dbSize int) *pivotTree {
	return engs[0].TrimCache().Remembered(f.Key(), func(old any) any {
		if t, ok := old.(*pivotTree); ok && t.builtOver(engs) {
			return t
		}
		t := &pivotTree{}
		for _, eng := range engs[1:] {
			t.over = append(t.over, eng.TrimCache())
		}
		t.left.Store(int64(max(dbSize/256, 64)))
		return t
	}).(*pivotTree)
}

func (t *pivotTree) builtOver(engs []*engine.Engine) bool {
	if len(t.over) != len(engs)-1 {
		return false
	}
	for i, c := range t.over {
		if engs[i+1].TrimCache() != c {
			return false
		}
	}
	return true
}

// remember publishes the round a run executed on the band slot stands for and
// returns the band's node — the run's own, or the one another run published
// first, which says the same — or nil when the tree is at its budget.
func (t *pivotTree) remember(slot *atomic.Pointer[pivotNode], weight ranking.Weightv, answer []relation.Value) *pivotNode {
	if t.left.Add(-1) < 0 {
		t.left.Add(1)
		return nil
	}
	nd := &pivotNode{weight: weight, answer: answer}
	if slot.CompareAndSwap(nil, nd) {
		return nd
	}
	t.left.Add(1)
	return slot.Load()
}
