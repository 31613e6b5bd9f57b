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
// tree and no count array, a few hundred bytes a node, and about 1 KB more for
// each of its two partitions that a tail has weighed as a leaf (splitters). It
// lives in the first engine's trim.Cache (trim.Cache.Remembered) and is valid
// for exactly the engines it was built over (over). Lossy runs keep none:
// their partitions overlap and their ε depends on the depth.
//
// Nodes, sides and splitters are immutable once published and published by
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
	// below is the round on this partition; leaf, the partition's rank
	// splitters, recorded by the first tail that weighs it whole as a leaf.
	// They are two slots, not one: on one plan a band can be a leaf at one
	// threshold and a round at another.
	below atomic.Pointer[pivotNode]
	leaf  atomic.Pointer[splitters]
}

// leafSplits is the number of slices a leaf's splitters cut it into. The slice
// a warm run cuts is what its seeded boxes reach and its tail weighs, so more
// splitters make everything after the cut cheaper, at 16 B or more kept per
// splitter and leaf. On the repository benchmark's dense plan (≈ 3.6 MB
// retained) the warm rotation leaves ≈ 45 KB more at 64 than at 16, and ≈ 95 KB
// more at 128, which reads faster still but leaves too little of the heap
// bound to the rest.
const leafSplits = 64

// splitters is the exact rank summary of a leaf band of n < 2³¹ candidates:
// for j = 1 … leafSplits−1, the weight at sorted position j·n/leafSplits (in
// w, in the flat layout of the tail, stride positions each) and the numbers of
// the band's candidates that weigh less than it (lt) and at most it (le).
// Index j−1 holds splitter j. A leaf is 8 B a splitter for the counts and 8 B
// a splitter and ranked position for the weights: 1 KB for one of MIN or MAX,
// 1.5 KB for a LEX of two variables.
type splitters struct {
	w      []int64
	lt, le [leafSplits - 1]int32
}

// among returns ranks — ascending — merged with the splitter positions of a
// band of n candidates, which carry at = −j for splitter j.
func (sp *splitters) among(ranks []rank, n int) []rank {
	all := make([]rank, 0, len(ranks)+leafSplits-1)
	i := 0
	for j := 1; j < leafSplits; j++ {
		k := counting.FromInt(j * n / leafSplits)
		for ; i < len(ranks) && ranks[i].k.Cmp(k) < 0; i++ {
			all = append(all, ranks[i])
		}
		all = append(all, rank{k: k, at: -j})
	}
	return append(all, ranks[i:]...)
}

// take records the splitters among ranks, which fell in the weight class of
// weight with size members and off candidates below it, and returns the
// others, in place.
func (sp *splitters) take(size int, off uint64, weight []int64, ranks []rank) []rank {
	keep := ranks[:0]
	for _, r := range ranks {
		if r.at >= 0 {
			keep = append(keep, r)
			continue
		}
		j := -r.at - 1
		if sp.w == nil {
			sp.w = make([]int64, (leafSplits-1)*len(weight))
		}
		copy(sp.w[j*len(weight):], weight)
		sp.lt[j], sp.le[j] = int32(off), int32(int(off)+size)
	}
	return keep
}

// slice returns the narrowest band between two splitters that holds every rank
// of ranks — ascending, relative to the leaf low ≺ w ≺ high of n candidates,
// whose own bounds stand for splitters 0 and leafSplits — with the number of
// candidates below it and its count. Its bounds are strict and splitters weigh
// whole classes, so it is a union of complete weight classes. r is the
// ranking's VecLen.
func (sp *splitters) slice(low, high ranking.Bound, n int, ranks []rank, r int) (ranking.Bound, ranking.Bound, int, int) {
	first, _ := ranks[0].k.Uint64()
	last, _ := ranks[len(ranks)-1].k.Uint64()
	off, end := 0, n
	for j := range sp.le {
		if uint64(sp.le[j]) <= first {
			off, low = int(sp.le[j]), ranking.Finite(sp.weight(j, r))
		}
	}
	for j := len(sp.lt) - 1; j >= 0; j-- {
		if uint64(sp.lt[j]) > last {
			end, high = int(sp.lt[j]), ranking.Finite(sp.weight(j, r))
		}
	}
	return low, high, off, end - off
}

// weight is the weight of the splitter at index j, a view of w.
func (sp *splitters) weight(j, r int) ranking.Weightv {
	if r == 0 {
		return ranking.Weightv{K: sp.w[j]}
	}
	return ranking.Weightv{Vec: sp.w[j*r : (j+1)*r]}
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
