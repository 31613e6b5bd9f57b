// Package pivot implements Algorithm 2 of the paper: linear-time selection of
// a c-pivot among the answers of an acyclic join query under any
// subset-monotone ranking function (Lemma 4.1).
//
// The algorithm runs message passing bottom-up over the join tree. Every
// tuple t computes pivot(t) — a partial query answer for its subtree that is
// a c'-pivot of those partial answers — represented here by just its weight
// and subtree count; the full variable assignment is reconstructed top-down
// at the end. Join groups aggregate tuple pivots with the weighted median
// (⊕, Lemma 4.5); a tuple aggregates its children's group pivots by union
// (⊗, Lemma 4.6). Each weighted-median halves the accuracy parameter c and
// each union multiplies the children's parameters, exactly as Algorithm 2
// tracks: c(leaf) = 1, c(node) = Π_i c(child_i)/2, with one final halving for
// the artificial root that gathers all root tuples.
package pivot

import (
	"errors"

	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/parallel"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/selection"
	"github.com/quantilejoins/qjoin/internal/yannakakis"
)

// ErrNoAnswers is returned when the query has no answers to pivot on.
var ErrNoAnswers = errors.New("pivot: query has no answers")

// Result is a selected pivot answer.
type Result struct {
	// Assignment is the pivot answer, laid out per Q.Vars().
	Assignment []relation.Value
	// Weight is the pivot's weight under the ranking function.
	Weight ranking.Weightv
	// C is the guaranteed pivot accuracy: at least C·|Q(D)| answers are ⪯
	// the pivot and at least C·|Q(D)| are ⪰ it.
	C float64
	// Count is |Q(D)|, a free by-product of the pass.
	Count counting.Count
}

// Scratch holds the reusable per-node buffers of a pivot-selection pass —
// weight arrays and per-group selections that the driver would otherwise
// reallocate every iteration. Reuse after the pass returns; not safe for
// concurrent passes.
type Scratch struct {
	weights  [][]ranking.Weightv
	lexVecs  [][]int64 // per node: the backing of its LEX weight vectors
	selTuple [][]int
	cParam   []float64
	live     []int
}

func (s *Scratch) nodes(n int) (weights [][]ranking.Weightv, lexVecs [][]int64, selTuple [][]int, cParam []float64) {
	if s == nil {
		return make([][]ranking.Weightv, n), make([][]int64, n), make([][]int, n), make([]float64, n)
	}
	if cap(s.weights) < n {
		s.weights = make([][]ranking.Weightv, n)
		s.lexVecs = make([][]int64, n)
		s.selTuple = make([][]int, n)
		s.cParam = make([]float64, n)
	}
	s.weights, s.lexVecs, s.selTuple, s.cParam = s.weights[:n], s.lexVecs[:n], s.selTuple[:n], s.cParam[:n]
	return s.weights, s.lexVecs, s.selTuple, s.cParam
}

// grow returns buf resized to n elements, reallocating only when it is too
// small; the contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// SelectWorkers runs Algorithm 2 over an executable join tree; mu is the μ
// attribute-to-atom assignment of the ranking's variables (Section 2.2). The
// counting pass, the per-tuple pivot-weight loops (chunked over rows) and the
// per-group weighted medians (chunked over groups) all run data-parallel.
// Weighted medians are deterministic (introselect over position-based pivots,
// no randomization) and every write is disjoint by tuple or group index, so
// the selected pivot is identical for every worker count.
func SelectWorkers(e *jointree.Exec, f *ranking.Func, mu map[query.Var]int, workers int) (*Result, error) {
	return SelectPrepared(e, yannakakis.CountWorkers(e, workers), f, mu, workers, nil)
}

// SelectPrepared is SelectWorkers against an already-computed counting state
// (the driver counts every candidate instance anyway; the engine caches the
// original's), drawing its per-node buffers from the given scratch (nil
// allocates fresh). counts must be the counting state of e.
func SelectPrepared(e *jointree.Exec, counts *yannakakis.Counts, f *ranking.Func, mu map[query.Var]int, workers int, s *Scratch) (*Result, error) {
	if counts.Total.IsZero() {
		return nil, ErrNoAnswers
	}

	nNodes := len(e.T.Nodes)
	// weights: pivot weight per tuple; selTuple: wmed-selected tuple per group.
	// A LEX weight is a vector: each node's are views of one flat array, r
	// positions per tuple, so the pass allocates per node and not per tuple.
	weights, lexVecs, selTuple, cParam := s.nodes(nNodes)
	r := f.VecLen()

	for _, id := range e.T.BottomUp {
		n := e.T.Nodes[id]
		rel := e.Rels[id]
		tw := ranking.NewTupleWeigher(f, mu, n.Atom, n.Vars)
		ws := grow(weights[id], rel.Len())
		vecs := grow(lexVecs[id], rel.Len()*r)

		c := 1.0
		for _, ch := range n.Children {
			c *= cParam[ch] / 2
		}
		cParam[id] = c

		children := n.Children
		gids := make([][]int32, len(children))
		for k, ch := range children {
			gids[k] = e.ParentGids(ch)
		}
		relCols := rel.Cols()
		parallel.For(workers, rel.Len(), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if counts.Tuple[id][i].IsZero() {
					continue // dangling tuple; never selected
				}
				w := tw.WeightAtInto(vecs[i*r:(i+1)*r:(i+1)*r], relCols, i)
				for k, ch := range children {
					var gid int
					if pg := gids[k]; pg != nil {
						gid = int(pg[i])
					} else {
						gid, _ = e.ParentGroup(ch, i)
					}
					st := selTuple[ch][gid]
					w = f.CombineInto(w, weights[ch][st])
				}
				ws[i] = w
			}
		})
		weights[id], lexVecs[id] = ws, vecs

		// Close out this node's groups for the parent: weighted median of
		// the group's live tuple pivots, multiplicities = subtree counts.
		if n.Parent >= 0 {
			groups := e.Groups[id]
			sel := grow(selTuple[id], groups.NumGroups())
			parallel.For(workers, groups.NumGroups(), func(lo, hi int) {
				var live []int // reused across the chunk's groups
				for g := lo; g < hi; g++ {
					tuples := groups.Tuples[g]
					if cap(live) < len(tuples) {
						live = make([]int, 0, len(tuples))
					}
					live = live[:0]
					for _, ti := range tuples {
						if !counts.Tuple[id][ti].IsZero() {
							live = append(live, ti)
						}
					}
					if len(live) == 0 {
						sel[g] = -1
						continue
					}
					sel[g] = selection.WeightedMedian(live,
						func(a, b int) bool { return f.Compare(ws[a], ws[b]) < 0 },
						func(i int) counting.Count { return counts.Tuple[id][i] })
				}
			})
			selTuple[id] = sel
		}
	}

	// Artificial root: weighted median over the live root tuples.
	root := e.T.Root
	var live []int
	if s != nil {
		live = s.live[:0]
	}
	if cap(live) < e.Rels[root].Len() {
		live = make([]int, 0, e.Rels[root].Len())
	}
	for i := range counts.Tuple[root] {
		if !counts.Tuple[root][i].IsZero() {
			live = append(live, i)
		}
	}
	if s != nil {
		s.live = live
	}
	rootSel := selection.WeightedMedian(live,
		func(a, b int) bool { return f.Compare(weights[root][a], weights[root][b]) < 0 },
		func(i int) counting.Count { return counts.Tuple[root][i] })

	// Reconstruct the pivot assignment top-down along the selected tuples.
	varIdx := e.Q.VarIndex()
	asn := make([]relation.Value, len(varIdx))
	var fill func(id, ti int)
	fill = func(id, ti int) {
		n := e.T.Nodes[id]
		cols := e.Rels[id].Cols()
		for j, v := range n.Vars {
			asn[varIdx[v]] = cols[j][ti]
		}
		for _, ch := range n.Children {
			gid, _ := e.ParentGroup(ch, ti)
			fill(ch, selTuple[ch][gid])
		}
	}
	fill(root, rootSel)

	// The weight outlives the pass (it becomes a search bound of the loop);
	// its vector must not stay a view of the scratch.
	return &Result{
		Assignment: asn,
		Weight:     weights[root][rootSel].Clone(),
		C:          cParam[root] / 2,
		Count:      counts.Total,
	}, nil
}

// MergeShards merges per-shard pivot results into one global pivot for the
// sharded driver. cands is indexed by shard; nil entries mark shards with no
// candidates left. The winner is the weighted median of the shard pivots
// with the shard answer counts as multiplicities — the same ⊕ aggregation
// Algorithm 2 applies to join groups (Lemma 4.5), lifted one level up to
// shards: every candidate j is a C_j-pivot of its own shard, so at least
// Σ_{w_j ⪯ λ} C_j·N_j ≥ (min_j C_j)·N/2 global answers are ⪯ the median λ
// (and symmetrically ⪰), making λ a (min C_j)/2-pivot of the union. The
// merged Count is the global candidate count (shard answer sets are
// disjoint, so counts add).
//
// A single live candidate passes through unchanged — no halving — which
// makes the one-shard global loop bit-for-bit the unsharded algorithm.
//
// The second return value is the winning shard's index: the merged
// Assignment is laid out per that shard's current query, which the caller
// needs for projection. (-1 when every entry is nil.)
func MergeShards(cands []*Result, f *ranking.Func) (*Result, int) {
	live := make([]int, 0, len(cands))
	for i, c := range cands {
		if c != nil {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return nil, -1
	}
	if len(live) == 1 {
		return cands[live[0]], live[0]
	}
	idx := selection.WeightedMedian(live,
		func(a, b int) bool { return f.Compare(cands[a].Weight, cands[b].Weight) < 0 },
		func(i int) counting.Count { return cands[i].Count })
	minC := 1.0
	total := counting.Zero
	for _, i := range live {
		if cands[i].C < minC {
			minC = cands[i].C
		}
		total = total.Add(cands[i].Count)
	}
	win := cands[idx]
	return &Result{
		Assignment: win.Assignment,
		Weight:     win.Weight,
		C:          minC / 2,
		Count:      total,
	}, idx
}
