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
//
// Weights live in one flat []int64 per node and a group's weighted median runs
// on (weight, count, tuple) entries (selection.MedianItem); the pass calls no
// function per tuple or per comparison, a custom ranking Weight aside.
package pivot

import (
	"errors"
	"slices"

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

// Scratch holds the reusable buffers of a pivot-selection pass — per-node
// weight arrays and group selections, and the entry buffers of the weighted
// medians — that the driver would otherwise reallocate every iteration. Reuse
// after the pass returns; not safe for concurrent passes.
type Scratch struct {
	weights  [][]int64
	selTuple [][]int
	cParam   []float64
	entries  [][]selection.Entry // one buffer per concurrent chunk of groups
}

func (s *Scratch) nodes(n int) (weights [][]int64, selTuple [][]int, cParam []float64) {
	if s == nil {
		return make([][]int64, n), make([][]int, n), make([]float64, n)
	}
	if cap(s.weights) < n {
		s.weights = make([][]int64, n)
		s.selTuple = make([][]int, n)
		s.cParam = make([]float64, n)
	}
	s.weights, s.selTuple, s.cParam = s.weights[:n], s.selTuple[:n], s.cParam[:n]
	return s.weights, s.selTuple, s.cParam
}

// entryBufs returns n entry buffers, to be stored back after use.
func (s *Scratch) entryBufs(n int) [][]selection.Entry {
	if s == nil {
		return make([][]selection.Entry, n)
	}
	for len(s.entries) < n {
		s.entries = append(s.entries, nil)
	}
	return s.entries[:n]
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

// ownCol is a μ-assigned ranked variable of a node: its column of the node
// relation and, for LEX, its significance position.
type ownCol struct {
	v    query.Var
	vals []relation.Value
	pos  int
}

// ownCols appends to own the ranked variables μ assigns to node n, in column
// order.
func ownCols(own []ownCol, n *jointree.Node, rel *relation.Relation, f *ranking.Func, mu map[query.Var]int) []ownCol {
	for col, v := range n.Vars {
		if a, ok := mu[v]; ok && a == n.Atom {
			own = append(own, ownCol{v: v, vals: rel.Col(col), pos: slices.Index(f.Vars, v)})
		}
	}
	return own
}

// childEdge is what a tuple's pivot weight reads of one child: the group each
// parent row joins, the tuple each group selected, and the child's weights.
type childEdge struct {
	gids []int32
	sel  []int
	ws   []int64
}

// combine is the scalar aggregate of two weights.
func combine(agg ranking.Agg, a, b int64) int64 {
	switch agg {
	case ranking.Min:
		return min(a, b)
	case ranking.Max:
		return max(a, b)
	}
	return a + b
}

// SelectPrepared is SelectWorkers against an already-computed counting state
// (the driver counts every candidate instance anyway; the engine caches the
// original's), drawing its buffers from the given scratch (nil allocates
// fresh). counts must be the counting state of e.
//
// A node's pivot weights are one flat []int64 — a number per tuple for SUM,
// MIN and MAX, the r positions of its vector for LEX — and a join group's
// weighted median runs on (weight, count, tuple) entries filled from its live
// tuples, so no pass calls back per tuple or per comparison.
func SelectPrepared(e *jointree.Exec, counts *yannakakis.Counts, f *ranking.Func, mu map[query.Var]int, workers int, s *Scratch) (*Result, error) {
	if counts.Total.IsZero() {
		return nil, ErrNoAnswers
	}

	nNodes := len(e.T.Nodes)
	// weights: pivot weight per tuple; selTuple: wmed-selected tuple per group.
	weights, selTuple, cParam := s.nodes(nNodes)
	agg, custom := f.Agg, f.Weight != nil
	r := f.VecLen()
	stride := max(r, 1)
	identity := f.Identity().K

	for _, id := range e.T.BottomUp {
		n := e.T.Nodes[id]
		rel := e.Rels[id]
		live := counts.Tuple[id]
		ws := grow(weights[id], rel.Len()*stride)
		weights[id] = ws

		c := 1.0
		var kids []childEdge
		for _, ch := range n.Children {
			c *= cParam[ch] / 2
			kids = append(kids, childEdge{gids: e.ParentGids(ch), sel: selTuple[ch], ws: weights[ch]})
		}
		cParam[id] = c
		own := ownCols(nil, n, rel, f, mu)
		parallel.For(workers, rel.Len(), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if live[i].IsZero() {
					continue // dangling tuple; never selected
				}
				if agg == ranking.Lex {
					vec := ws[i*r : (i+1)*r]
					clear(vec)
					for _, o := range own {
						vec[o.pos] = f.W(o.v, o.vals[i])
					}
					for _, k := range kids {
						st := k.sel[k.gids[i]]
						for p, x := range k.ws[st*r : (st+1)*r] {
							vec[p] += x
						}
					}
					continue
				}
				w := identity
				for _, o := range own {
					x := o.vals[i]
					if custom {
						x = f.Weight(o.v, x)
					}
					w = combine(agg, w, x)
				}
				for _, k := range kids {
					w = combine(agg, w, k.ws[k.sel[k.gids[i]]])
				}
				ws[i] = w
			}
		})

		// Close out this node's groups for the parent: weighted median of
		// the group's live tuple pivots, multiplicities = subtree counts.
		if n.Parent >= 0 {
			groups := e.Groups[id]
			sel := grow(selTuple[id], groups.NumGroups())
			selTuple[id] = sel
			chunks := parallel.Ranges(workers, groups.NumGroups())
			bufs := s.entryBufs(len(chunks))
			parallel.Do(workers, len(chunks), func(c int) {
				es := bufs[c]
				for g := chunks[c].Lo; g < chunks[c].Hi; g++ {
					es = es[:0]
					for _, t := range groups.Tuples[g] {
						if ti := int(t); !live[ti].IsZero() {
							es = append(es, selection.Entry{Key: ws[ti*stride], Item: ti})
						}
					}
					sel[g] = medianTuple(es, ws, r, live)
				}
				bufs[c] = es
			})
		}
	}

	// Artificial root: weighted median over the live root tuples.
	root := e.T.Root
	ws := weights[root]
	bufs := s.entryBufs(1)
	es := grow(bufs[0], len(counts.Tuple[root]))[:0]
	for i, m := range counts.Tuple[root] {
		if !m.IsZero() {
			es = append(es, selection.Entry{Key: ws[i*stride], Item: i})
		}
	}
	bufs[0] = es
	rootSel := medianTuple(es, ws, r, counts.Tuple[root])

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
	w := ranking.Weightv{K: ws[rootSel]}
	if agg == ranking.Lex {
		w = ranking.Weightv{Vec: slices.Clone(ws[rootSel*r : (rootSel+1)*r])}
	}
	return &Result{
		Assignment: asn,
		Weight:     w,
		C:          cParam[root] / 2,
		Count:      counts.Total,
	}, nil
}

// medianTuple is the ⊕ of Lemma 4.5 over a group's live tuples: the tuple of
// the weighted median entry, -1 for a group with none. ws holds the tuples'
// weights, vectors of r positions for LEX (r = 0 otherwise).
func medianTuple(es []selection.Entry, ws []int64, r int, mult []counting.Count) int {
	switch len(es) {
	case 0:
		return -1
	case 1:
		return es[0].Item
	}
	return selection.MedianItem(es, selection.Vectors{At: ws, R: r, Mult: mult})
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
	// The same ⊕ kernel as a join group's: one entry per live shard, the LEX
	// vectors side by side in shard order.
	r := f.VecLen()
	es := make([]selection.Entry, len(live))
	var vecs []int64
	var mults []counting.Count
	for k, i := range live {
		w := cands[i].Weight
		es[k] = selection.Entry{Key: w.K, Item: k}
		mults = append(mults, cands[i].Count)
		if r > 0 {
			es[k].Key = w.Vec[0]
			vecs = append(vecs, w.Vec...)
		}
	}
	idx := live[selection.MedianItem(es, selection.Vectors{At: vecs, R: r, Mult: mults})]
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
