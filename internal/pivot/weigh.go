package pivot

import (
	"slices"

	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/yannakakis"
)

// Weigh appends to dst the weight of every answer of e, in Enumerate's order
// and in the flat layout of the pivot pass — a number per answer for SUM, MIN
// and MAX, the r positions of its vector for LEX — and returns dst and the
// number of answers weighed. No answer is formed: the walk (yannakakis.Walk)
// carries a prefix of the weight per pre-order depth — for LEX, the one vector,
// each position written by the node that owns it under μ — and the candidates
// of the last node are weighed in one loop. seen, when not nil, is shown dst
// each time a group of candidates has been appended — they are dst[from:], and
// the group's first is the first-th answer weighed — and returns the dst to go
// on with: a caller that only looks at the weights hands dst[:from] back and
// holds none of them. counts must be the counting state of e.
func Weigh(e *jointree.Exec, counts *yannakakis.Counts, f *ranking.Func, mu map[query.Var]int, dst []int64, seen func(dst []int64, from, first int) []int64) (out []int64, n int) {
	own := make([][]ownCol, len(e.T.Nodes))
	all := make([]ownCol, 0, len(f.Vars)) // every node's, never regrown: μ assigns a variable once
	for _, n := range e.T.Nodes {
		at := len(all)
		all = ownCols(all, n, e.Rels[n.ID], f, mu)
		own[n.ID] = all[at:]
	}
	var bind func(d, node, ti int) bool
	var weigh func(out []int64, last []ownCol, rows []int) // out[i] weighs rows[i] of the last node
	stride := 1
	if f.Agg == ranking.Lex {
		stride = len(f.Vars)
		vec := make([]int64, stride)
		bind = func(_, node, ti int) bool {
			for _, o := range own[node] {
				vec[o.pos] = f.W(o.v, o.vals[ti])
			}
			return true
		}
		weigh = func(out []int64, last []ownCol, rows []int) {
			for i, ti := range rows {
				v := out[i*stride : (i+1)*stride]
				copy(v, vec)
				for _, o := range last {
					v[o.pos] = f.W(o.v, o.vals[ti])
				}
			}
		}
	} else {
		agg, custom := f.Agg, f.Weight != nil
		weightOf := func(w int64, cols []ownCol, ti int) int64 {
			for _, o := range cols {
				x := o.vals[ti]
				if custom {
					x = f.Weight(o.v, x)
				}
				w = combine(agg, w, x)
			}
			return w
		}
		// prefix[d+1] aggregates the tuples bound at depths 0…d.
		prefix := make([]int64, len(e.T.Nodes)+1)
		prefix[0] = f.Identity().K
		bind = func(d, node, ti int) bool {
			prefix[d+1] = weightOf(prefix[d], own[node], ti)
			return true
		}
		weigh = func(out []int64, last []ownCol, rows []int) {
			w := prefix[len(e.T.Nodes)-1]
			for i, ti := range rows {
				out[i] = weightOf(w, last, ti)
			}
		}
	}
	yannakakis.Walk(e, counts, bind, func(node int, rows []int) bool {
		from := len(dst)
		dst = slices.Grow(dst, len(rows)*stride)[:from+len(rows)*stride]
		weigh(dst[from:], own[node], rows)
		if seen != nil {
			dst = seen(dst, from, n)
		}
		n += len(rows)
		return true
	})
	return dst, n
}
