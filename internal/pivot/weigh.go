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
// of the last node are weighed in one loop. counts must be the counting state
// of e.
//
// Weigh is Scratch.Weigh with nothing to reuse.
func Weigh(e *jointree.Exec, counts *yannakakis.Counts, f *ranking.Func, mu map[query.Var]int, dst []int64) (out []int64, n int) {
	return (*Scratch)(nil).Weigh(e, counts, f, mu, dst)
}

// Weigh is the package's Weigh, drawing what it computes per row from the
// scratch. A node's ranked values are read out of columns: its relation's own
// under the default weights, and under a custom Weight the column's weights,
// computed once per row of the call — not once per visit, which a row of an
// inner node gets per answer below it. The last node's candidates are then
// weighed a column at a time by a loop specialised to the aggregate.
func (s *Scratch) Weigh(e *jointree.Exec, counts *yannakakis.Counts, f *ranking.Func, mu map[query.Var]int, dst []int64) (out []int64, n int) {
	nNodes := len(e.T.Nodes)
	own := make([][]ownCol, nNodes)
	all := make([]ownCol, 0, len(f.Vars)) // every node's, never regrown: μ assigns a variable once
	for _, nd := range e.T.Nodes {
		at := len(all)
		all = ownCols(all, nd, e.Rels[nd.ID], f, mu)
		own[nd.ID] = all[at:]
	}
	if f.Weight != nil {
		bufs, _, _ := s.nodes(nNodes)
		for id, cols := range own {
			rows := e.Rels[id].Len()
			buf := grow(bufs[id], len(cols)*rows)
			bufs[id] = buf
			for k := range cols {
				w := buf[k*rows : (k+1)*rows]
				for ti, x := range cols[k].vals {
					w[ti] = f.Weight(cols[k].v, x)
				}
				cols[k].vals = w
			}
		}
	}
	var bind func(d, node, ti int) bool
	var weigh func(out []int64, node int, rows []int32) // out weighs rows of the last node
	stride := 1
	if agg := f.Agg; agg == ranking.Lex {
		stride = len(f.Vars)
		vec := make([]int64, stride)
		bind = func(_, node, ti int) bool {
			for _, o := range own[node] {
				vec[o.pos] = o.vals[ti]
			}
			return true
		}
		weigh = func(out []int64, node int, rows []int32) {
			for i := range rows {
				copy(out[i*stride:(i+1)*stride], vec)
			}
			for _, o := range own[node] {
				for i, ti := range rows {
					out[i*stride+o.pos] = o.vals[ti]
				}
			}
		}
	} else {
		// prefix[d+1] aggregates the tuples bound at depths 0…d.
		prefix := make([]int64, nNodes+1)
		prefix[0] = f.Identity().K
		bind = func(d, node, ti int) bool {
			w := prefix[d]
			for _, o := range own[node] {
				w = combine(agg, w, o.vals[ti])
			}
			prefix[d+1] = w
			return true
		}
		weigh = func(out []int64, node int, rows []int32) {
			out = out[:len(rows)]
			w := prefix[nNodes-1]
			for i := range out {
				out[i] = w
			}
			for _, o := range own[node] {
				c := o.vals
				switch agg {
				case ranking.Sum:
					for i, ti := range rows {
						out[i] += c[ti]
					}
				case ranking.Min:
					for i, ti := range rows {
						out[i] = min(out[i], c[ti])
					}
				default:
					for i, ti := range rows {
						out[i] = max(out[i], c[ti])
					}
				}
			}
		}
	}
	yannakakis.Walk(e, counts, bind, func(node int, rows []int32) bool {
		from := len(dst)
		dst = slices.Grow(dst, len(rows)*stride)[:from+len(rows)*stride]
		weigh(dst[from:], node, rows)
		n += len(rows)
		return true
	})
	return dst, n
}
