package decomp

import (
	"time"

	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/parallel"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/relation"
)

// Materialize joins every bag of the decomposition into one relation and
// returns the bag database together with fresh Stats. q must be the query d
// was computed from — in normal form, so an atom's rows are its relation's
// rows as they are — and db its deduplicated database; the bag relations are
// then distinct by construction. The returned database contains only bag
// relations, so a restored snapshot recomputing the decomposition arrives at
// the same database shape.
func (d *Decomposition) Materialize(q *query.Query, db *relation.Database, workers int) (*relation.Database, *Stats) {
	return d.Rematerialize(q, db, nil, nil, workers)
}

// Rematerialize rebuilds the bags that cover a relation in changed, sharing
// every untouched bag relation from prev by pointer. With prev == nil (or
// changed == nil) it rebuilds everything, which is how a fresh Materialize
// runs. Stats records how many bags were rebuilt and flags the degenerate
// case where every bag was touched.
func (d *Decomposition) Rematerialize(q *query.Query, db *relation.Database, prev *relation.Database, changed map[string]bool, workers int) (*relation.Database, *Stats) {
	start := time.Now()
	out := relation.NewDatabase()
	rebuilt := 0
	st := &Stats{Width: d.Width, Bags: len(d.Bags)}
	for i := range d.Bags {
		var r *relation.Relation
		if prev != nil && changed != nil && !d.bagTouched(q, i, changed) {
			r = prev.Get(d.BagNames[i])
		} else {
			r = d.materializeBag(q, db, i, workers)
			rebuilt++
		}
		out.Add(r)
		st.TotalBagRows += r.Len()
		if r.Len() > st.MaxBagRows {
			st.MaxBagRows = r.Len()
		}
	}
	st.RematerializedBags = rebuilt
	st.Redecomposed = prev != nil && rebuilt == len(d.Bags)
	st.MaterializeNanos = time.Since(start).Nanoseconds()
	return out, st
}

// bagTouched reports whether bag i covers any changed relation.
func (d *Decomposition) bagTouched(q *query.Query, i int, changed map[string]bool) bool {
	for _, ai := range d.Bags[i] {
		if changed[q.Atoms[ai].Rel] {
			return true
		}
	}
	return false
}

// materializeBag joins bag i's atoms in join order with a left-deep hash
// join. Probes run over chunked row ranges written in order, so the output
// row order does not depend on the worker count.
func (d *Decomposition) materializeBag(q *query.Query, db *relation.Database, i int, workers int) *relation.Relation {
	order := d.Bags[i]
	cur := db.Get(q.Atoms[order[0]].Rel)
	curVars := q.Atoms[order[0]].Vars
	for _, ai := range order[1:] {
		cur, curVars = joinAtom(cur, curVars, q.Atoms[ai], db, workers)
	}
	return cur.Rename(d.BagNames[i]).MarkDistinct()
}

// joinAtom hash-joins the accumulated bag rows (cur over curVars) with one
// more atom, returning the combined relation and its variable order: curVars
// followed by the atom's new variables. Rows come out in cur order, each row's
// matches in the atom relation's order, whatever the worker count.
//
// The build side is a GroupIndex over the atom's shared-key columns — interned
// keys, counting-sorted row lists. The probe side runs twice over each chunk
// of cur: once to resolve every row's group and count the rows it will
// produce, and, after every output column has been allocated once at its exact
// length, again to fill each chunk's own range of them.
func joinAtom(cur *relation.Relation, curVars []query.Var, a query.Atom, db *relation.Database, workers int) (*relation.Relation, []query.Var) {
	rel := db.Get(a.Rel)
	inCur := make(map[query.Var]int, len(curVars))
	for j, v := range curVars {
		inCur[v] = j
	}
	outVars := append([]query.Var(nil), curVars...)
	var sharedCur, sharedRel, newRel []int
	for j, v := range a.Vars {
		if p, ok := inCur[v]; ok {
			sharedCur, sharedRel = append(sharedCur, p), append(sharedRel, j)
		} else {
			outVars, newRel = append(outVars, v), append(newRel, j)
		}
	}
	index := jointree.NewGroupIndex(rel, sharedRel, workers)
	curCols, relCols := cur.Cols(), rel.Cols()

	// First pass: per cur row its group (-1: no match), per chunk the number
	// of rows it writes.
	lookup := index.Keys()
	chunks := parallel.Ranges(workers, cur.Len())
	gids := make([]int32, cur.Len())
	counts := make([]int, len(chunks))
	parallel.Do(workers, len(chunks), func(c int) {
		buf := make([]relation.Value, 0, len(sharedCur))
		n := 0
		for i := chunks[c].Lo; i < chunks[c].Hi; i++ {
			gids[i] = -1
			if id, ok := lookup.Lookup(relation.GatherAt(buf, curCols, sharedCur, i)); ok {
				gids[i] = int32(id)
				n += len(index.Tuples[id])
			}
		}
		counts[c] = n
	})

	starts := make([]int, len(chunks))
	total := 0
	for c, n := range counts {
		starts[c] = total
		total += n
	}
	cols := make([][]relation.Value, len(outVars))
	for j := range cols {
		cols[j] = make([]relation.Value, total)
	}
	parallel.Do(workers, len(chunks), func(c int) {
		at := starts[c]
		for i := chunks[c].Lo; i < chunks[c].Hi; i++ {
			if gids[i] < 0 {
				continue
			}
			for _, m := range index.Tuples[gids[i]] {
				for j, col := range curCols {
					cols[j][at] = col[i]
				}
				for j, p := range newRel {
					cols[len(curCols)+j][at] = relCols[p][m]
				}
				at++
			}
		}
	})
	return relation.FromColumns("", cols, false), outVars
}
