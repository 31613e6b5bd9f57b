package decomp

import (
	"slices"
	"time"

	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/relation"
)

// MaterializeBags builds every bag of the decomposition as one relation — the
// join of its atoms semijoined with the atoms it covers (Covered) — and
// returns the bag database together with fresh Stats. q must be the query d
// was computed from — in normal form, so an atom's rows are its relation's
// rows as they are — and db its deduplicated database; the bag relations are
// then distinct by construction. The returned database contains only bag
// relations, so a restored snapshot recomputing the decomposition arrives at
// the same database shape.
func (d *Decomposition) MaterializeBags(q *query.Query, db *relation.Database) (*relation.Database, *Stats) {
	return d.Rematerialize(q, db, nil, nil)
}

// Materialize is MaterializeBags; workers is unread. Kept for the bench
// module's probes, which call it by this name.
func (d *Decomposition) Materialize(q *query.Query, db *relation.Database, _ int) (*relation.Database, *Stats) {
	return d.MaterializeBags(q, db)
}

// Rematerialize rebuilds the bags that hold or cover a relation in changed
// (a covered atom filters the bag's rows, so its changes reach them), sharing
// every untouched bag relation from prev by pointer. With prev == nil (or
// changed == nil) it rebuilds everything, which is how a fresh
// MaterializeBags runs. Stats records how many bags were rebuilt and flags
// the degenerate case where every bag was touched.
func (d *Decomposition) Rematerialize(q *query.Query, db *relation.Database, prev *relation.Database, changed map[string]bool) (*relation.Database, *Stats) {
	start := time.Now()
	out := relation.NewDatabase()
	rebuilt := 0
	st := &Stats{Width: d.Width, Bags: len(d.Bags)}
	for i := range d.Bags {
		var r *relation.Relation
		if prev != nil && changed != nil && !d.bagTouched(q, i, changed) {
			r = prev.Get(d.BagNames[i])
		} else {
			r = d.materializeBag(q, db, i)
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

// bagTouched reports whether bag i holds or covers a changed relation.
func (d *Decomposition) bagTouched(q *query.Query, i int, changed map[string]bool) bool {
	touched := func(ai int) bool { return changed[q.Atoms[ai].Rel] }
	return slices.ContainsFunc(d.Bags[i], touched) || slices.ContainsFunc(d.Covered[i], touched)
}

// materializeBag joins bag i's atoms in join order with a left-deep hash
// join, semijoined with the atoms the bag covers: each covered atom filters
// the first join step after which all of its variables are bound, so a row
// it drops is never written. A one-atom bag has no join step of its own; its
// first covered atom, which adds no variable, is joined as that step.
func (d *Decomposition) materializeBag(q *query.Query, db *relation.Database, i int) *relation.Relation {
	order, covered := d.Bags[i], d.Covered[i]
	if len(order) == 1 && len(covered) > 0 {
		order, covered = []int{order[0], covered[0]}, covered[1:]
	}
	cur := db.Get(q.Atoms[order[0]].Rel)
	curVars := q.Atoms[order[0]].Vars
	for _, ai := range order[1:] {
		bound := slices.Concat(curVars, q.Atoms[ai].Vars)
		var filters []query.Atom
		var rest []int
		for _, ci := range covered {
			if c := q.Atoms[ci]; within(c.Vars, bound) {
				filters = append(filters, c)
			} else {
				rest = append(rest, ci)
			}
		}
		covered = rest
		cur, curVars = joinAtom(cur, curVars, q.Atoms[ai], filters, db)
	}
	return cur.Rename(d.BagNames[i]).MarkDistinct()
}

// filter is a covered atom checked at one join step: its relation's rows
// interned whole, their columns reordered so that the values the accumulated
// row binds come first and those the joined atom's matching row binds last.
// A filter with no joined-atom column (rel empty) is decided by the
// accumulated row alone. Most candidate rows fail a filter, so the keys'
// KeyBits turns most of them away before they probe the interner's table (a
// Prepare of BenchmarkCyclicQuantile's triangle, cold_compile's sizes, takes
// 0.88 ms with it and 1.8–1.9 ms without at GOMAXPROCS=1 on a 2-vCPU box).
type filter struct {
	keys *relation.Interner
	bits relation.KeyBits
	cur  []int // accumulated-row columns of the key's leading values
	rel  []int // joined-atom columns of the rest
	// key holds the leading values, taken from the accumulated row in hand
	// (setRow), with room for the whole key; h is their hash.
	key []relation.Value
	h   uint64
}

func newFilter(c query.Atom, db *relation.Database, inCur, inRel map[query.Var]int) *filter {
	f := &filter{}
	var fromCur, fromRel []int
	for j, v := range c.Vars {
		if p, ok := inCur[v]; ok {
			f.cur, fromCur = append(f.cur, p), append(fromCur, j)
		} else {
			f.rel, fromRel = append(f.rel, inRel[v]), append(fromRel, j)
		}
	}
	order := append(fromCur, fromRel...)
	rel := db.Get(c.Rel)
	cols := rel.Cols()
	f.keys = relation.NewInterner(len(order), rel.Len())
	f.key = make([]relation.Value, 0, len(order))
	for r, h := range relation.HashRows(nil, cols, order, rel.Len()) {
		f.keys.InternAt(cols, order, r, h)
	}
	f.bits = relation.NewKeyBits(f.keys, 0)
	return f
}

func (f *filter) setRow(curCols [][]relation.Value, i int) {
	f.key = relation.GatherAt(f.key, curCols, f.cur, i)
	f.h = relation.HashTuple(f.key)
}

// has reports whether the filter atom holds the accumulated row in hand
// extended by the joined atom's row m: the leading values' hash is extended
// by m's, and only a key whose bit is set is gathered and looked up.
func (f *filter) has(relCols [][]relation.Value, m int) bool {
	h := f.h
	for _, c := range f.rel {
		h = relation.HashStep(h, relCols[c][m])
	}
	if !f.bits.MayHave(h) {
		return false
	}
	key := f.key
	for _, c := range f.rel {
		key = append(key, relCols[c][m])
	}
	_, ok := f.keys.LookupHashed(key, h)
	return ok
}

// joinAtom hash-joins the accumulated bag rows (cur over curVars) with one
// more atom and keeps the rows whose projection onto each filter atom is one
// of that atom's rows. It returns the combined relation and its variable
// order: curVars followed by the atom's new variables. Rows come out in cur
// order, each row's matches in the atom relation's order.
//
// The build side is a GroupIndex over the atom's shared-key columns — interned
// keys, counting-sorted row lists. The probe side runs twice over cur: once to
// resolve every row's group and count the rows it will produce — with
// filters, to probe them with each match and keep the survivors' row pairs —
// and, after every output column has been allocated once at its exact length,
// again to fill them.
//
// A step without filters keeps no pairs and walks its groups again instead:
// recording a pair for every row it writes cost the cold_compile 4-cycle,
// whose bags cover no atom, 10.5 ms a Prepare against 8.2 ms (slower in 11 of
// 12 alternating runs on a 2-vCPU box) and 45% more allocated bytes.
func joinAtom(cur *relation.Relation, curVars []query.Var, a query.Atom, filters []query.Atom, db *relation.Database) (*relation.Relation, []query.Var) {
	rel := db.Get(a.Rel)
	inCur := make(map[query.Var]int, len(curVars))
	for j, v := range curVars {
		inCur[v] = j
	}
	inRel := make(map[query.Var]int, len(a.Vars))
	outVars := append([]query.Var(nil), curVars...)
	var sharedCur, sharedRel, newRel []int
	for j, v := range a.Vars {
		inRel[v] = j
		if p, ok := inCur[v]; ok {
			sharedCur, sharedRel = append(sharedCur, p), append(sharedRel, j)
		} else {
			outVars, newRel = append(outVars, v), append(newRel, j)
		}
	}
	fs := make([]*filter, len(filters))
	for k, c := range filters {
		fs[k] = newFilter(c, db, inCur, inRel)
	}
	index := jointree.NewGroupIndex(rel, sharedRel)
	curCols, relCols := cur.Cols(), rel.Cols()

	// First pass: per cur row its group (-1: no match) and the number of rows
	// the step writes; with filters, the cur and atom row of each row it
	// writes instead.
	lookup := index.Keys()
	gids := make([]int32, cur.Len())
	var keptCur, keptRel []int32
	total := 0
	hashes := relation.HashRows(nil, curCols, sharedCur, len(gids))
rows:
	for i, h := range hashes {
		gids[i] = -1
		id, ok := lookup.LookupAt(curCols, sharedCur, i, h)
		if !ok {
			continue
		}
		gids[i] = int32(id)
		if len(fs) == 0 {
			total += len(index.Tuples[id])
			continue
		}
		for _, f := range fs {
			f.setRow(curCols, i)
			if len(f.rel) == 0 && !f.has(relCols, 0) {
				continue rows
			}
		}
	matches:
		for _, m := range index.Tuples[id] {
			for _, f := range fs {
				if len(f.rel) > 0 && !f.has(relCols, int(m)) {
					continue matches
				}
			}
			keptCur, keptRel = append(keptCur, int32(i)), append(keptRel, m)
		}
	}
	if len(fs) > 0 {
		total = len(keptCur)
	}

	cols := make([][]relation.Value, len(outVars))
	for j := range cols {
		cols[j] = make([]relation.Value, total)
	}
	write := func(at, i, m int) {
		for j, col := range curCols {
			cols[j][at] = col[i]
		}
		for j, p := range newRel {
			cols[len(curCols)+j][at] = relCols[p][m]
		}
	}
	if len(fs) > 0 {
		for k, i := range keptCur {
			write(k, int(i), int(keptRel[k]))
		}
	} else {
		at := 0
		for i, gid := range gids {
			if gid < 0 {
				continue
			}
			for _, m := range index.Tuples[gid] {
				write(at, i, int(m))
				at++
			}
		}
	}
	return relation.FromColumns("", cols, false), outVars
}
