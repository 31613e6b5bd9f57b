package trim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/testutil"
	"github.com/quantilejoins/qjoin/internal/workload"
)

// narrowBounds adds to boundsFor the bands a warm descent's slices look like,
// around the weight w of a random answer: the band of w's class alone, for LEX
// also the band of every weight whose first position is w's (a point interval
// on the most significant variable), bands with a bound at either end of
// int64, and empty ones.
func narrowBounds(rng *rand.Rand, all [][]relation.Value, vars []query.Var, f *ranking.Func) [][2]ranking.Bound {
	w := ranking.NewAnswerWeigher(f, vars).WeightOf(all[rng.Intn(len(all))])
	at := func(v ranking.Weightv) ranking.Bound { return ranking.Finite(v) }
	fill := func(x int64) ranking.Weightv {
		if f.Agg != ranking.Lex {
			return ranking.Weightv{K: x}
		}
		return ranking.Weightv{Vec: slices.Repeat([]int64{x}, len(f.Vars))}
	}
	lo, hi := at(fill(math.MinInt64)), at(fill(math.MaxInt64))
	out := [][2]ranking.Bound{{lo, hi}, {lo, at(w)}, {at(w), hi}, {at(w), at(w)}, {hi, lo}}
	// The band of w's class alone: w's last position one below and one above.
	step := func(by int64) (ranking.Weightv, bool) {
		v := w.Clone()
		p := &v.K
		if f.Agg == ranking.Lex {
			p = &v.Vec[len(v.Vec)-1]
		}
		if *p == math.MinInt64 && by < 0 || *p == math.MaxInt64 && by > 0 {
			return v, false
		}
		*p += by
		return v, true
	}
	if below, ok := step(-1); ok {
		if above, ok := step(1); ok {
			out = append(out, [2]ranking.Bound{at(below), at(above)}, [2]ranking.Bound{at(below), hi}, [2]ranking.Bound{lo, at(above)})
		}
	}
	if f.Agg == ranking.Lex {
		first := func(x int64) ranking.Weightv {
			v := fill(x)
			v.Vec[0] = w.Vec[0]
			return v
		}
		out = append(out, [2]ranking.Bound{at(first(math.MinInt64)), at(first(math.MaxInt64))})
	}
	return out
}

// A box seeded from a weight order keeps the rows a scanned one keeps: over
// the differential corpus — paths, a star, a self-join, relations with
// duplicate rows — under the corpus's rankings and random ones (some with
// custom weights, which build no order and scan), every band boundsFor and
// narrowBounds give is cut twice, from an instance whose cache holds the
// ranking's orders and the inverses of the edges their boxes climb and from
// one without, and the two bands hold the same relations row for row and
// derive the same tree: the same gid arrays, each the tree a fresh build over
// the band would make. Every shape seeds some box. So does a 2-path, a warm
// descent's slice on the repository benchmark's plan, under LEX and MAX
// rankings whose first variable sits on the tree's child, from a cache that
// holds the child's orders alone: each box it seeds climbs to the root
// through the inverse — and without the inverse, no order there seeds.
func TestSeededBoxesMatchScannedBoxes(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	// check cuts from the cache's orders on node on alone, or from all of them
	// for on < 0.
	check := func(name string, q *query.Query, db *relation.Database, ranks []*ranking.Func, on int) {
		q, db = query.Normalize(q, db)
		e := freshExec(t, Instance{Q: q, DB: db})
		all := testutil.BruteForce(q, db)
		vars := q.Vars()
		seeded, nonEmpty := 0, 0
		for _, f := range ranks {
			cache := NewCache()
			cache.WeightOrders(Instance{Q: q, DB: db, Exec: e}, f)
			if f.Weight != nil && cache.OrdersBuilt()+cache.InversesBuilt() != 0 {
				t.Fatalf("%s: a custom-weight ranking built %d orders and %d inverses", name, cache.OrdersBuilt(), cache.InversesBuilt())
			}
			if on >= 0 {
				cache = ordersOn(cache, on)
				bare := ordersOn(cache, on)
				bare.climbs = nil
				if ords, _ := bare.ordersFor(f, e); ords != nil {
					t.Fatalf("%s %s%v: an order on node %d seeds without the inverse above it", name, f.Agg, f.Vars, on)
				}
			}
			for _, b := range append(boundsFor(rng, all, vars, f), narrowBounds(rng, all, vars, f)...) {
				where := fmt.Sprintf("%s %s%v custom=%v (%v, %v)", name, f.Agg, f.Vars, f.Weight != nil, b[0], b[1])
				want, err := Band(Instance{Q: q, DB: db, Exec: e}, f, b[0], b[1])
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				scr := new(Scratch)
				got, err := Band(Instance{Q: q, DB: db, Exec: e, Cache: cache, Scratch: scr}, f, b[0], b[1])
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				seeded += scr.seeded
				if scr.seeded > 0 && got.DB.Size() > 0 {
					nonEmpty++
				}
				sameBand(t, where, got, want)
			}
		}
		if seeded == 0 {
			t.Errorf("%s: no box seeded", name)
		}
		t.Logf("%s: %d seeded boxes, %d in bands with rows", name, seeded, nonEmpty)
	}
	for k, c := range testutil.FuzzCorpus(rng) {
		ranks := rankingsOver(rng, c.Q.Vars(), k)
		for _, f := range c.Ranks {
			if f.Agg != ranking.Sum {
				ranks = append(ranks, f)
			}
		}
		check(c.Name, c.Q, c.DB, ranks, -1)
	}
	q, db := workload.Path(rng, 2, 800, 40)
	e := freshExec(t, Instance{Q: q, DB: db})
	child := slices.IndexFunc(e.T.Nodes, func(n *jointree.Node) bool { return n.Parent >= 0 })
	if !slices.Contains(e.T.Nodes[child].Vars, "x1") {
		t.Fatalf("x1 sits on the root of %s's tree, want it on the child", q)
	}
	check("path2 seeded on the child", q, db, []*ranking.Func{ranking.NewLex("x1", "x3"), ranking.NewMax("x1", "x3")}, child)
}

// ordersOn returns a cache that holds c's orders on node n alone, and c's
// inverses: every box it seeds starts on n.
func ordersOn(c *Cache, n int) *Cache {
	out := NewCache()
	out.orders, out.climbs = make(map[query.Var]*weightOrder), c.climbs
	for v, o := range c.orders {
		if o.node == n {
			out.orders[v] = o
		}
	}
	return out
}

// sameBand fails unless two cuts of one band are the same instance: the same
// relations row for row and, node for node, the same gid arrays, and got's
// tree is a fresh build's.
func sameBand(t *testing.T, name string, got, want Instance) {
	t.Helper()
	for _, atom := range want.Q.Atoms {
		if g, w := got.DB.Get(atom.Rel), want.DB.Get(atom.Rel); !g.Equal(w) {
			t.Fatalf("%s: %s holds %d rows, the scan's %d, or they differ", name, atom.Rel, g.Len(), w.Len())
		}
	}
	if (got.Exec == nil) != (want.Exec == nil) {
		t.Fatalf("%s: derived a tree %v, the scan %v", name, got.Exec != nil, want.Exec != nil)
	}
	if got.Exec == nil {
		return
	}
	for _, n := range want.Exec.T.Nodes {
		if n.Parent < 0 {
			continue
		}
		if !slices.Equal(got.Exec.Groups[n.ID].RowGid, want.Exec.Groups[n.ID].RowGid) || !slices.Equal(got.Exec.ParentGids(n.ID), want.Exec.ParentGids(n.ID)) {
			t.Fatalf("%s: node %d: gid arrays differ from the scan's", name, n.ID)
		}
	}
	testutil.SameExec(t, name, got.Exec, freshExec(t, got))
}

// sortedBy orders indexes by weight, ties by index, whether the weights span
// less than 2³² (sorted packed beside their index) or more, up to both ends of
// int64.
func TestSortedByOrdersByWeightThenIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 200; trial++ {
		w := make([]int64, rng.Intn(64))
		span := []int64{4, 1 << 31, 1 << 40, math.MaxInt64}[trial%4]
		for i := range w {
			w[i] = rng.Int63n(span) - span/2
			if trial%4 == 3 && rng.Intn(8) == 0 {
				w[i] = []int64{math.MinInt64, math.MaxInt64}[rng.Intn(2)]
			}
		}
		want := make([]int32, len(w))
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(w[a], w[b]) })
		if got := sortedBy(len(w), func(i int) int64 { return w[i] }); !slices.Equal(got, want) {
			t.Fatalf("weights %v: order %v, want %v", w, got, want)
		}
	}
}

// An inverse lives exactly as long as its edge's parent-gid array. A cache
// carried across jointree.ApplyDelta — the engine starts a fresh one on a
// delta that changes the answers, but nothing here may rely on that — rebuilds
// the inverse after a delta that changes the parent relation or adds child
// groups (either gives the edge a new array) and keeps it after one that only
// deletes child rows (the array is kept, and so is every parent row's group).
// After each delta, every band cut through the carried cache's orders on the
// child — each box they seed climbs through the inverse — equals a scan of the
// updated instance.
func TestInversesFollowTheParentGidArray(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	q := query.New(query.Atom{Rel: "R1", Vars: []query.Var{"x1", "x2"}}, query.Atom{Rel: "R2", Vars: []query.Var{"x2", "x3"}})
	tree, err := jointree.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	child := slices.IndexFunc(tree.Nodes, func(n *jointree.Node) bool { return n.Parent >= 0 })
	cRel, pRel := q.Atoms[child].Rel, q.Atoms[tree.Nodes[child].Parent].Rel
	// row is a row of rel with x2 = v and its other column o.
	row := func(rel string, v, o int64) []relation.Value {
		if rel == "R1" {
			return []relation.Value{o, v}
		}
		return []relation.Value{v, o}
	}
	// The child holds x2 < 24 and the parent x2 < 32, so some parent rows
	// join no group until the second delta adds one.
	rows := func(rel string, n int, dom int64) [][]relation.Value {
		var out [][]relation.Value
		seen := map[[2]int64]bool{}
		for len(out) < n {
			v, o := rng.Int63n(dom), rng.Int63n(30)
			if !seen[[2]int64{v, o}] {
				seen[[2]int64{v, o}] = true
				out = append(out, row(rel, v, o))
			}
		}
		return out
	}
	db := relation.NewDatabase()
	db.Add(relation.FromRows(cRel, 2, rows(cRel, 300, 24)))
	db.Add(relation.FromRows(pRel, 2, rows(pRel, 300, 32)))
	e, err := jointree.NewExec(q, db, tree)
	if err != nil {
		t.Fatal(err)
	}
	ranks := []*ranking.Func{ranking.NewLex("x1", "x3"), ranking.NewLex("x3", "x1"), ranking.NewMax("x1", "x3"), ranking.NewMin("x1", "x2", "x3")}
	cache := NewCache()
	deltas := []struct {
		name    string
		d       jointree.RelDelta
		rel     string
		rebuild bool
	}{
		{"initial", jointree.RelDelta{}, "", true},
		{"parent rows added", jointree.RelDelta{AddedRows: [][]relation.Value{row(pRel, 3, 100), row(pRel, 7, 101), row(pRel, 7, 102), row(pRel, 30, 103)}}, pRel, true},
		{"child groups added", jointree.RelDelta{AddedRows: [][]relation.Value{row(cRel, 25, 100), row(cRel, 25, 101), row(cRel, 28, 102)}}, cRel, true},
		{"child rows deleted", jointree.RelDelta{}, cRel, false},
	}
	seeded := 0
	for _, dt := range deltas {
		if dt.rel != "" {
			if !dt.rebuild { // delete a few child rows, and one group's every row
				r := e.Rels[child]
				for i := 0; i < r.Len(); i += 37 {
					dt.d.RemovedRows = append(dt.d.RemovedRows, r.RowValues(i))
				}
				for _, i := range e.Groups[child].Tuples[e.Groups[child].RowGid[1]] {
					if int(i)%37 != 0 {
						dt.d.RemovedRows = append(dt.d.RemovedRows, r.RowValues(int(i)))
					}
				}
			}
			next, _, err := e.ApplyDelta(map[string]jointree.RelDelta{dt.rel: dt.d})
			if err != nil {
				t.Fatalf("%s: %v", dt.name, err)
			}
			if kept := &next.ParentGids(child)[0] == &e.ParentGids(child)[0]; kept == dt.rebuild {
				t.Fatalf("%s: the parent-gid array kept %v", dt.name, kept)
			}
			e = next
		}
		inst := Instance{Q: q, DB: e.DB, Exec: e}
		before := cache.InversesBuilt()
		for _, f := range ranks {
			cache.WeightOrders(inst, f)
		}
		if built := cache.InversesBuilt() - before; built != b2i(dt.rebuild) {
			t.Fatalf("%s: %d inverses built, want %d", dt.name, built, b2i(dt.rebuild))
		}
		all := testutil.BruteForce(q, e.DB)
		for _, f := range ranks {
			for _, b := range append(boundsFor(rng, all, q.Vars(), f), narrowBounds(rng, all, q.Vars(), f)...) {
				where := fmt.Sprintf("%s %s%v (%v, %v)", dt.name, f.Agg, f.Vars, b[0], b[1])
				scr := new(Scratch)
				inst.Cache, inst.Scratch = ordersOn(cache, child), scr
				got, err := Band(inst, f, b[0], b[1])
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				inst.Cache, inst.Scratch = nil, nil
				want, err := Band(inst, f, b[0], b[1])
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				seeded += scr.seeded
				sameBand(t, where, got, want)
			}
		}
	}
	if seeded == 0 {
		t.Fatal("no box seeded on the child")
	}
}
