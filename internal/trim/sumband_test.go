package trim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/testutil"
	"github.com/quantilejoins/qjoin/internal/workload"
)

// randomBound draws −∞/+∞ (per inf) one time in four, else a weight in
// [lo, hi).
func randomBound(rng *rand.Rand, inf ranking.Bound, lo, hi int64) ranking.Bound {
	if rng.Intn(4) == 0 {
		return inf
	}
	return ranking.Finite(ranking.Weightv{K: lo + rng.Int63n(hi-lo)})
}

// inBand returns the brute-force answers with low ≺ Σ ≺ high.
func inBand(q *query.Query, db *relation.Database, f *ranking.Func, low, high ranking.Bound) [][]relation.Value {
	var out [][]relation.Value
	aw := ranking.NewAnswerWeigher(f, q.Vars())
	for _, a := range testutil.BruteForce(q, db) {
		if w := aw.WeightOf(a); cmpBound(f, low, w) < 0 && cmpBound(f, high, w) > 0 {
			out = append(out, a)
		}
	}
	return out
}

// composed is the band as two one-sided trims: Σ ≺ high, then Σ ≻ low.
func composed(t *testing.T, inst Instance, f *ranking.Func, low, high ranking.Bound) Instance {
	t.Helper()
	var err error
	if high.IsFinite() {
		if inst, err = SumAdjacent(inst, f, high.W.K, Less); err != nil {
			t.Fatal(err)
		}
	}
	if low.IsFinite() {
		if inst, err = SumAdjacent(inst, f, low.W.K, Greater); err != nil {
			t.Fatal(err)
		}
	}
	return inst
}

// The one-pass band, the two composed one-sided trims and brute force agree
// on random single-node, two-node and 3-path instances — with duplicate
// B-side rows, infinite bounds on either side and empty bands in the mix.
func TestSumAdjacentBandMatchesComposedAndBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	shapes := []struct {
		name string
		k    int
		vars []query.Var
	}{
		{"single-node", 2, []query.Var{"x1", "x2"}},
		{"two-node", 2, []query.Var{"x1", "x2", "x3"}},
		{"3-path", 3, []query.Var{"x1", "x2", "x3"}},
	}
	empty, infinite := 0, 0
	for trial := 0; trial < 240; trial++ {
		shape := shapes[trial%len(shapes)]
		q, db := testutil.RandomPathInstance(rng, shape.k, 1+rng.Intn(12), 5)
		for _, name := range []string{"R1", "R2"} { // raw duplicates on both weighted sides
			r := db.Get(name)
			for d := rng.Intn(4); d > 0; d-- {
				r.AppendRow(r.RowValues(rng.Intn(r.Len())))
			}
		}
		f := ranking.NewSum(shape.vars...)
		low := randomBound(rng, ranking.NegInf(), -2, 12)
		high := randomBound(rng, ranking.PosInf(), -2, 14)
		if !low.IsFinite() || !high.IsFinite() {
			infinite++
		}
		if low.IsFinite() && high.IsFinite() && low.W.K+1 >= high.W.K {
			empty++
		}
		inst := Instance{Q: q, DB: db}
		band, err := SumAdjacentBand(inst, f, low, high)
		if err != nil {
			t.Fatal(err)
		}
		got := materialize(t, band, q.Vars())
		want := inBand(q, db, f, low, high)
		if !testutil.SameAnswerSet(got, want) || !distinct(got) {
			t.Fatalf("%s trial %d band (%+v, %+v): got %d answers, brute force %d", shape.name, trial, low, high, len(got), len(want))
		}
		if two := materialize(t, composed(t, inst, f, low, high), q.Vars()); !testutil.SameAnswerSet(got, two) {
			t.Fatalf("%s trial %d band (%+v, %+v): got %d answers, composed trims %d", shape.name, trial, low, high, len(got), len(two))
		}
	}
	if empty == 0 || infinite == 0 {
		t.Fatalf("corpus drew %d empty bands and %d infinite bounds; widen it", empty, infinite)
	}
}

// A band of a band: the output stays in the class (the helper variable joins
// the pair's key), so the trim applies to its own output and the bands
// intersect.
func TestSumAdjacentBandComposesWithItself(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 60; trial++ {
		q, db := testutil.RandomPathInstance(rng, 2+trial%2, 1+rng.Intn(10), 5)
		f := ranking.NewSum("x1", "x2", "x3")
		l1, h1 := randomBound(rng, ranking.NegInf(), -2, 6), randomBound(rng, ranking.PosInf(), 6, 14)
		l2, h2 := randomBound(rng, ranking.NegInf(), -2, 8), randomBound(rng, ranking.PosInf(), 4, 14)
		once, err := SumAdjacentBand(Instance{Q: q, DB: db}, f, l1, h1)
		if err != nil {
			t.Fatal(err)
		}
		twice, err := SumAdjacentBand(once, f, l2, h2)
		if err != nil {
			t.Fatalf("second band failed (class not preserved): %v", err)
		}
		var want [][]relation.Value
		aw := ranking.NewAnswerWeigher(f, q.Vars())
		for _, a := range inBand(q, db, f, l1, h1) {
			if w := aw.WeightOf(a); cmpBound(f, l2, w) < 0 && cmpBound(f, h2, w) > 0 {
				want = append(want, a)
			}
		}
		if got := materialize(t, twice, q.Vars()); !testutil.SameAnswerSet(got, want) || !distinct(got) {
			t.Fatalf("trial %d: got %d answers, want %d", trial, len(got), len(want))
		}
	}
}

func TestSumAdjacentBandRejectsReversedInfinities(t *testing.T) {
	q, db := testutil.RandomPathInstance(rand.New(rand.NewSource(53)), 2, 5, 4)
	f := ranking.NewSum("x1", "x2", "x3")
	if _, err := SumAdjacentBand(Instance{Q: q, DB: db}, f, ranking.PosInf(), ranking.PosInf()); err == nil {
		t.Fatal("low = +∞ accepted")
	}
	if _, err := SumAdjacentBand(Instance{Q: q, DB: db}, f, ranking.NegInf(), ranking.NegInf()); err == nil {
		t.Fatal("high = −∞ accepted")
	}
}

// instanceDigest hashes an instance's query and every row of its relations,
// in order: equal digests mean byte-identical instances.
func instanceDigest(inst Instance) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, inst.Q.String())
	for _, name := range inst.DB.Names() {
		r := inst.DB.Get(name)
		fmt.Fprint(h, name, r.Arity(), r.Len())
		for i := 0; i < r.Len(); i++ {
			fmt.Fprint(h, r.RowValues(i))
		}
	}
	return h.Sum64()
}

// SumAdjacent(λ, Less) is now the band (−∞, λ): its output — segment ids,
// row order, helper variable — is byte for byte what the prefix-only
// staircase of the commit before the band emitted (digests recorded there),
// at every worker count and with a cache attached.
func TestSumAdjacentLessUnchangedByBand(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	q2, db2 := workload.Path(rng, 2, 3000, 40)
	q3, db3 := workload.Path(rng, 3, 1500, 30)
	for _, tc := range []struct {
		name   string
		q      *query.Query
		db     *relation.Database
		f      *ranking.Func
		lambda int64
		want   uint64
	}{
		{"path2 low λ", q2, db2, ranking.NewSum("x1", "x2", "x3"), 25, 0x93b893ed715f5ff8},
		{"path2 median λ", q2, db2, ranking.NewSum("x1", "x2", "x3"), 58, 0xb86146fbb1dd5998},
		{"path2 high λ", q2, db2, ranking.NewSum("x1", "x2", "x3"), 110, 0x63fb76cd92258221},
		{"path3 partial", q3, db3, ranking.NewSum("x1", "x2", "x3"), 44, 0x457265c88871803b},
		{"path3 single node", q3, db3, ranking.NewSum("x2", "x3"), 30, 0xb48b8be9aebc95af},
	} {
		for _, workers := range []int{1, 4} {
			for _, cache := range []*Cache{nil, NewCache()} {
				out, err := SumAdjacent(Instance{Q: tc.q, DB: tc.db, Workers: workers, Cache: cache}, tc.f, tc.lambda, Less)
				if err != nil {
					t.Fatal(err)
				}
				if got := instanceDigest(out); got != tc.want {
					t.Errorf("%s workers=%d cache=%v: digest %#x, want %#x", tc.name, workers, cache != nil, got, tc.want)
				}
			}
		}
	}
}

// refStaircase is the staircase emission as it was before segments were
// numbered from a table: one group after another, a map from (level, start) to
// the segment's id, cleared per group, ids global and handed out at first use.
func refStaircase(t *testing.T, inst Instance, f *ranking.Func, low, high ranking.Bound) (outA, outB *relation.Relation) {
	t.Helper()
	p, err := buildSumAdjPrep(inst, f)
	if err != nil {
		t.Fatal(err)
	}
	relA, relB := inst.rel(p.atomIdxA), inst.rel(p.atomIdxB)
	outA, outB = relation.New(p.atomA.Rel, relA.Arity()+1), relation.New(p.atomB.Rel, relB.Arity()+1)
	var next relation.Value
	for gk, rows := range p.aGroupRows {
		if p.aPartner[gk] < 0 {
			continue
		}
		g := &p.bGroups[p.aPartner[gk]]
		ids := map[segKey]relation.Value{}
		var order []segKey
		for _, ai := range rows {
			from, to := 0, len(g.rows)
			for low.IsFinite() && from < to && g.sums[from] <= low.W.K-p.aSums[ai] {
				from++
			}
			for high.IsFinite() && to > from && g.sums[to-1] >= high.W.K-p.aSums[ai] {
				to--
			}
			for pos := from; pos < to; {
				lvl := 0
				for pos%(2<<lvl) == 0 && pos+2<<lvl <= to {
					lvl++
				}
				sk := segKey{lvl, pos}
				if _, ok := ids[sk]; !ok {
					next++
					ids[sk] = next
					order = append(order, sk)
				}
				outA.AppendRow(append(relA.RowValues(ai), ids[sk]))
				pos += 1 << lvl
			}
		}
		for _, sk := range order {
			for pos := sk.start; pos < sk.start+1<<sk.lvl; pos++ {
				outB.AppendRow(append(relB.RowValues(g.rows[pos]), ids[sk]))
			}
		}
	}
	return outA, outB
}

// The staircase numbers its segments from a table over the group's implicit
// segment tree; the rows it emits, segment ids included, are those of the
// reference that numbers them through a map — on join groups of 1, 2ᵏ and
// 2ᵏ ± 1 rows, where the tree is full, one short and one over, and on one group
// holding every row; bands open, one-sided, proper and empty; workers 1 and 4
// (on one pooled table after the other: the chunks go back to the pool).
func TestStaircaseSegmentIdsMatchMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2403))
	q := testutil.PathQuery(2)
	f := ranking.NewSum("x1", "x2", "x3")
	build := func(sizes []int) *relation.Database {
		a, b := relation.New("R1", 2), relation.New("R2", 2)
		for key, m := range sizes {
			for i := 0; i < m; i++ {
				b.Append(relation.Value(key), relation.Value(i*3+rng.Intn(3))) // distinct within the group
			}
			for i := 0; i < 1+rng.Intn(6); i++ {
				a.Append(relation.Value(100*key+i), relation.Value(key))
			}
		}
		a.Append(9999, relation.Value(len(sizes))) // a group with no partner
		db := relation.NewDatabase()
		db.Add(a.MarkDistinct())
		db.Add(b.MarkDistinct())
		return db
	}
	var mixed []int
	for k := 0; k <= 6; k++ {
		mixed = append(mixed, 1<<k, 1<<k+1)
		if k > 1 {
			mixed = append(mixed, 1<<k-1)
		}
	}
	rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
	many := make([]int, 600) // past the sequential threshold: workers=4 emits in chunks
	for i := range many {
		many[i] = mixed[i%len(mixed)]
	}
	for _, c := range []struct {
		name  string
		sizes []int
	}{{"mixed", mixed}, {"many", many}, {"one group", []int{777}}, {"one row", []int{1}}} {
		db := build(c.sizes)
		all := testutil.BruteForce(q, db)
		for _, workers := range []int{1, 4} {
			inst := Instance{Q: q, DB: db, Workers: workers}
			for _, b := range boundsFor(rng, all, q.Vars(), f) {
				name := fmt.Sprintf("%s workers=%d (%v, %v)", c.name, workers, b[0], b[1])
				out, err := SumAdjacentBand(inst, f, b[0], b[1])
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				wantA, wantB := refStaircase(t, inst, f, b[0], b[1])
				if gotA, gotB := out.DB.Get("R1"), out.DB.Get("R2"); !gotA.Equal(wantA) || !gotB.Equal(wantB) {
					t.Fatalf("%s: emitted rows differ from the map-numbered reference's (%d and %d rows, reference %d and %d)",
						name, gotA.Len(), gotB.Len(), wantA.Len(), wantB.Len())
				}
			}
		}
	}
}
