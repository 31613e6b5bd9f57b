package anyk

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/testutil"
	"github.com/quantilejoins/qjoin/internal/yannakakis"
)

func enumOf(t testing.TB, q *query.Query, db *relation.Database, f *ranking.Func) *Enumerator {
	t.Helper()
	tree, err := jointree.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	e, err := jointree.NewExecWorkers(q, db, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	en, err := New(e, yannakakis.CountWorkers(e, 1), f)
	if err != nil {
		t.Fatal(err)
	}
	return en
}

// drain pulls every answer and returns assignments and weights in emission
// order.
func drain(t testing.TB, en *Enumerator, nVars int) ([][]relation.Value, []ranking.Weightv) {
	t.Helper()
	var answers [][]relation.Value
	var weights []ranking.Weightv
	asn := make([]relation.Value, nVars)
	for {
		w, err := en.Next(asn)
		if err == ErrExhausted {
			return answers, weights
		}
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, append([]relation.Value(nil), asn...))
		weights = append(weights, w)
		if len(answers) > 1_000_000 {
			t.Fatal("runaway enumeration")
		}
	}
}

// checkRankedEnumeration verifies: the emitted multiset equals the brute
// force answer set, weights are non-decreasing, and every reported weight
// matches its assignment.
func checkRankedEnumeration(t *testing.T, q *query.Query, db *relation.Database, f *ranking.Func) {
	t.Helper()
	en := enumOf(t, q, db, f)
	vars := q.Vars()
	got, weights := drain(t, en, len(vars))
	want := testutil.BruteForce(q, db)
	if !testutil.SameAnswerSet(got, want) {
		t.Fatalf("enumerated %d answers, brute force %d (query %s)", len(got), len(want), q)
	}
	aw := ranking.NewAnswerWeigher(f, vars)
	for i, a := range got {
		if f.Compare(aw.WeightOf(a), weights[i]) != 0 {
			t.Fatalf("answer %d: reported weight %v != assignment weight %v", i, weights[i], aw.WeightOf(a))
		}
		if i > 0 && f.Compare(weights[i-1], weights[i]) > 0 {
			t.Fatalf("weights out of order at %d: %v then %v", i, weights[i-1], weights[i])
		}
	}
}

func TestRankedOrderSumRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 40; trial++ {
		q, db := testutil.RandomTreeInstance(rng, 2+rng.Intn(3), 1+rng.Intn(8), 4)
		checkRankedEnumeration(t, q, db, ranking.NewSum(q.Vars()...))
	}
}

func TestRankedOrderMinMax(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 30; trial++ {
		q, db := testutil.RandomStarInstance(rng, 2+rng.Intn(2), 1+rng.Intn(8), 5)
		checkRankedEnumeration(t, q, db, ranking.NewMin(q.Vars()...))
		checkRankedEnumeration(t, q, db, ranking.NewMax(q.Vars()...))
	}
}

func TestRankedOrderLex(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 20; trial++ {
		q, db := testutil.RandomPathInstance(rng, 2, 1+rng.Intn(8), 4)
		checkRankedEnumeration(t, q, db, ranking.NewLex("x1", "x3"))
	}
}

func TestRankedPartialSum(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	for trial := 0; trial < 20; trial++ {
		q, db := testutil.RandomPathInstance(rng, 3, 1+rng.Intn(6), 4)
		checkRankedEnumeration(t, q, db, ranking.NewSum("x1", "x3"))
	}
}

func TestTopKStopsEarly(t *testing.T) {
	// Pulling only k answers must not require materializing everything:
	// the root stream's found prefix stays near k.
	rng := rand.New(rand.NewSource(95))
	q, db := testutil.RandomStarInstance(rng, 3, 40, 4)
	f := ranking.NewSum(q.Vars()...)
	en := enumOf(t, q, db, f)
	asn := make([]relation.Value, len(q.Vars()))
	for i := 0; i < 5; i++ {
		if _, err := en.Next(asn); err == ErrExhausted {
			return // tiny instance; fine
		}
	}
	if len(en.root.found) > 5+1 {
		t.Fatalf("top-5 materialized %d root solutions", len(en.root.found))
	}
}

func TestEmptyInstance(t *testing.T) {
	q := query.New(
		query.Atom{Rel: "A", Vars: []query.Var{"x"}},
		query.Atom{Rel: "B", Vars: []query.Var{"x"}},
	)
	db := relation.NewDatabase()
	db.Add(relation.FromRows("A", 1, [][]relation.Value{{1}}))
	db.Add(relation.FromRows("B", 1, [][]relation.Value{{2}}))
	en := enumOf(t, q, db, ranking.NewSum("x"))
	asn := make([]relation.Value, 1)
	if _, err := en.Next(asn); err != ErrExhausted {
		t.Fatalf("err = %v", err)
	}
}

func TestValidation(t *testing.T) {
	q := testutil.PathQuery(2)
	db := relation.NewDatabase()
	for _, a := range q.Atoms {
		db.Add(relation.FromRows(a.Rel, 2, [][]relation.Value{{1, 1}}))
	}
	tree, _ := jointree.Build(q)
	e, _ := jointree.NewExecWorkers(q, db, tree, 1)
	if _, err := New(e, yannakakis.CountWorkers(e, 1), ranking.NewSum("zz")); err == nil {
		t.Fatal("unknown ranked variable accepted")
	}
}

func BenchmarkTop100(b *testing.B) {
	rng := rand.New(rand.NewSource(96))
	q, db := testutil.RandomPathInstance(rng, 3, 1<<12, 1<<8)
	f := ranking.NewSum(q.Vars()...)
	tree, _ := jointree.Build(q)
	asn := make([]relation.Value, len(q.Vars()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, _ := jointree.NewExecWorkers(q, db, tree, 1)
		en, err := New(e, yannakakis.CountWorkers(e, 1), f)
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < 100; k++ {
			if _, err := en.Next(asn); err != nil {
				break
			}
		}
	}
}

// sameStreams drains the ranked stream of e by its counts and the stream of
// e's full reduction in lockstep: the same weights, values and order, to
// exhaustion. It returns the number of answers.
func sameStreams(t *testing.T, name string, e *jointree.Exec, f *ranking.Func) int {
	t.Helper()
	red := testutil.FullReduction(e)
	got, err := New(e, yannakakis.CountWorkers(e, 1), f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(red, yannakakis.CountWorkers(red, 1), f)
	if err != nil {
		t.Fatal(err)
	}
	ga, wa := make([]relation.Value, len(e.Q.Vars())), make([]relation.Value, len(e.Q.Vars()))
	for n := 0; ; n++ {
		gw, gerr := got.Next(ga)
		ww, werr := want.Next(wa)
		if gerr != werr {
			t.Fatalf("%s %s%v: answer %d: %v on the tree, %v on its reduction", name, f.Agg, f.Vars, n, gerr, werr)
		}
		if gerr == ErrExhausted {
			return n
		}
		if !slices.Equal(ga, wa) || gw.K != ww.K || !slices.Equal(gw.Vec, ww.Vec) {
			t.Fatalf("%s %s%v: answer %d is %v (%v) on the tree, %v (%v) on its reduction", name, f.Agg, f.Vars, n, ga, gw, wa, ww)
		}
	}
}

// Ranked enumeration over the unreduced tree by its counts is the enumeration
// over the tree's full reduction, stream for stream: on the differential
// corpus under every family and the corpus rankings, and on instances whose
// dead tuples sit below (no child partner) and above (no live parent) the
// nodes that carry answers, under every rooting.
func TestRankedStreamsMatchTheFullReduction(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, inst := range testutil.FuzzCorpus(rand.New(rand.NewSource(seed))) {
			e := engineExec(t, inst.Q, inst.DB)
			v := e.Q.Vars()
			for _, f := range append([]*ranking.Func{ranking.NewSum(v...), ranking.NewMin(v...), ranking.NewMax(v...), ranking.NewLex(v...)}, inst.Ranks...) {
				sameStreams(t, fmt.Sprintf("seed %d %s", seed, inst.Name), e, f)
			}
		}
	}
	// A chain A–B–C–D: A's (3,30) and B's (20,200) have no partner below, C's
	// (900,9) and D's (8,80) none above; each rooting puts them on both sides.
	q := query.New(
		query.Atom{Rel: "A", Vars: []query.Var{"x", "y"}},
		query.Atom{Rel: "B", Vars: []query.Var{"y", "z"}},
		query.Atom{Rel: "C", Vars: []query.Var{"z", "w"}},
		query.Atom{Rel: "D", Vars: []query.Var{"w", "u"}},
	)
	db := relation.NewDatabase()
	db.Add(relation.FromRows("A", 2, [][]relation.Value{{1, 10}, {2, 20}, {3, 30}, {4, 10}}))
	db.Add(relation.FromRows("B", 2, [][]relation.Value{{10, 100}, {20, 200}, {10, 101}}))
	db.Add(relation.FromRows("C", 2, [][]relation.Value{{100, 7}, {101, 7}, {100, 6}, {900, 9}}))
	db.Add(relation.FromRows("D", 2, [][]relation.Value{{7, 70}, {6, 60}, {7, 71}, {8, 80}}))
	for root := 0; root < 4; root++ {
		parent := make([]int, 4)
		for i := range parent {
			switch {
			case i == root:
				parent[i] = -1
			case i < root:
				parent[i] = i + 1
			default:
				parent[i] = i - 1
			}
		}
		e, err := jointree.NewExecWorkers(q, db, jointree.FromParent(q, parent, root), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []*ranking.Func{ranking.NewSum("x", "u"), ranking.NewMin("y", "w"), ranking.NewMax(q.Vars()...), ranking.NewLex("u", "x")} {
			if n := sameStreams(t, fmt.Sprintf("chain rooted at %d", root), e, f); n != 10 {
				t.Fatalf("chain rooted at %d: %d answers, want 10", root, n)
			}
		}
	}
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 30; trial++ {
		q, db := testutil.RandomTreeInstance(rng, 2+rng.Intn(4), 1+rng.Intn(10), 4)
		sameStreams(t, fmt.Sprintf("tree %d", trial), engineExec(t, q, db), ranking.NewSum(q.Vars()...))
	}
}

// engineExec compiles q over db as a plan does and returns the engine's tree.
func engineExec(t *testing.T, q *query.Query, db *relation.Database) *jointree.Exec {
	t.Helper()
	eng, err := engine.NewWorkers(q, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	return eng.Exec()
}
