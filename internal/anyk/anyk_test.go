package anyk

import (
	"math/rand"
	"testing"

	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/testutil"
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
	e.FullReduceWorkers(1)
	en, err := NewReduced(e, f)
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
	if _, err := NewReduced(e, ranking.NewSum("zz")); err == nil {
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
		e.FullReduceWorkers(1)
		en, err := NewReduced(e, f)
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
