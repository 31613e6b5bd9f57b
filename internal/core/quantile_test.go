package core

import (
	"math/rand"
	"testing"

	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/testutil"
)

// engines compiles (q, db) into the one-engine vector the drivers take.
func engines(t testing.TB, q *query.Query, db *relation.Database) []*engine.Engine {
	t.Helper()
	eng, err := engine.NewWorkers(q, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	return []*engine.Engine{eng}
}

// rankWindow returns [below, below+equal) — the index positions the answer
// can occupy under valid tie-break orderings.
func rankWindow(t *testing.T, q *query.Query, db *relation.Database, f *ranking.Func, a *Answer) (below, equal int, n int) {
	t.Helper()
	answers := testutil.BruteForce(q, db)
	b, e := testutil.RankOf(answers, f, q.Vars(), a.Weight)
	if e == 0 {
		t.Fatalf("returned answer weight %v matches no answer", a.Weight)
	}
	return b, e, len(answers)
}

// checkExact verifies the returned answer is a valid φ-quantile: its rank
// window must contain k = min(⌊φN⌋, N-1).
func checkExact(t *testing.T, q *query.Query, db *relation.Database, f *ranking.Func, phi float64, a *Answer) {
	t.Helper()
	below, equal, n := rankWindow(t, q, db, f, a)
	k64, _ := Index(counting.FromInt(n), phi).Uint64()
	k := int(k64)
	if k < below || k >= below+equal {
		t.Fatalf("φ=%v: k=%d outside rank window [%d,%d) (n=%d, weight %v)",
			phi, k, below, below+equal, n, a.Weight)
	}
	// The answer must be a real query answer.
	found := false
	for _, ans := range testutil.BruteForce(q, db) {
		same := true
		for i := range ans {
			if ans[i] != a.Values[i] {
				same = false
				break
			}
		}
		if same {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("returned %v is not a query answer", a.Values)
	}
}

// checkApprox verifies a (φ±ε)-quantile: the rank window must intersect
// [k-εN, k+εN].
func checkApprox(t *testing.T, q *query.Query, db *relation.Database, f *ranking.Func, phi, eps float64, a *Answer) {
	t.Helper()
	below, equal, n := rankWindow(t, q, db, f, a)
	k64, _ := Index(counting.FromInt(n), phi).Uint64()
	k := float64(k64)
	slack := eps * float64(n)
	lo, hi := float64(below), float64(below+equal-1)
	if hi < k-slack || lo > k+slack {
		t.Fatalf("φ=%v ε=%v: rank window [%v,%v] misses [%v,%v] (n=%d)",
			phi, eps, lo, hi, k-slack, k+slack, n)
	}
}

var phis = []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1}

func TestExactMinMaxRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		q, db := testutil.RandomTreeInstance(rng, 2+rng.Intn(3), 2+rng.Intn(10), 5)
		vars := q.Vars()
		for _, f := range []*ranking.Func{ranking.NewMin(vars...), ranking.NewMax(vars...)} {
			phi := phis[trial%len(phis)]
			a, _, err := Quantile(engines(t, q, db), f, phi, Options{})
			if err == ErrNoAnswers {
				continue
			}
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, f.Agg, err)
			}
			checkExact(t, q, db, f, phi, a)
		}
	}
}

func TestExactMinMaxForcesIterations(t *testing.T) {
	// A low materialization threshold forces the pivot loop to execute.
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 25; trial++ {
		q, db := testutil.RandomStarInstance(rng, 3, 4+rng.Intn(8), 6)
		f := ranking.NewMax(q.Vars()...)
		phi := phis[trial%len(phis)]
		a, stats, err := Quantile(engines(t, q, db), f, phi, Options{MaterializeThreshold: 2})
		if err == ErrNoAnswers {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if stats.Iterations == 0 && stats.Materialized > 2 {
			t.Fatal("threshold ignored")
		}
		checkExact(t, q, db, f, phi, a)
	}
}

func TestExactLexRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 30; trial++ {
		q, db := testutil.RandomPathInstance(rng, 2+rng.Intn(2), 2+rng.Intn(8), 4)
		vars := q.Vars()
		f := ranking.NewLex(vars[0], vars[1])
		phi := phis[trial%len(phis)]
		a, _, err := Quantile(engines(t, q, db), f, phi, Options{MaterializeThreshold: 2})
		if err == ErrNoAnswers {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		checkExact(t, q, db, f, phi, a)
	}
}

func TestExactSumBinaryJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 30; trial++ {
		q, db := testutil.RandomPathInstance(rng, 2, 2+rng.Intn(10), 5)
		f := ranking.NewSum(q.Vars()...)
		phi := phis[trial%len(phis)]
		a, _, err := Quantile(engines(t, q, db), f, phi, Options{MaterializeThreshold: 2})
		if err == ErrNoAnswers {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		checkExact(t, q, db, f, phi, a)
	}
}

func TestExactPartialSum3Path(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for trial := 0; trial < 30; trial++ {
		q, db := testutil.RandomPathInstance(rng, 3, 2+rng.Intn(8), 4)
		f := ranking.NewSum("x1", "x2", "x3")
		phi := phis[trial%len(phis)]
		a, _, err := Quantile(engines(t, q, db), f, phi, Options{MaterializeThreshold: 2})
		if err == ErrNoAnswers {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		checkExact(t, q, db, f, phi, a)
	}
}

func TestExactSumSocialNetwork(t *testing.T) {
	// The intro's example: star join, SUM over two leaf attributes.
	rng := rand.New(rand.NewSource(66))
	for trial := 0; trial < 25; trial++ {
		q, db := testutil.RandomStarInstance(rng, 3, 2+rng.Intn(8), 4)
		f := ranking.NewSum("y1", "y2")
		phi := phis[trial%len(phis)]
		a, _, err := Quantile(engines(t, q, db), f, phi, Options{MaterializeThreshold: 2})
		if err == ErrNoAnswers {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		checkExact(t, q, db, f, phi, a)
	}
}

func TestExactMedianMatchesExample34Indexing(t *testing.T) {
	// |Q(D)| = 1001 must give k = 500 (Example 3.4).
	if k, _ := Index(counting.FromUint64(1001), 0.5).Uint64(); k != 500 {
		t.Fatalf("k = %d, want 500", k)
	}
	if k, _ := Index(counting.FromUint64(10), 1.0).Uint64(); k != 9 {
		t.Fatalf("φ=1 must clamp to N-1, got %d", k)
	}
}

func TestIntractableSumRejected(t *testing.T) {
	q := testutil.PathQuery(3)
	db := relation.NewDatabase()
	for _, a := range q.Atoms {
		db.Add(relation.FromRows(a.Rel, 2, [][]relation.Value{{1, 1}, {2, 2}}))
	}
	f := ranking.NewSum(q.Vars()...) // full SUM on 3-path: hard
	_, _, err := Quantile(engines(t, q, db), f, 0.5, Options{})
	if err != ErrIntractable {
		t.Fatalf("err = %v, want ErrIntractable", err)
	}
	// With ε > 0 it must succeed via the lossy path.
	if _, _, err := Quantile(engines(t, q, db), f, 0.5, Options{Epsilon: 0.2}); err != nil {
		t.Fatalf("approximate path failed: %v", err)
	}
}

func TestApproxSumFullPath3(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 20; trial++ {
		q, db := testutil.RandomPathInstance(rng, 3, 3+rng.Intn(8), 4)
		f := ranking.NewSum(q.Vars()...)
		phi := phis[trial%len(phis)]
		eps := []float64{0.3, 0.15}[trial%2]
		a, _, err := Quantile(engines(t, q, db), f, phi, Options{Epsilon: eps, MaterializeThreshold: 2})
		if err == ErrNoAnswers {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		checkApprox(t, q, db, f, phi, eps, a)
	}
}

func TestApproxSumStar(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	for trial := 0; trial < 15; trial++ {
		q, db := testutil.RandomStarInstance(rng, 3, 3+rng.Intn(6), 3)
		f := ranking.NewSum(q.Vars()...)
		phi := phis[trial%len(phis)]
		a, _, err := Quantile(engines(t, q, db), f, phi, Options{Epsilon: 0.25, ForceLossy: true, MaterializeThreshold: 2})
		if err == ErrNoAnswers {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		checkApprox(t, q, db, f, phi, 0.25, a)
	}
}

func TestSelfJoinQuery(t *testing.T) {
	q := query.New(
		query.Atom{Rel: "E", Vars: []query.Var{"x", "y"}},
		query.Atom{Rel: "E", Vars: []query.Var{"y", "z"}},
	)
	db := relation.NewDatabase()
	db.Add(relation.FromRows("E", 2, [][]relation.Value{{1, 2}, {2, 3}, {3, 1}, {2, 4}}))
	f := ranking.NewSum("x", "y", "z")
	a, _, err := Quantile(engines(t, q, db), f, 0.5, Options{MaterializeThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkExact(t, q, db, f, 0.5, a)
}

func TestCyclicAnswered(t *testing.T) {
	q := query.New(
		query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}},
		query.Atom{Rel: "S", Vars: []query.Var{"y", "z"}},
		query.Atom{Rel: "T", Vars: []query.Var{"z", "x"}},
	)
	db := relation.NewDatabase()
	db.Add(relation.FromRows("R", 2, [][]relation.Value{{1, 2}, {2, 3}, {1, 1}}))
	db.Add(relation.FromRows("S", 2, [][]relation.Value{{2, 3}, {3, 1}, {1, 1}}))
	db.Add(relation.FromRows("T", 2, [][]relation.Value{{3, 1}, {1, 2}, {1, 1}}))
	f := ranking.NewSum("x", "y", "z")
	for _, phi := range []float64{0, 0.5, 1} {
		a, stats, err := Quantile(engines(t, q, db), f, phi, Options{})
		if err != nil {
			t.Fatalf("φ=%v: %v", phi, err)
		}
		checkExact(t, q, db, f, phi, a)
		if stats.Decomp == nil || stats.Decomp.Width != 2 || stats.Decomp.Bags != 2 {
			t.Fatalf("φ=%v: Decomp stats = %+v, want width 2 over 2 bags", phi, stats.Decomp)
		}
	}
	// Acyclic runs carry no decomposition stats.
	aq, adb := testutil.Fig1Instance()
	if _, stats, err := Quantile(engines(t, aq, adb), ranking.NewSum(aq.Vars()[0]), 0.5, Options{}); err != nil || stats.Decomp != nil {
		t.Fatalf("acyclic stats = %+v err = %v, want nil Decomp", stats.Decomp, err)
	}
}

func TestValidationErrors(t *testing.T) {
	q := testutil.PathQuery(2)
	db := relation.NewDatabase()
	for _, a := range q.Atoms {
		db.Add(relation.FromRows(a.Rel, 2, [][]relation.Value{{1, 1}}))
	}
	if _, _, err := Quantile(engines(t, q, db), ranking.NewSum("zz"), 0.5, Options{}); err == nil {
		t.Fatal("unknown ranked variable accepted")
	}
}

func TestEmptyAnswerSet(t *testing.T) {
	q := testutil.PathQuery(2)
	db := relation.NewDatabase()
	db.Add(relation.FromRows("R1", 2, [][]relation.Value{{1, 5}}))
	db.Add(relation.FromRows("R2", 2, [][]relation.Value{{7, 2}}))
	if _, _, err := Quantile(engines(t, q, db), ranking.NewSum("x1"), 0.5, Options{}); err != ErrNoAnswers {
		t.Fatalf("err = %v, want ErrNoAnswers", err)
	}
}

func TestBaselineMatchesDriver(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	for trial := 0; trial < 25; trial++ {
		q, db := testutil.RandomTreeInstance(rng, 2+rng.Intn(2), 2+rng.Intn(8), 4)
		f := ranking.NewMax(q.Vars()...)
		phi := phis[trial%len(phis)]
		b, err := BaselineQuantile(engines(t, q, db)[0], f, phi)
		if err == ErrNoAnswers {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		checkExact(t, q, db, f, phi, b)
		a, _, err := Quantile(engines(t, q, db), f, phi, Options{MaterializeThreshold: 2})
		if err != nil {
			t.Fatal(err)
		}
		// Both must return answers of the same rank window (weights equal).
		if f.Compare(a.Weight, b.Weight) != 0 {
			t.Fatalf("driver weight %v != baseline weight %v", a.Weight, b.Weight)
		}
	}
}

func TestAnswerAccessors(t *testing.T) {
	a := &Answer{Vars: []query.Var{"x", "y"}, Values: []relation.Value{1, 2}}
	if v, ok := a.Get("y"); !ok || v != 2 {
		t.Fatal("Get wrong")
	}
	if _, ok := a.Get("z"); ok {
		t.Fatal("phantom var")
	}
	if a.String() != "{x=1, y=2}" {
		t.Fatalf("String = %q", a.String())
	}
}

func TestCountAPI(t *testing.T) {
	q, db := testutil.Fig1Instance()
	if n, _ := engines(t, q, db)[0].Total().Uint64(); n != 13 {
		t.Fatalf("count = %d", n)
	}
}
