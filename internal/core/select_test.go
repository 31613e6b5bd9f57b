package core

import (
	"math/rand"
	"testing"

	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/testutil"
)

// Select must agree with the sorted brute-force order at every index
// (modulo tie windows).
func TestSelectAllIndexes(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 15; trial++ {
		q, db := testutil.RandomStarInstance(rng, 2, 2+rng.Intn(6), 4)
		f := ranking.NewMax(q.Vars()...)
		answers := testutil.BruteForce(q, db)
		if len(answers) == 0 {
			continue
		}
		for k := 0; k < len(answers); k++ {
			a, _, err := Select(engines(t, q, db), f, counting.FromInt(k), Options{MaterializeThreshold: 1})
			if err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			below, equal := testutil.RankOf(answers, f, q.Vars(), a.Weight)
			if k < below || k >= below+equal {
				t.Fatalf("k=%d outside window [%d,%d)", k, below, below+equal)
			}
		}
	}
}

func TestSelectOutOfRange(t *testing.T) {
	q, db := testutil.Fig1Instance()
	f := ranking.NewMin(q.Vars()...)
	if _, _, err := Select(engines(t, q, db), f, counting.FromInt(13), Options{}); err == nil {
		t.Fatal("index 13 of 13 answers accepted")
	}
	if _, _, err := Select(engines(t, q, db), f, counting.FromInt(12), Options{}); err != nil {
		t.Fatalf("last index rejected: %v", err)
	}
}

// Selection and quantile must be consistent: Select(Index(N, φ)) and
// Quantile(φ) return answers with equal weights.
func TestSelectQuantileEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 20; trial++ {
		q, db := testutil.RandomPathInstance(rng, 2, 2+rng.Intn(8), 4)
		f := ranking.NewSum(q.Vars()...)
		total := engines(t, q, db)[0].Total()
		if total.IsZero() {
			continue
		}
		phi := phis[trial%len(phis)]
		qa, _, err := Quantile(engines(t, q, db), f, phi, Options{MaterializeThreshold: 2})
		if err != nil {
			t.Fatal(err)
		}
		sa, _, err := Select(engines(t, q, db), f, Index(total, phi), Options{MaterializeThreshold: 2})
		if err != nil {
			t.Fatal(err)
		}
		if f.Compare(qa.Weight, sa.Weight) != 0 {
			t.Fatalf("φ=%v: quantile weight %v != select weight %v", phi, qa.Weight, sa.Weight)
		}
	}
}

// Custom weight functions flow through the whole driver.
func TestQuantileCustomWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 15; trial++ {
		q, db := testutil.RandomStarInstance(rng, 2, 2+rng.Intn(8), 5)
		f := ranking.NewMax(q.Vars()...)
		f.Weight = func(v query.Var, x relation.Value) int64 { return -x } // invert order
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

// A duplicate-heavy database must behave identically to its deduplicated
// form (relations are sets).
func TestQuantileDuplicateRows(t *testing.T) {
	q := testutil.PathQuery(2)
	db := relation.NewDatabase()
	db.Add(relation.FromRows("R1", 2, [][]relation.Value{{1, 2}, {1, 2}, {1, 2}, {3, 4}}))
	db.Add(relation.FromRows("R2", 2, [][]relation.Value{{2, 7}, {2, 7}, {4, 1}}))
	f := ranking.NewSum(q.Vars()...)
	a, stats, err := Quantile(engines(t, q, db), f, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Answers: (1,2,7)=10 and (3,4,1)=8 -> k = 1 -> weight 10.
	if n, _ := stats.Count.Uint64(); n != 2 {
		t.Fatalf("count with duplicates = %d, want 2", n)
	}
	if a.Weight.K != 10 {
		t.Fatalf("median = %d", a.Weight.K)
	}
}

// MaxIterations must abort rather than loop forever.
func TestMaxIterationsGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	q, db := testutil.RandomStarInstance(rng, 3, 40, 4)
	f := ranking.NewMax(q.Vars()...)
	_, _, err := Quantile(engines(t, q, db), f, 0.5, Options{MaterializeThreshold: 1, MaxIterations: 1})
	if err != ErrTooManyIterations && err != ErrNoAnswers && err != nil {
		t.Fatalf("unexpected error %v", err)
	}
}
