package core

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/testutil"
)

func TestSampleQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	fails := 0
	trials := 25
	for trial := 0; trial < trials; trial++ {
		q, db := testutil.RandomPathInstance(rng, 3, 4+rng.Intn(8), 4)
		f := ranking.NewSum(q.Vars()...)
		phi := []float64{0.25, 0.5, 0.75}[trial%3]
		eps := 0.2
		a, err := SampleQuantile(engines(t, q, db)[0], f, phi, eps, 0.05, rng)
		if err == ErrNoAnswers {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		// Count violations; with δ = 0.05 they must be rare.
		answers := testutil.BruteForce(q, db)
		below, equal := testutil.RankOf(answers, f, q.Vars(), a.Weight)
		n := len(answers)
		k64, _ := Index(counting.FromInt(n), phi).Uint64()
		k, slack := float64(k64), eps*float64(n)
		lo, hi := float64(below), float64(below+equal-1)
		if hi < k-slack || lo > k+slack {
			fails++
		}
	}
	if fails > 2 {
		t.Fatalf("%d of %d randomized runs violated the ε bound", fails, trials)
	}
}

func TestSampleQuantileValidation(t *testing.T) {
	q := testutil.PathQuery(2)
	db := relation.NewDatabase()
	for _, a := range q.Atoms {
		db.Add(relation.FromRows(a.Rel, 2, [][]relation.Value{{1, 1}}))
	}
	rng := rand.New(rand.NewSource(1))
	f := ranking.NewSum("x1")
	if _, err := SampleQuantile(engines(t, q, db)[0], f, 0.5, 0, 0.1, rng); err == nil {
		t.Fatal("ε = 0 accepted")
	}
	if _, err := SampleQuantile(engines(t, q, db)[0], f, 0.5, 0.1, 0, rng); err == nil {
		t.Fatal("δ = 0 accepted")
	}
	for _, eps := range []float64{1e-7, 1e-10, 0.0022} {
		if _, err := SampleQuantile(engines(t, q, db)[0], f, 0.5, eps, 0.1, rng); !errors.Is(err, ErrTooManySamples) {
			t.Fatalf("ε = %v: err = %v, want ErrTooManySamples", eps, err)
		}
	}
}

func TestSampleQuantileEmpty(t *testing.T) {
	q := testutil.PathQuery(2)
	db := relation.NewDatabase()
	db.Add(relation.FromRows("R1", 2, [][]relation.Value{{1, 5}}))
	db.Add(relation.FromRows("R2", 2, [][]relation.Value{{9, 1}}))
	rng := rand.New(rand.NewSource(1))
	if _, err := SampleQuantile(engines(t, q, db)[0], ranking.NewSum("x1"), 0.5, 0.2, 0.1, rng); err != ErrNoAnswers {
		t.Fatalf("err = %v", err)
	}
}

func TestSampleQuantileWorksOnMinMax(t *testing.T) {
	// Sampling is ranking-agnostic; it must work for MIN too.
	rng := rand.New(rand.NewSource(72))
	q, db := testutil.RandomStarInstance(rng, 3, 10, 5)
	f := ranking.NewMin(q.Vars()...)
	if _, err := SampleQuantile(engines(t, q, db)[0], f, 0.5, 0.2, 0.1, rng); err != nil && err != ErrNoAnswers {
		t.Fatal(err)
	}
}
