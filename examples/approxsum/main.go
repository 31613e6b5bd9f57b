// Deterministic and randomized ε-approximate quantiles (Theorem 6.2 and
// Section 3.1) on a query where exact SUM quantiles are conditionally
// intractable: full SUM over the 3-path R1(x1,x2), R2(x2,x3), R3(x3,x4).
//
//	go run ./examples/approxsum
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/workload"
)

func main() {
	rng := rand.New(rand.NewSource(11))
	q, idb := workload.Path(rng, 3, 2000, 64)
	db := qjoin.WrapDB(idb)
	f := qjoin.Sum("x1", "x2", "x3", "x4")
	phi := 0.5

	if ok, why := qjoin.ClassifyRanking(q, f); ok {
		log.Fatal("expected intractable, got: ", why)
	} else {
		fmt.Println("classification:", why)
	}
	if _, err := qjoin.Quantile(q, db, f, phi); err != qjoin.ErrIntractable {
		log.Fatal("exact driver should have refused: ", err)
	}

	n, _ := qjoin.Count(q, db)
	fmt.Printf("database: %d tuples; join answers: %s\n", db.Size(), n)

	// Ground truth via the (expensive) baseline, for error reporting only.
	truth, err := qjoin.BaselineQuantile(q, db, f, phi)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("true median weight (baseline): %d\n\n", truth.Weight.K)

	plan, err := qjoin.Prepare(q, db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("deterministic ε-approximation (pivoting + lossy trims on one prepared plan):")
	for _, eps := range []float64{0.4, 0.2, 0.1} {
		start := time.Now()
		a, err := plan.Answer(f, qjoin.QuantileRequest{Phi: phi, Eps: eps, Mode: qjoin.ModeExact})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  ε=%.2f → weight %6d   (%8v)\n", eps, a.Weight.K, time.Since(start).Round(time.Millisecond))
	}

	fmt.Println("\nrandomized approximation (uniform sampling on the same plan, δ=0.05):")
	for _, eps := range []float64{0.2, 0.1, 0.05} {
		start := time.Now()
		a, err := plan.Answer(f, qjoin.QuantileRequest{Phi: phi, Eps: eps, Delta: 0.05, Mode: qjoin.ModeSample, Rand: rng})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  ε=%.2f → weight %6d   (%8v)\n", eps, a.Weight.K, time.Since(start).Round(time.Millisecond))
	}
}
