// Differential fuzzing of the columnar execution path (PR 6): randomized
// instances — including self-joins and raw duplicate rows — are answered
// through the columnar engine at several worker counts and checked two ways:
// worker counts must agree byte-for-byte (answers and RunStats), and the
// workers=1 answer must sit at the exact selection index of the row-oriented
// brute-force oracle's ranked answer list. The oracle enumerates answers as
// materialized rows, so any columnar-layout bug that changes which tuples
// exist, their values, or their weights diverges from it.
package qjoin_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/testutil"
	"github.com/quantilejoins/qjoin/internal/workload"
)

// fuzzInstance is one randomized (query, database, rankings) triple.
type fuzzInstance struct {
	name  string
	q     *qjoin.Query
	db    *qjoin.DB
	ranks []*qjoin.Ranking
}

// fuzzInstances wraps the differential corpus of internal/testutil — shared
// with the pivot loop's own differential in internal/core — in the public
// types.
func fuzzInstances(rng *rand.Rand) []fuzzInstance {
	var out []fuzzInstance
	for _, inst := range testutil.FuzzCorpus(rng) {
		out = append(out, fuzzInstance{inst.Name, inst.Q, qjoin.WrapDB(inst.DB), inst.Ranks})
	}
	return out
}

// TestColumnarDifferentialFuzz is the PR 6 differential: columnar engine vs
// row-oriented brute force, across rankings x phi grid x Parallelism.
func TestColumnarDifferentialFuzz(t *testing.T) {
	phis := []float64{0, 0.25, 0.5, 0.9, 1}
	rng := rand.New(rand.NewSource(616))
	for _, inst := range fuzzInstances(rng) {
		inst := inst
		t.Run(inst.name, func(t *testing.T) {
			oracle := testutil.BruteForce(inst.q, inst.db.Unwrap())
			if len(oracle) == 0 {
				t.Fatal("fuzz instance has no answers; widen the domain")
			}
			n := len(oracle)

			plans := make(map[int]*qjoin.Prepared)
			for _, w := range []int{1, 2, 8} {
				p, err := qjoin.Prepare(inst.q, inst.db, qjoin.Options{Parallelism: w})
				if err != nil {
					t.Fatal(err)
				}
				plans[w] = p
			}
			if got := plans[1].Count().Int64(); got != int64(n) {
				t.Fatalf("|Q(D)| = %d, brute force %d", got, n)
			}

			for ri, f := range inst.ranks {
				for _, phi := range phis {
					a1, s1, err := plans[1].QuantileStats(f, phi)
					if err != nil {
						t.Fatalf("rank %d φ=%v: %v", ri, phi, err)
					}
					for _, w := range []int{2, 8} {
						a, s, err := plans[w].QuantileStats(f, phi)
						if err != nil {
							t.Fatalf("rank %d φ=%v workers=%d: %v", ri, phi, w, err)
						}
						if !reflect.DeepEqual(a, a1) {
							t.Errorf("rank %d φ=%v workers=%d: answer %v diverged from %v", ri, phi, w, a, a1)
						}
						if !reflect.DeepEqual(s, s1) {
							t.Errorf("rank %d φ=%v workers=%d: RunStats diverged: %+v vs %+v", ri, phi, w, s, s1)
						}
					}

					// Oracle check: the answer must be a real query answer
					// whose weight sits at index k = min(⌊φ·n⌋, n-1) of the
					// ranked brute-force list (any tie-break).
					k := int(float64(n) * phi)
					if k >= n {
						k = n - 1
					}
					below, equal := testutil.RankOf(oracle, f, inst.q.Vars(), a1.Weight)
					if k < below || k >= below+equal {
						t.Errorf("rank %d φ=%v: weight %v occupies ranks [%d,%d), want index %d of %d",
							ri, phi, a1.Weight, below, below+equal, k, n)
					}
					found := false
					for _, row := range oracle {
						same := true
						for i := range row {
							if row[i] != a1.Values[i] {
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
						t.Errorf("rank %d φ=%v: %v is not a brute-force answer", ri, phi, a1.Values)
					}
				}
			}
		})
	}
}

// TestApplyDeltaOverlayRace drives the copy-on-write column overlay under
// -race: while concurrent readers keep answering from the base plan's
// columns, a chain of ApplyDelta updates derives new plans from those same
// columns, and each derived plan is queried concurrently too. Finally the
// chained plan is checked byte-identical against a fresh Prepare of the
// mutated database — overlay reads and overlay construction must neither
// race nor diverge.
func TestApplyDeltaOverlayRace(t *testing.T) {
	rng := rand.New(rand.NewSource(617))
	q, idb := workload.Path(rng, 2, 700, 35)
	db := qjoin.WrapDB(idb)
	f := qjoin.Sum(q.Vars()...)
	phis := []float64{0.25, 0.5, 0.75}

	base, err := qjoin.Prepare(q, db, qjoin.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	baseWant := make([]*qjoin.Answer, len(phis))
	for i, phi := range phis {
		if baseWant[i], err = base.Quantile(f, phi); err != nil {
			t.Fatal(err)
		}
	}

	// Deltas are generated up front on the single rng; goroutines only read.
	const rounds = 4
	names := db.Relations()
	deltas := make([]*qjoin.Delta, rounds)
	cur := db
	for r := range deltas {
		deltas[r] = randomDelta(rng, cur.Unwrap(), names, 20, 35)
		if cur, err = cur.Apply(deltas[r]); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, phi := range phis {
					a, err := base.Quantile(f, phi)
					if err != nil || !reflect.DeepEqual(a, baseWant[i]) {
						t.Errorf("base reader diverged: %v %v", a, err)
						return
					}
				}
			}
		}()
	}

	p := base
	var derived sync.WaitGroup
	for r := 0; r < rounds; r++ {
		if p, err = p.Update(deltas[r]); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		p := p
		derived.Add(1)
		go func() {
			defer derived.Done()
			if _, err := p.Median(f); err != nil {
				t.Error(err)
			}
		}()
	}
	derived.Wait()
	close(stop)
	readers.Wait()

	fresh, err := qjoin.Prepare(q, cur, qjoin.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, phi := range phis {
		got, gs, err := p.QuantileStats(f, phi)
		if err != nil {
			t.Fatal(err)
		}
		want, ws, err := fresh.QuantileStats(f, phi)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gs, ws) {
			t.Errorf("φ=%v: chained overlay plan diverged from fresh Prepare: %v vs %v", phi, got, want)
		}
	}
}
