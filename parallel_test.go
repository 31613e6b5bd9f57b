// Tests of Options.Parallelism, which has no effect: byte-identical answers
// and run statistics at every value, and race-free concurrent readers of one
// plan.
package qjoin_test

import (
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/workload"
)

// parallelGridCases builds one workload per trim construction: MIN/MAX and
// LEX (partition-identifier trims), full SUM on the binary join and partial
// SUM on the 3-path (adjacent-pair staircase trim), plus an approximate
// full-SUM 3-path instance (lossy sketch trim).
func parallelGridCases() []struct {
	name string
	q    *qjoin.Query
	db   *qjoin.DB
	f    *qjoin.Ranking
	eps  float64
} {
	var cases []struct {
		name string
		q    *qjoin.Query
		db   *qjoin.DB
		f    *qjoin.Ranking
		eps  float64
	}
	add := func(name string, q *qjoin.Query, db *qjoin.DB, f *qjoin.Ranking, eps float64) {
		cases = append(cases, struct {
			name string
			q    *qjoin.Query
			db   *qjoin.DB
			f    *qjoin.Ranking
			eps  float64
		}{name, q, db, f, eps})
	}

	rng := rand.New(rand.NewSource(21))
	q1, idb1 := workload.Path(rng, 2, 4096, 256)
	add("sum-binary", q1, qjoin.WrapDB(idb1), qjoin.Sum(q1.Vars()...), 0)

	q2, idb2 := workload.Path(rng, 3, 2048, 128)
	add("partial-sum-3path", q2, qjoin.WrapDB(idb2), qjoin.Sum("x1", "x2", "x3"), 0)

	q3, idb3 := workload.Star(rng, 3, 4096, 260, 1_000_000)
	add("max-star", q3, qjoin.WrapDB(idb3), qjoin.Max(q3.Vars()...), 0)
	add("min-star", q3, qjoin.WrapDB(idb3), qjoin.Min(q3.Vars()...), 0)

	q4, idb4 := workload.Path(rng, 2, 4096, 256)
	add("lex-binary", q4, qjoin.WrapDB(idb4), qjoin.Lex("x1", "x3"), 0)

	q5, idb5 := workload.Path(rng, 3, 400, 50)
	add("approx-sum-3path", q5, qjoin.WrapDB(idb5), qjoin.Sum(q5.Vars()...), 0.25)
	return cases
}

// TestParallelDeterminism runs the full quantile grid on plans prepared at
// Parallelism 1, 2 and 8 and asserts byte-identical answers and identical
// RunStats: the deprecated option changes nothing.
func TestParallelDeterminism(t *testing.T) {
	phis := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1}
	for _, tc := range parallelGridCases() {
		t.Run(tc.name, func(t *testing.T) {
			type result struct {
				ans   *qjoin.Answer
				stats *qjoin.RunStats
			}
			baseline := make([]result, len(phis))
			seq, err := qjoin.Prepare(tc.q, tc.db, qjoin.Options{Parallelism: 1, Epsilon: tc.eps})
			if err != nil {
				t.Fatal(err)
			}
			for i, phi := range phis {
				a, s, err := seq.QuantileStats(tc.f, phi)
				if err != nil {
					t.Fatalf("φ=%v sequential: %v", phi, err)
				}
				baseline[i] = result{a, s}
			}
			for _, workers := range []int{2, 8} {
				p, err := qjoin.Prepare(tc.q, tc.db, qjoin.Options{Parallelism: workers, Epsilon: tc.eps})
				if err != nil {
					t.Fatal(err)
				}
				if p.Count().Cmp(seq.Count()) != 0 {
					t.Fatalf("workers=%d: |Q(D)| = %s, sequential %s", workers, p.Count(), seq.Count())
				}
				for i, phi := range phis {
					a, s, err := p.QuantileStats(tc.f, phi)
					if err != nil {
						t.Fatalf("φ=%v workers=%d: %v", phi, workers, err)
					}
					if !reflect.DeepEqual(a, baseline[i].ans) {
						t.Errorf("φ=%v workers=%d: answer %v diverged from sequential %v",
							phi, workers, a, baseline[i].ans)
					}
					if !reflect.DeepEqual(s, baseline[i].stats) {
						t.Errorf("φ=%v workers=%d: RunStats %+v diverged from sequential %+v",
							phi, workers, s, baseline[i].stats)
					}
				}
			}
		})
	}
}

// TestParallelDeterminismSelect covers the selection entry point at a few
// absolute indexes across Parallelism values.
func TestParallelDeterminismSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	q, idb := workload.Path(rng, 2, 2048, 128)
	db := qjoin.WrapDB(idb)
	f := qjoin.Sum(q.Vars()...)
	seq, err := qjoin.Prepare(q, db, qjoin.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := seq.Count()
	for _, workers := range []int{2, 8} {
		p, err := qjoin.Prepare(q, db, qjoin.Options{Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		quarter := new(big.Int).Div(n, big.NewInt(4))
		for _, m := range []int64{0, 1, 2, 3} {
			k := new(big.Int).Mul(quarter, big.NewInt(m))
			want, err := seq.SelectAt(f, k)
			if err != nil {
				t.Fatalf("k=%s sequential: %v", k, err)
			}
			got, err := p.SelectAt(f, k)
			if err != nil {
				t.Fatalf("k=%s workers=%d: %v", k, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("k=%s workers=%d: %v diverged from sequential %v", k, workers, got, want)
			}
		}
	}
}

// TestPreparedConcurrentParallel is a -race stress test: concurrent readers
// of one Prepared plan must agree with the answers one reader gets alone.
func TestPreparedConcurrentParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	q, idb := workload.Path(rng, 2, 2048, 128)
	db := qjoin.WrapDB(idb)
	f := qjoin.Sum(q.Vars()...)
	phis := []float64{0.1, 0.25, 0.5, 0.75, 0.9}

	seq, err := qjoin.Prepare(q, db, qjoin.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*qjoin.Answer, len(phis))
	for i, phi := range phis {
		if want[i], err = seq.Quantile(f, phi); err != nil {
			t.Fatal(err)
		}
	}

	p, err := qjoin.Prepare(q, db)
	if err != nil {
		t.Fatal(err)
	}
	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan error, readers*len(phis))
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i, phi := range phis {
				a, err := p.Quantile(f, phi)
				if err != nil {
					errs <- fmt.Errorf("reader %d φ=%v: %w", r, phi, err)
					return
				}
				if !reflect.DeepEqual(a, want[i]) {
					errs <- fmt.Errorf("reader %d φ=%v: answer diverged", r, phi)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
