package qjoin_test

import (
	"math/big"
	"math/rand"
	"testing"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/workload"
)

// TestCrossDriverConsistency runs every applicable driver on a matrix of
// workloads and rankings and cross-checks them:
//
//   - exact pivoting == materialization baseline (equal answer weights),
//   - SelectAt(Index(N, φ)) == Quantile(φ),
//   - the first RankedEnumerate answer == Quantile(0) == TopK(1),
//   - the deterministic (ModeExact with ε) and sampling approximations within
//     ε of the baseline's rank.
func TestCrossDriverConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(2023))
	type workloadCase struct {
		name string
		mk   func() (*qjoin.Query, *qjoin.DB)
		rank func(q *qjoin.Query) *qjoin.Ranking
	}
	cases := []workloadCase{
		{
			name: "star3-max",
			mk: func() (*qjoin.Query, *qjoin.DB) {
				q, db := workload.Star(rng, 3, 60, 8, 50)
				return q, qjoin.WrapDB(db)
			},
			rank: func(q *qjoin.Query) *qjoin.Ranking { return qjoin.Max(q.Vars()...) },
		},
		{
			name: "star3-min",
			mk: func() (*qjoin.Query, *qjoin.DB) {
				q, db := workload.Star(rng, 3, 60, 8, 50)
				return q, qjoin.WrapDB(db)
			},
			rank: func(q *qjoin.Query) *qjoin.Ranking { return qjoin.Min(q.Vars()...) },
		},
		{
			name: "path3-partialsum",
			mk: func() (*qjoin.Query, *qjoin.DB) {
				q, db := workload.Path(rng, 3, 60, 8)
				return q, qjoin.WrapDB(db)
			},
			rank: func(q *qjoin.Query) *qjoin.Ranking { return qjoin.Sum("x1", "x2", "x3") },
		},
		{
			name: "path2-fullsum",
			mk: func() (*qjoin.Query, *qjoin.DB) {
				q, db := workload.Path(rng, 2, 80, 10)
				return q, qjoin.WrapDB(db)
			},
			rank: func(q *qjoin.Query) *qjoin.Ranking { return qjoin.Sum(q.Vars()...) },
		},
		{
			name: "hierarchy-lex",
			mk: func() (*qjoin.Query, *qjoin.DB) {
				q, db := workload.Hierarchy(rng, 60, 8)
				return q, qjoin.WrapDB(db)
			},
			rank: func(q *qjoin.Query) *qjoin.Ranking { return qjoin.Lex("x3", "x5") },
		},
		{
			name: "social-network",
			mk: func() (*qjoin.Query, *qjoin.DB) {
				sn := workload.NewSocialNetwork(rng, 120, 10, 100)
				return sn.Q, qjoin.WrapDB(sn.DB)
			},
			rank: func(q *qjoin.Query) *qjoin.Ranking { return qjoin.Sum("l2", "l3") },
		},
	}
	for _, wc := range cases {
		t.Run(wc.name, func(t *testing.T) {
			q, db := wc.mk()
			f := wc.rank(q)
			n, err := qjoin.Count(q, db)
			if err != nil {
				t.Fatal(err)
			}
			if n.Sign() == 0 {
				t.Skip("empty instance")
			}
			for _, phi := range []float64{0, 0.3, 0.5, 0.8, 1} {
				a, err := qjoin.Quantile(q, db, f, phi, qjoin.Options{MaterializeThreshold: 4})
				if err != nil {
					t.Fatalf("φ=%v: %v", phi, err)
				}
				b, err := qjoin.BaselineQuantile(q, db, f, phi)
				if err != nil {
					t.Fatal(err)
				}
				if f.Compare(a.Weight, b.Weight) != 0 {
					t.Fatalf("φ=%v: pivoting weight %v != baseline %v", phi, a.Weight, b.Weight)
				}
				// Selection at the equivalent index.
				k := indexOf(n, phi)
				s, err := qjoin.SelectAt(q, db, f, k, qjoin.Options{MaterializeThreshold: 4})
				if err != nil {
					t.Fatal(err)
				}
				if f.Compare(s.Weight, a.Weight) != 0 {
					t.Fatalf("φ=%v: select weight %v != quantile %v", phi, s.Weight, a.Weight)
				}
			}
			// Minimum answer: quantile(0) == ranked stream head == top-1.
			minQ, _ := qjoin.Quantile(q, db, f, 0, qjoin.Options{MaterializeThreshold: 4})
			top, err := qjoin.TopK(q, db, f, 1)
			if err != nil || len(top) != 1 {
				t.Fatalf("top-1: %v (%d answers)", err, len(top))
			}
			if f.Compare(top[0].Weight, minQ.Weight) != 0 {
				t.Fatalf("top-1 weight %v != quantile(0) %v", top[0].Weight, minQ.Weight)
			}
			// Ranked stream is sorted and has exactly N answers.
			stream, err := qjoin.RankedEnumerate(q, db, f)
			if err != nil {
				t.Fatal(err)
			}
			var prev *qjoin.Answer
			count := big.NewInt(0)
			for {
				a, ok := stream.Next()
				if !ok {
					break
				}
				if prev != nil && f.Compare(prev.Weight, a.Weight) > 0 {
					t.Fatal("ranked stream out of order")
				}
				prev = a
				count.Add(count, big.NewInt(1))
			}
			if count.Cmp(n) != 0 {
				t.Fatalf("ranked stream yielded %s answers, count says %s", count, n)
			}
			// Randomized approximation sanity (loose ε, fixed seed).
			if _, err := qjoin.SampleQuantile(q, db, f, 0.5, 0.3, 0.1, rng); err != nil {
				t.Fatalf("sampling: %v", err)
			}
		})
	}
}

// indexOf mirrors core.Index for big.Int: min(⌊φ·N⌋, N−1).
func indexOf(n *big.Int, phi float64) *big.Int {
	num := new(big.Int).Mul(n, big.NewInt(int64(phi*1_000_000)))
	num.Div(num, big.NewInt(1_000_000))
	limit := new(big.Int).Sub(n, big.NewInt(1))
	if num.Cmp(limit) > 0 {
		return limit
	}
	return num
}

// TestApproxVsBaselineIntegration validates the deterministic approximation
// end-to-end on the public API against the baseline's exact rank.
func TestApproxVsBaselineIntegration(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	q, idb := workload.Path(rng, 3, 80, 10)
	db := qjoin.WrapDB(idb)
	f := qjoin.Sum(q.Vars()...)
	n, err := qjoin.Count(q, db)
	if err != nil || n.Sign() == 0 {
		t.Skip("empty")
	}
	eps := 0.2
	p, err := qjoin.Prepare(q, db)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Answer(f, qjoin.QuantileRequest{Phi: 0.5, Eps: eps, Mode: qjoin.ModeExact})
	if err != nil {
		t.Fatal(err)
	}
	// Count exact ranks of the returned weight by enumerating.
	var below, equal int64
	if err := qjoin.Enumerate(q, db, func(vars []qjoin.Var, vals []int64) bool {
		w := f.AnswerWeight(vars, vals)
		switch f.Compare(w, a.Weight) {
		case -1:
			below++
		case 0:
			equal++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	total := n.Int64()
	k := total / 2
	slack := int64(float64(total)*eps) + 1
	if below > k+slack || below+equal-1 < k-slack {
		t.Fatalf("approx answer rank window [%d,%d] misses k=%d ± %d", below, below+equal-1, k, slack)
	}
}
