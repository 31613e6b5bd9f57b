// The first reads of a plan: on a selective join Algorithm 1 materializes at
// iteration 0, from the tree and the counts the plan already holds, and ranked
// enumeration and sampling read that same tree by those same counts — no
// reader builds a second tree. These tests hold the public API to the
// brute-force oracle on such plans, fresh and after updates.
package qjoin_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/testutil"
	"github.com/quantilejoins/qjoin/internal/workload"
)

// selectivePlans compiles instances with |Q(D)| ≤ |D| as an unrouted, a
// 3-shard and a decomposed (triangle) plan.
func selectivePlans(t *testing.T, rng *rand.Rand) map[string]struct {
	p *qjoin.Prepared
	f *qjoin.Ranking
} {
	t.Helper()
	pq, pdb := workload.Path(rng, 3, 600, 1200)
	flat, err := qjoin.Prepare(pq, qjoin.WrapDB(pdb))
	if err != nil {
		t.Fatal(err)
	}
	routed, err := qjoin.PrepareSharded(pq, qjoin.WrapDB(pdb), 3)
	if err != nil {
		t.Fatal(err)
	}
	tdb := qjoin.NewDB()
	for _, name := range []string{"R", "S", "T"} {
		tdb.MustAdd(name, 2, randomEdges(rng, 300, 40))
	}
	tri, err := qjoin.Prepare(triangleQuery(), tdb)
	if err != nil {
		t.Fatal(err)
	}
	type pf = struct {
		p *qjoin.Prepared
		f *qjoin.Ranking
	}
	return map[string]pf{
		"unrouted":   {flat, qjoin.Sum("x1", "x2", "x3")},
		"3-shard":    {routed, qjoin.Sum("x1", "x2", "x3")},
		"decomposed": {tri, qjoin.Max("x", "y", "z")},
	}
}

// atOracleRank checks that a is an answer of the oracle list whose weight
// covers index min(⌊φ·n⌋, n−1) of the ranked list.
func atOracleRank(t *testing.T, label string, oracle [][]int64, q *qjoin.Query, f *qjoin.Ranking, phi float64, a *qjoin.Answer) {
	t.Helper()
	n := len(oracle)
	k := min(int(float64(n)*phi), n-1)
	if below, equal := testutil.RankOf(oracle, f, q.Vars(), a.Weight); k < below || k >= below+equal {
		t.Fatalf("%s: weight %v covers ranks [%d,%d), want index %d of %d", label, a.Weight, below, below+equal, k, n)
	}
	for _, row := range oracle {
		if fmt.Sprint(row) == fmt.Sprint(a.Values) {
			return
		}
	}
	t.Fatalf("%s: %v is not a brute-force answer", label, a.Values)
}

// Exact reads and TopK on selective plans — unrouted, 3-shard and decomposed —
// answer as brute force does. None of them builds a reduction: there is none
// to build, every reader walks the engine's own tree by its counts.
func TestExactReadsNeverBuildTheReduction(t *testing.T) {
	for name, c := range selectivePlans(t, rand.New(rand.NewSource(15))) {
		t.Run(name, func(t *testing.T) {
			p, f := c.p, c.f
			oracle := testutil.BruteForce(p.Query(), p.DB().Unwrap())
			if len(oracle) == 0 {
				t.Fatal("instance has no answers")
			}
			a, err := p.Median(f)
			if err != nil {
				t.Fatal(err)
			}
			atOracleRank(t, "median", oracle, p.Query(), f, 0.5, a)
			for _, phi := range []float64{0, 0.3, 1} {
				if a, err = p.Quantile(f, phi); err != nil {
					t.Fatal(err)
				}
				atOracleRank(t, fmt.Sprintf("φ=%v", phi), oracle, p.Query(), f, phi, a)
			}
			a, stats, err := p.AnswerStats(f, qjoin.QuantileRequest{Phi: 0.7, Mode: qjoin.ModeExact})
			if err != nil {
				t.Fatal(err)
			}
			atOracleRank(t, "φ=0.7", oracle, p.Query(), f, 0.7, a)
			if stats.Iterations != 0 || stats.Materialized != len(oracle) {
				t.Fatalf("the instance is meant to materialize at iteration 0: %+v", *stats)
			}
			checkTopK(t, "TopK", oracle, p, f, 5)
		})
	}
}

// checkTopK holds p.TopK(f, k) to the k lowest weights of the brute-force
// answers.
func checkTopK(t *testing.T, label string, oracle [][]int64, p *qjoin.Prepared, f *qjoin.Ranking, k int) {
	t.Helper()
	top, err := p.TopK(f, k)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sorted := append([][]int64(nil), oracle...)
	testutil.SortByWeight(sorted, f, p.Query().Vars())
	if want := min(k, len(sorted)); len(top) != want {
		t.Fatalf("%s: %d answers, want %d", label, len(top), want)
	}
	for i, a := range top {
		if w := f.AnswerWeight(p.Query().Vars(), sorted[i]); f.Compare(a.Weight, w) != 0 {
			t.Fatalf("%s: answer %d weighs %v, the brute-force %d-th lowest %v", label, i, a.Weight, i, w)
		}
		if f.Compare(a.Weight, f.AnswerWeight(p.Query().Vars(), a.Values)) != 0 {
			t.Fatalf("%s: answer %d: %v does not weigh %v", label, i, a.Values, a.Weight)
		}
	}
}

// An update that changes the set view hands the derived engine counts kept
// current by delta counting; its first exact read walks the derived tree by
// them, and so do its ranked enumeration and its direct-access index, which
// answer as a fresh compile's do.
func TestFirstExactReadAfterUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for name, c := range selectivePlans(t, rng) {
		t.Run(name, func(t *testing.T) {
			plan := c.p
			names := plan.DB().Unwrap().Names()
			for gen := 0; gen < 5; gen++ {
				next, err := plan.UpdatePlan(randomDelta(rng, plan.DB().Unwrap(), names, 40, 40))
				if err != nil {
					t.Fatal(err)
				}
				plan = next
				oracle := testutil.BruteForce(plan.Query(), plan.DB().Unwrap())
				if got := plan.Count().Int64(); got != int64(len(oracle)) || got == 0 {
					t.Fatalf("gen %d: |Q(D)| = %d, brute force %d", gen, got, len(oracle))
				}
				for _, phi := range []float64{0.5, 0, 0.25, 1} {
					a, err := plan.Quantile(c.f, phi)
					if err != nil {
						t.Fatalf("gen %d φ=%v: %v", gen, phi, err)
					}
					atOracleRank(t, fmt.Sprintf("gen %d φ=%v", gen, phi), oracle, plan.Query(), c.f, phi, a)
				}
				checkTopK(t, fmt.Sprintf("gen %d TopK", gen), oracle, plan, c.f, 5)
				sameReaders(t, fmt.Sprintf("gen %d", gen), plan, c.f)
			}
		})
	}
}

// sameReaders holds the ranked and sampling readers of a plan to those of a
// fresh compile of its database at the same shard count: the same TopK and,
// from equal seeds, the same samples (or the same refusal, on a routed plan).
func sameReaders(t *testing.T, label string, p *qjoin.Prepared, f *qjoin.Ranking) {
	t.Helper()
	fresh, err := qjoin.Prepare(p.Query(), p.DB())
	if p.Shards() > 1 {
		fresh, err = qjoin.PrepareSharded(p.Query(), p.DB(), p.Shards())
	}
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.TopK(f, 7)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := fresh.TopK(f, 7); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: TopK %v, a fresh compile's %v (%v)", label, got, want, err)
	}
	_, rows, err := p.SampleAnswers(20, rand.New(rand.NewSource(5)))
	_, want, werr := fresh.SampleAnswers(20, rand.New(rand.NewSource(5)))
	var ae, we *qjoin.ArgError
	if errors.As(err, &ae) != errors.As(werr, &we) || (err == nil) != (werr == nil) || !reflect.DeepEqual(rows, want) {
		t.Fatalf("%s: SampleAnswers %v (%v), a fresh compile's %v (%v)", label, rows, err, want, werr)
	}
}
