package qjoin_test

import (
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"testing"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/testutil"
)

// socialDB builds a tiny social network (the paper's introduction example).
func socialDB() (*qjoin.Query, *qjoin.DB) {
	q := qjoin.NewQuery(
		qjoin.NewAtom("Admin", "u1", "e"),
		qjoin.NewAtom("Share", "u2", "e", "l2"),
		qjoin.NewAtom("Attend", "u3", "e", "l3"),
	)
	db := qjoin.NewDB()
	db.MustAdd("Admin", 2, [][]int64{{100, 1}, {101, 2}})
	db.MustAdd("Share", 3, [][]int64{{200, 1, 5}, {201, 1, 3}, {202, 2, 8}})
	db.MustAdd("Attend", 3, [][]int64{{300, 1, 2}, {301, 2, 1}, {302, 2, 4}})
	return q, db
}

func TestCount(t *testing.T) {
	q, db := socialDB()
	c, err := qjoin.Count(q, db)
	if err != nil {
		t.Fatal(err)
	}
	// Event 1: 1 admin × 2 shares × 1 attend = 2; event 2: 1 × 1 × 2 = 2.
	if c.Cmp(big.NewInt(4)) != 0 {
		t.Fatalf("count = %s", c)
	}
}

func TestQuantileSocialNetwork(t *testing.T) {
	q, db := socialDB()
	f := qjoin.Sum("l2", "l3")
	// Weights of the 4 answers: 5+2=7, 3+2=5, 8+1=9, 8+4=12.
	ans, err := qjoin.Quantile(q, db, f, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Weight.K != 5 {
		t.Fatalf("0.1-quantile weight = %d, want 5", ans.Weight.K)
	}
	med, err := qjoin.Median(q, db, f)
	if err != nil {
		t.Fatal(err)
	}
	if med.Weight.K != 9 {
		t.Fatalf("median weight = %d, want 9 (sorted weights 5,7,9,12, k=2)", med.Weight.K)
	}
	if v, ok := med.Get("l2"); !ok || v != 8 {
		t.Fatalf("median l2 = %d", v)
	}
}

func TestSelectAt(t *testing.T) {
	q, db := socialDB()
	f := qjoin.Sum("l2", "l3")
	want := []int64{5, 7, 9, 12}
	for k, w := range want {
		ans, err := qjoin.SelectAt(q, db, f, big.NewInt(int64(k)))
		if err != nil {
			t.Fatal(err)
		}
		if ans.Weight.K != w {
			t.Fatalf("SelectAt(%d) weight = %d, want %d", k, ans.Weight.K, w)
		}
	}
	if _, err := qjoin.SelectAt(q, db, f, big.NewInt(4)); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestEnumerate(t *testing.T) {
	q, db := socialDB()
	var weights []int64
	err := qjoin.Enumerate(q, db, func(vars []qjoin.Var, vals []int64) bool {
		var l2, l3 int64
		for i, v := range vars {
			switch v {
			case "l2":
				l2 = vals[i]
			case "l3":
				l3 = vals[i]
			}
		}
		weights = append(weights, l2+l3)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(weights, func(i, j int) bool { return weights[i] < weights[j] })
	want := []int64{5, 7, 9, 12}
	if len(weights) != len(want) {
		t.Fatalf("weights = %v", weights)
	}
	for i := range want {
		if weights[i] != want[i] {
			t.Fatalf("weights = %v, want %v", weights, want)
		}
	}
}

func TestMinMaxQuantiles(t *testing.T) {
	q := qjoin.NewQuery(
		qjoin.NewAtom("Width", "p", "w"),
		qjoin.NewAtom("Height", "p", "h"),
	)
	db := qjoin.NewDB()
	db.MustAdd("Width", 2, [][]int64{{1, 10}, {2, 30}})
	db.MustAdd("Height", 2, [][]int64{{1, 20}, {2, 5}})
	// Answers: (p=1): max(10,20)=20; (p=2): max(30,5)=30.
	ans, err := qjoin.Quantile(q, db, qjoin.Max("w", "h"), 0.0)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Weight.K != 20 {
		t.Fatalf("min of MAX weights = %d", ans.Weight.K)
	}
	ans, err = qjoin.Quantile(q, db, qjoin.Min("w", "h"), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Weight.K != 10 {
		t.Fatalf("max of MIN weights = %d (answers have MIN 10 and 5)", ans.Weight.K)
	}
}

func TestLexQuantile(t *testing.T) {
	q := qjoin.NewQuery(qjoin.NewAtom("R", "a", "b"))
	db := qjoin.NewDB()
	db.MustAdd("R", 2, [][]int64{{1, 9}, {2, 1}, {1, 3}})
	ans, err := qjoin.Quantile(q, db, qjoin.Lex("a", "b"), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Lex order: (1,3) < (1,9) < (2,1); k = min(⌊0.5·3⌋, 2) = 1.
	if a, _ := ans.Get("a"); a != 1 {
		t.Fatalf("median a = %d", a)
	}
	if b, _ := ans.Get("b"); b != 9 {
		t.Fatalf("median b = %d", b)
	}
}

func TestApproxAndSampling(t *testing.T) {
	// Full SUM on a 3-path: exactly intractable, approximable.
	q := qjoin.NewQuery(
		qjoin.NewAtom("R1", "x1", "x2"),
		qjoin.NewAtom("R2", "x2", "x3"),
		qjoin.NewAtom("R3", "x3", "x4"),
	)
	db := qjoin.NewDB()
	rng := rand.New(rand.NewSource(7))
	rows := func() [][]int64 {
		var out [][]int64
		for i := 0; i < 30; i++ {
			out = append(out, []int64{rng.Int63n(5), rng.Int63n(5)})
		}
		return out
	}
	db.MustAdd("R1", 2, rows())
	db.MustAdd("R2", 2, rows())
	db.MustAdd("R3", 2, rows())
	f := qjoin.Sum("x1", "x2", "x3", "x4")
	if _, err := qjoin.Quantile(q, db, f, 0.5); err != qjoin.ErrIntractable {
		t.Fatalf("exact full SUM on 3-path: err = %v", err)
	}
	if _, err := qjoin.ApproxQuantile(q, db, f, 0.5, 0.2); err != nil {
		t.Fatalf("approx: %v", err)
	}
	if _, err := qjoin.SampleQuantile(q, db, f, 0.5, 0.2, 0.1, rng); err != nil {
		t.Fatalf("sampling: %v", err)
	}
	if _, err := qjoin.BaselineQuantile(q, db, f, 0.5); err != nil {
		t.Fatalf("baseline: %v", err)
	}
}

func TestClassification(t *testing.T) {
	q := qjoin.NewQuery(
		qjoin.NewAtom("R1", "x1", "x2"),
		qjoin.NewAtom("R2", "x2", "x3"),
		qjoin.NewAtom("R3", "x3", "x4"),
	)
	if !qjoin.IsAcyclic(q) {
		t.Fatal("3-path must be acyclic")
	}
	if c := qjoin.ClassifySum(q, "x1", "x2", "x3"); !c.Tractable {
		t.Fatalf("partial sum misclassified: %+v", c)
	}
	if c := qjoin.ClassifySum(q, "x1", "x4"); c.Tractable {
		t.Fatalf("endpoint sum misclassified: %+v", c)
	}
	if ok, why := qjoin.ClassifyRanking(q, qjoin.Min("x1")); !ok || why == "" {
		t.Fatal("MIN classification wrong")
	}
}

func TestDBValidation(t *testing.T) {
	db := qjoin.NewDB()
	if err := db.Add("R", 2, [][]int64{{1}}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	db.MustAdd("R", 1, [][]int64{{1}, {2}})
	if db.Size() != 2 {
		t.Fatalf("size = %d", db.Size())
	}
	if got := db.Relations(); len(got) != 1 || got[0] != "R" {
		t.Fatalf("relations = %v", got)
	}
}

func TestQuantilesBatch(t *testing.T) {
	q, db := socialDB()
	f := qjoin.Sum("l2", "l3")
	as, err := qjoin.Quantiles(q, db, f, []float64{0, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 3 || as[0].Weight.K != 5 || as[2].Weight.K != 12 {
		t.Fatalf("batch quantiles wrong: %v", as)
	}
	if _, err := qjoin.Quantiles(q, db, f, []float64{0.5, 7}); err == nil {
		t.Fatal("invalid φ accepted in batch")
	}
}

func TestSampleAnswers(t *testing.T) {
	q, db := socialDB()
	rng := rand.New(rand.NewSource(9))
	vars, rows, err := qjoin.SampleAnswers(q, db, 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 500 || len(vars) != len(q.Vars()) {
		t.Fatalf("samples: %d rows, %d vars", len(rows), len(vars))
	}
	// All 4 answers should appear in 500 samples.
	seen := map[string]bool{}
	for _, r := range rows {
		seen[fmt.Sprint(r)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("distinct sampled answers = %d, want 4", len(seen))
	}
}

// Sampling hits every answer of the Figure 1 instance and is uniform: each of
// its 13 answers within 30% of its expected share of 13 000 draws, and the
// counts pass Pearson's χ² test against the uniform law (12 degrees of
// freedom, 32.91 at α = 0.001).
func TestSampleAnswersUniformity(t *testing.T) {
	q, db := testutil.Fig1Instance()
	p, err := qjoin.Prepare(q, qjoin.WrapDB(db))
	if err != nil {
		t.Fatal(err)
	}
	const samples = 13000
	_, rows, err := p.SampleAnswers(samples, rand.New(rand.NewSource(123)))
	if err != nil {
		t.Fatal(err)
	}
	hits := make(map[string]int)
	for _, r := range rows {
		hits[fmt.Sprint(r)]++
	}
	n := p.Count().Int64()
	if int64(len(hits)) != n || n != 13 {
		t.Fatalf("sampled %d distinct answers of %d, want 13", len(hits), n)
	}
	exp, chi2 := float64(samples)/float64(n), 0.0
	for k, c := range hits {
		if float64(c) < exp*0.7 || float64(c) > exp*1.3 {
			t.Fatalf("answer %s sampled %d times, expected ~%.0f", k, c, exp)
		}
		chi2 += (float64(c) - exp) * (float64(c) - exp) / exp
	}
	if chi2 > 32.91 {
		t.Fatalf("χ² = %.2f over 12 degrees of freedom: not uniform at α = 0.001", chi2)
	}
}

func TestTopKAndRankedEnumerate(t *testing.T) {
	q, db := socialDB()
	f := qjoin.Sum("l2", "l3")
	top, err := qjoin.TopK(q, db, f, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 3 || top[0].Weight.K != 5 || top[1].Weight.K != 7 || top[2].Weight.K != 9 {
		t.Fatalf("top-3 weights: %v %v %v", top[0].Weight.K, top[1].Weight.K, top[2].Weight.K)
	}
	// Full stream drains all 4 answers in order.
	s, err := qjoin.RankedEnumerate(q, db, f)
	if err != nil {
		t.Fatal(err)
	}
	var ws []int64
	for {
		a, ok := s.Next()
		if !ok {
			break
		}
		ws = append(ws, a.Weight.K)
	}
	want := []int64{5, 7, 9, 12}
	if len(ws) != 4 {
		t.Fatalf("stream weights = %v", ws)
	}
	for i := range want {
		if ws[i] != want[i] {
			t.Fatalf("stream weights = %v, want %v", ws, want)
		}
	}
	// TopK beyond |Q(D)| returns everything.
	all, err := qjoin.TopK(q, db, f, 100)
	if err != nil || len(all) != 4 {
		t.Fatalf("topk(100) = %d answers, err %v", len(all), err)
	}
}

func TestQuantileStatsExposed(t *testing.T) {
	q, db := socialDB()
	_, stats, err := qjoin.QuantileStats(q, db, qjoin.Sum("l2", "l3"), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := stats.Count.Uint64(); n != 4 {
		t.Fatalf("stats count = %d", n)
	}
}
