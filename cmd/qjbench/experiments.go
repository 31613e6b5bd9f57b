package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"github.com/quantilejoins/qjoin"

	"github.com/quantilejoins/qjoin/internal/core"
	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/parallel"
	"github.com/quantilejoins/qjoin/internal/pivot"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/snap"
	"github.com/quantilejoins/qjoin/internal/testutil"
	"github.com/quantilejoins/qjoin/internal/trim"
	"github.com/quantilejoins/qjoin/internal/workload"
	"github.com/quantilejoins/qjoin/internal/yannakakis"
)

// benchWorkers is the -workers flag: the worker count pinned for every
// experiment (0 = GOMAXPROCS, 1 = sequential).
var benchWorkers int

// engineOf compiles (q, db) on the pinned worker count; experiment workloads
// are known-acyclic, so a failure is a bug worth crashing on.
func engineOf(q *query.Query, db *relation.Database) *engine.Engine {
	eng, err := engine.NewWorkers(q, db, benchWorkers)
	if err != nil {
		panic(err)
	}
	return eng
}

// workerCount resolves the -workers flag to a concrete worker count.
func workerCount() int { return parallel.Workers(benchWorkers) }

// withWorkers pins the -workers flag on a driver Options value.
func withWorkers(opts core.Options) core.Options {
	if opts.Parallelism == 0 {
		opts.Parallelism = benchWorkers
	}
	return opts
}

func sizes(c *ctx, base []int) []int {
	if !c.quick {
		return base
	}
	out := base[:0:0]
	for _, n := range base {
		out = append(out, n/4)
	}
	return out
}

func countOf(q *query.Query, db *relation.Database) counting.Count {
	return engineOf(q, db).Total()
}

// ---------------------------------------------------------------- E01

func runE01(c *ctx) {
	// Exact reproduction of Figure 1.
	q, db := testutil.Fig1Instance()
	n := countOf(q, db)
	fmt.Printf("Figure 1 instance: |Q(D)| = %s (paper: 13)\n\n", n)

	t := &table{header: []string{"n per relation", "|D|", "|Q(D)|", "prepare+count time", "ns/tuple"}}
	var xs, ys []float64
	for _, sz := range sizes(c, []int{1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20}) {
		rng := rand.New(rand.NewSource(1))
		q, db := workload.Hierarchy(rng, sz, int64(sz/4))
		var cnt counting.Count
		d := timeIt(3, func() {
			cnt = engineOf(q, db).Total()
		})
		t.add(fmt.Sprint(sz), fmt.Sprint(db.Size()), cnt.String(), dur(d),
			fmt.Sprintf("%.0f", float64(d.Nanoseconds())/float64(db.Size())))
		xs = append(xs, float64(db.Size()))
		ys = append(ys, float64(d.Nanoseconds()))
	}
	t.print()
	fmt.Printf("\nfitted time exponent: %.2f (paper claim: linear, 1.00 up to log factors)\n", fitExponent(xs, ys))
}

// ---------------------------------------------------------------- E02

func runE02(c *ctx) {
	// Exact reproduction of Figure 2.
	q, db := testutil.Fig1Instance()
	f := ranking.NewSum(q.Vars()...)
	tree := jointree.FromParent(q, []int{-1, 0, 0, 2}, 0)
	e, _ := jointree.NewExecWorkers(q, db, tree, workerCount())
	mu, _ := f.AssignVars(q)
	res, err := pivot.SelectWorkers(e, f, mu, workerCount())
	if err != nil {
		panic(err)
	}
	fmt.Printf("Figure 2 pivot: %v, weight %d (paper: (1,1,4,6,8), weight 20)\n\n", res.Assignment, res.Weight.K)

	// Pivot quality at a size where ground truth is computable.
	fmt.Println("pivot quality (rank fraction of the returned pivot, path-3, SUM):")
	qt := &table{header: []string{"n", "|Q(D)|", "guaranteed c", "measured min(⪯,⪰) fraction"}}
	for _, sz := range []int{256, 1024, 4096} {
		rng := rand.New(rand.NewSource(2))
		q, db := workload.Path(rng, 3, sz, int64(sz/8))
		f := ranking.NewSum(q.Vars()...)
		eng := engineOf(q, db)
		mu, _ := f.AssignVars(q)
		res, err := pivot.SelectWorkers(eng.Exec(), f, mu, workerCount())
		if err != nil {
			continue
		}
		answers := testutil.BruteForce(q, db)
		below, equal := testutil.RankOf(answers, f, q.Vars(), res.Weight)
		n := len(answers)
		le := float64(below+equal) / float64(n)
		ge := float64(n-below) / float64(n)
		frac := le
		if ge < frac {
			frac = ge
		}
		qt.add(fmt.Sprint(sz), fmt.Sprint(n), fmt.Sprintf("%.4f", res.C), fmt.Sprintf("%.3f", frac))
	}
	qt.print()

	fmt.Println("\npivot selection time on a prepared plan (path-3, SUM):")
	t := &table{header: []string{"n per relation", "|D|", "pivot time", "ns/tuple"}}
	var xs, ys []float64
	for _, sz := range sizes(c, []int{1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20}) {
		rng := rand.New(rand.NewSource(3))
		q, db := workload.Path(rng, 3, sz, int64(sz/4))
		f := ranking.NewSum(q.Vars()...)
		eng := engineOf(q, db)
		mu, _ := f.AssignVars(q)
		d := timeIt(3, func() {
			if _, err := pivot.SelectWorkers(eng.Exec(), f, mu, workerCount()); err != nil && err != pivot.ErrNoAnswers {
				panic(err)
			}
		})
		t.add(fmt.Sprint(sz), fmt.Sprint(db.Size()), dur(d),
			fmt.Sprintf("%.0f", float64(d.Nanoseconds())/float64(db.Size())))
		xs = append(xs, float64(db.Size()))
		ys = append(ys, float64(d.Nanoseconds()))
	}
	t.print()
	fmt.Printf("\nfitted time exponent: %.2f (paper claim: linear)\n", fitExponent(xs, ys))
}

// ---------------------------------------------------------------- shared driver sweep

// sweepDriver measures one-shot Quantile, Quantile on a prepared plan, and
// BaselineQuantile across sizes.
func sweepDriver(c *ctx, base []int, gen func(rng *rand.Rand, n int) (*query.Query, *relation.Database, *ranking.Func), phi float64, opts core.Options, baselineCap float64) {
	opts = withWorkers(opts)
	t := &table{header: []string{"n per relation", "|D|", "|Q(D)|", "pivoting", "prepared", "baseline", "speedup"}}
	var xs, ys []float64
	for _, sz := range sizes(c, base) {
		rng := rand.New(rand.NewSource(4))
		q, db, f := gen(rng, sz)
		eng := engineOf(q, db)
		total := eng.Total()

		var a *core.Answer
		var err error
		d := timeIt(3, func() {
			a, _, err = core.Quantile(q, db, f, phi, opts)
		})
		if err != nil {
			fmt.Printf("n=%d: driver error: %v\n", sz, err)
			continue
		}
		pd := timeIt(3, func() {
			if _, _, err := core.QuantilePrepared(eng, f, phi, opts); err != nil {
				panic(err)
			}
		})
		xs = append(xs, float64(db.Size()))
		ys = append(ys, float64(d.Nanoseconds()))

		baseCell, speedCell := "—", "—"
		if total.Float64() <= baselineCap {
			var b *core.Answer
			bd := timeIt(1, func() {
				b, err = core.BaselineQuantilePrepared(eng, f, phi)
			})
			if err != nil {
				panic(err)
			}
			if opts.Epsilon == 0 && f.Compare(a.Weight, b.Weight) != 0 {
				panic(fmt.Sprintf("n=%d: weight mismatch: %v vs %v", sz, a.Weight, b.Weight))
			}
			baseCell = dur(bd)
			speedCell = fmt.Sprintf("%.1f×", float64(bd)/float64(d))
		}
		t.add(fmt.Sprint(sz), fmt.Sprint(db.Size()), total.String(), dur(d), dur(pd), baseCell, speedCell)
	}
	t.print()
	if len(xs) >= 3 {
		fmt.Printf("\nfitted pivoting time exponent: %.2f (paper claim: quasilinear)\n", fitExponent(xs, ys))
	}
}

// ---------------------------------------------------------------- E03

func runE03(c *ctx) {
	fmt.Println("MAX over the social-network star (3 atoms), output ≈ 256·|D|, φ = 0.5:")
	sweepDriver(c, []int{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18},
		func(rng *rand.Rand, n int) (*query.Query, *relation.Database, *ranking.Func) {
			q, db := workload.Star(rng, 3, n, n/16+1, 1_000_000)
			return q, db, ranking.NewMax(q.Vars()...)
		}, 0.5, core.Options{}, 2.5e7)

	fmt.Println("\nMIN over the Figure 1 hierarchy (4 atoms), φ = 0.25:")
	sweepDriver(c, []int{1 << 10, 1 << 12, 1 << 14, 1 << 16},
		func(rng *rand.Rand, n int) (*query.Query, *relation.Database, *ranking.Func) {
			q, db := workload.Hierarchy(rng, n, int64(n/8+1))
			return q, db, ranking.NewMin(q.Vars()...)
		}, 0.25, core.Options{}, 2.5e7)
}

// ---------------------------------------------------------------- E04

func runE04(c *ctx) {
	fmt.Println("LEX(x1, x3) over the binary join, output ≈ 32·|D|, φ = 0.9:")
	sweepDriver(c, []int{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18},
		func(rng *rand.Rand, n int) (*query.Query, *relation.Database, *ranking.Func) {
			q, db := workload.Path(rng, 2, n, int64(n/16+1))
			return q, db, ranking.NewLex("x1", "x3")
		}, 0.9, core.Options{}, 2.5e7)
}

// ---------------------------------------------------------------- E05

func runE05(c *ctx) {
	fmt.Println("SUM(x1,x2,x3) over the 3-path — newly tractable by Theorem 5.6, φ = 0.5:")
	sweepDriver(c, []int{1 << 10, 1 << 12, 1 << 14, 1 << 16},
		func(rng *rand.Rand, n int) (*query.Query, *relation.Database, *ranking.Func) {
			q, db := workload.Path(rng, 3, n, int64(n/16+1))
			return q, db, ranking.NewSum("x1", "x2", "x3")
		}, 0.5, core.Options{}, 2.5e7)
}

// ---------------------------------------------------------------- E06

func runE06(c *ctx) {
	fmt.Println("full SUM over the binary join (the classically tractable case), φ = 0.5:")
	sweepDriver(c, []int{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18},
		func(rng *rand.Rand, n int) (*query.Query, *relation.Database, *ranking.Func) {
			q, db := workload.Path(rng, 2, n, int64(n/16+1))
			return q, db, ranking.NewSum(q.Vars()...)
		}, 0.5, core.Options{}, 2.5e7)
}

// ---------------------------------------------------------------- E07

func runE07(c *ctx) {
	fmt.Println("classifier verdicts (Theorem 5.6):")
	t := &table{header: []string{"query", "U_w", "acyclic", "max indep.", "long chordless path", "tractable"}}
	cases := []struct {
		name string
		q    *query.Query
		uw   []query.Var
	}{
		{"3-path", testutil.PathQuery(3), []query.Var{"x1", "x2", "x3"}},
		{"3-path", testutil.PathQuery(3), testutil.PathQuery(3).Vars()},
		{"3-path", testutil.PathQuery(3), []query.Var{"x1", "x4"}},
		{"2-path", testutil.PathQuery(2), testutil.PathQuery(2).Vars()},
		{"3-star", testutil.StarQuery(3), []query.Var{"y1", "y2"}},
		{"3-star", testutil.StarQuery(3), []query.Var{"y1", "y2", "y3"}},
		{"triangle", query.New(
			query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}},
			query.Atom{Rel: "S", Vars: []query.Var{"y", "z"}},
			query.Atom{Rel: "T", Vars: []query.Var{"z", "x"}},
		), []query.Var{"x", "y"}},
	}
	for _, cs := range cases {
		v := core.ClassifySum(cs.q, cs.uw)
		t.add(cs.name, fmt.Sprint(cs.uw), fmt.Sprint(v.Acyclic), fmt.Sprint(v.MaxIndependent),
			fmt.Sprint(v.LongChordlessPath), fmt.Sprint(v.Tractable))
	}
	t.print()

	fmt.Println("\ncost of the hard side: baseline on full-SUM 3-path (output explodes):")
	bt := &table{header: []string{"n per relation", "|Q(D)|", "baseline time", "output/input ratio"}}
	for _, sz := range sizes(c, []int{1 << 8, 1 << 10, 1 << 12}) {
		rng := rand.New(rand.NewSource(5))
		q, db := workload.Path(rng, 3, sz, int64(sz/16+1))
		f := ranking.NewSum(q.Vars()...)
		total := countOf(q, db)
		d := timeIt(1, func() {
			if _, err := core.BaselineQuantile(q, db, f, 0.5); err != nil && err != core.ErrNoAnswers {
				panic(err)
			}
		})
		bt.add(fmt.Sprint(sz), total.String(), dur(d),
			fmt.Sprintf("%.0f×", total.Float64()/float64(db.Size())))
	}
	bt.print()
}

// ---------------------------------------------------------------- E08

func runE08(c *ctx) {
	n := 400
	if c.quick {
		n = 150
	}
	rng := rand.New(rand.NewSource(6))
	q, db := workload.Path(rng, 3, n, int64(n/8))
	f := ranking.NewSum(q.Vars()...)
	total := countOf(q, db)
	fmt.Printf("full SUM on 3-path (exactly intractable): n=%d per relation, |Q(D)| = %s\n", n, total)

	// Ground truth ranks via materialization (test-scale only).
	answers := materializeAll(q, db)
	fmt.Printf("ground truth materialized for error measurement (%d answers)\n\n", len(answers))

	t := &table{header: []string{"ε", "time", "iterations", "max trimmed |D'|", "measured rank error", "bound ε"}}
	for _, eps := range []float64{0.4, 0.2, 0.1, 0.05} {
		var a *core.Answer
		var stats *core.RunStats
		var err error
		d := timeIt(1, func() {
			a, stats, err = core.Quantile(q, db, f, 0.5, withWorkers(core.Options{Epsilon: eps}))
		})
		if err != nil {
			panic(err)
		}
		errFrac := rankError(answers, q, f, a, 0.5)
		t.add(fmt.Sprintf("%.2f", eps), dur(d), fmt.Sprint(stats.Iterations),
			fmt.Sprint(stats.MaxInstanceTuples),
			fmt.Sprintf("%.4f", errFrac), fmt.Sprintf("%.2f", eps))
		if errFrac > eps {
			fmt.Printf("WARNING: measured error %.4f exceeds ε=%.2f\n", errFrac, eps)
		}
	}
	t.print()

	fmt.Println("\nscaling at ε = 0.25:")
	st := &table{header: []string{"n per relation", "|Q(D)|", "time", "max trimmed |D'|"}}
	for _, sz := range sizes(c, []int{128, 256, 512, 1024}) {
		rng := rand.New(rand.NewSource(7))
		q, db := workload.Path(rng, 3, sz, int64(sz/8+1))
		f := ranking.NewSum(q.Vars()...)
		total := countOf(q, db)
		var stats *core.RunStats
		var err error
		d := timeIt(1, func() {
			_, stats, err = core.Quantile(q, db, f, 0.5, withWorkers(core.Options{Epsilon: 0.25}))
		})
		if err != nil {
			if err == core.ErrNoAnswers {
				continue
			}
			panic(err)
		}
		st.add(fmt.Sprint(sz), total.String(), dur(d), fmt.Sprint(stats.MaxInstanceTuples))
	}
	st.print()
}

// ---------------------------------------------------------------- E09

func runE09(c *ctx) {
	n := 1000
	if c.quick {
		n = 300
	}
	rng := rand.New(rand.NewSource(8))
	q, db := workload.Path(rng, 3, n, int64(n/8))
	f := ranking.NewSum(q.Vars()...)
	answers := materializeAll(q, db)
	fmt.Printf("same workload as E08, n=%d, |Q(D)| = %d; δ = 0.05, 20 seeds per ε\n\n", n, len(answers))

	t := &table{header: []string{"ε", "median time", "mean rank error", "max rank error", "violations (of 20)"}}
	for _, eps := range []float64{0.2, 0.1, 0.05} {
		var times []time.Duration
		var sumErr, maxErr float64
		viol := 0
		for seed := int64(0); seed < 20; seed++ {
			r := rand.New(rand.NewSource(100 + seed))
			start := time.Now()
			a, err := core.SampleQuantile(q, db, f, 0.5, eps, 0.05, r)
			times = append(times, time.Since(start))
			if err != nil {
				panic(err)
			}
			e := rankError(answers, q, f, a, 0.5)
			sumErr += e
			if e > maxErr {
				maxErr = e
			}
			if e > eps {
				viol++
			}
		}
		t.add(fmt.Sprintf("%.2f", eps), dur(medianDur(times)),
			fmt.Sprintf("%.4f", sumErr/20), fmt.Sprintf("%.4f", maxErr), fmt.Sprint(viol))
	}
	t.print()
	fmt.Println("\n(deterministic vs randomized: compare E08's table at equal ε — the deterministic")
	fmt.Println("scheme pays a large polylog/ε² factor for removing randomness, as Section 6 anticipates)")
}

// ---------------------------------------------------------------- E10

func runE10(c *ctx) {
	fmt.Println("lossy trim output size vs ε (3-path, sum < median weight):")
	t := &table{header: []string{"n per relation", "ε", "ε' per sketch", "input |D|", "output |D'|", "blowup", "kept/satisfying"}}
	for _, sz := range sizes(c, []int{256, 512, 1024}) {
		rng := rand.New(rand.NewSource(9))
		q, db := workload.Path(rng, 3, sz, int64(sz/8+1))
		f := ranking.NewSum(q.Vars()...)
		inst := trim.Instance{Q: q, DB: db, Workers: workerCount()}
		// λ = the weight of a pivot (roughly the median weight).
		mu, _ := f.AssignVars(q)
		pv, err := pivot.SelectWorkers(engineOf(q, db).Exec(), f, mu, workerCount())
		if err != nil {
			continue
		}
		lambda := pv.Weight.K
		satisfying := countBelow(q, db, f, lambda)
		for _, eps := range []float64{0.4, 0.1} {
			out, stats, err := trim.SumLossy(inst, f, lambda, trim.Less, eps, trim.LossyOpts{})
			if err != nil {
				panic(err)
			}
			kept := countOf(out.Q, out.DB)
			ratio := "—"
			if satisfying > 0 {
				ratio = fmt.Sprintf("%.4f", kept.Float64()/float64(satisfying))
			}
			t.add(fmt.Sprint(sz), fmt.Sprintf("%.2f", eps), fmt.Sprintf("%.4f", stats.EpsPrime),
				fmt.Sprint(db.Size()), fmt.Sprint(stats.OutputTuples),
				fmt.Sprintf("%.1f×", float64(stats.OutputTuples)/float64(db.Size())), ratio)
		}
	}
	t.print()
	fmt.Println("\n(kept/satisfying must be within [1-ε, 1]; Lemma 6.3's per-sketch guarantee is")
	fmt.Println("property-tested in internal/sketch, and Figure 4's embedding in internal/trim)")
}

// ---------------------------------------------------------------- E11

func runE11(c *ctx) {
	n := 1 << 14
	if c.quick {
		n = 1 << 12
	}
	fmt.Printf("2-leaf star, fixed |D| = %d tuples; events sweep |Q(D)|/|D| (MAX ranking, φ=0.5):\n\n", 2*n)
	t := &table{header: []string{"events", "|Q(D)|", "output/input", "pivoting", "baseline", "speedup"}}
	for _, events := range []int{n, n / 4, n / 16, n / 64, n / 256, n / 1024} {
		rng := rand.New(rand.NewSource(10))
		q, db := workload.Star(rng, 2, n, events, 1_000_000)
		f := ranking.NewMax(q.Vars()...)
		total := countOf(q, db)
		var a *core.Answer
		var err error
		d := timeIt(3, func() {
			a, _, err = core.Quantile(q, db, f, 0.5, withWorkers(core.Options{}))
		})
		if err != nil {
			panic(err)
		}
		baseCell, speedCell := "—", "—"
		if total.Float64() <= 6e7 {
			var b *core.Answer
			bd := timeIt(1, func() { b, err = core.BaselineQuantile(q, db, f, 0.5) })
			if err != nil {
				panic(err)
			}
			if f.Compare(a.Weight, b.Weight) != 0 {
				panic("weight mismatch")
			}
			baseCell, speedCell = dur(bd), fmt.Sprintf("%.1f×", float64(bd)/float64(d))
		}
		t.add(fmt.Sprint(events), total.String(),
			fmt.Sprintf("%.1f×", total.Float64()/float64(db.Size())), dur(d), baseCell, speedCell)
	}
	t.print()
	fmt.Println("\n(pivoting cost stays flat while the baseline grows with |Q(D)| — the paper's")
	fmt.Println("motivation: Q and D are a compact representation of a much larger answer list)")
}

// ---------------------------------------------------------------- E12

func runE12(c *ctx) {
	n := 300
	if c.quick {
		n = 120
	}
	rng := rand.New(rand.NewSource(11))
	q, db := workload.Path(rng, 3, n, int64(n/8))
	f := ranking.NewSum(q.Vars()...)
	answers := materializeAll(q, db)
	fmt.Printf("ablation workload: full-SUM 3-path, n=%d, |Q(D)| = %d, ε = 0.25, φ = 0.5\n\n", n, len(answers))

	fmt.Println("ε-budget strategy (driver):")
	t := &table{header: []string{"budget", "time", "iterations", "max trimmed |D'|", "measured rank error"}}
	for _, mode := range []struct {
		name string
		b    core.EpsilonBudget
	}{{"geometric (default)", core.BudgetGeometric}, {"paper (Lemma 3.6)", core.BudgetPaper}} {
		var a *core.Answer
		var stats *core.RunStats
		var err error
		d := timeIt(1, func() {
			a, stats, err = core.Quantile(q, db, f, 0.5, withWorkers(core.Options{Epsilon: 0.25, Budget: mode.b}))
		})
		if err != nil {
			panic(err)
		}
		t.add(mode.name, dur(d), fmt.Sprint(stats.Iterations), fmt.Sprint(stats.MaxInstanceTuples),
			fmt.Sprintf("%.4f", rankError(answers, q, f, a, 0.5)))
	}
	t.print()

	fmt.Println("\nsketch value-grouping (Lemma 6.3 atomicity adjustment) on one lossy trim")
	fmt.Println("(tiny weight domain, so equal sums abound and grouping can merge them):")
	at := &table{header: []string{"mode", "buckets", "output |D'|", "kept answers distinct?"}}
	rngT := rand.New(rand.NewSource(12))
	qt, dbt := workload.Path(rngT, 3, n, 8) // domain 8 -> heavy ties
	mu, _ := f.AssignVars(qt)
	pv, _ := pivot.SelectWorkers(engineOf(qt, dbt).Exec(), f, mu, workerCount())
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"grouped (paper)", false}, {"ungrouped (ablation)", true}} {
		out, stats, err := trim.SumLossy(trim.Instance{Q: qt, DB: dbt, Workers: workerCount()}, f, pv.Weight.K, trim.Less, 0.25,
			trim.LossyOpts{DisableAtomicity: mode.disable})
		if err != nil {
			panic(err)
		}
		kept := countOf(out.Q, out.DB)
		distinct := checkDistinctProjections(out, qt)
		at.add(mode.name, fmt.Sprint(stats.Buckets), fmt.Sprint(stats.OutputTuples),
			fmt.Sprintf("%v (kept %s)", distinct, kept))
	}
	at.print()
	fmt.Println("\n(this implementation buckets whole tuple copies, so even the ablation keeps the")
	fmt.Println("injection; the paper's adjustment matters for multiset-level sketches — value")
	fmt.Println("grouping still reduces buckets by merging ties)")
}

// ---------------------------------------------------------------- helpers

func materializeAll(q *query.Query, db *relation.Database) [][]relation.Value {
	return yannakakis.Materialize(engineOf(q, db).Exec())
}

// rankError computes |rank(a) - k| / N against a materialized ground truth,
// taking the closest position of a's rank window.
func rankError(answers [][]relation.Value, q *query.Query, f *ranking.Func, a *core.Answer, phi float64) float64 {
	below, equal := testutil.RankOf(answers, f, q.Vars(), a.Weight)
	n := len(answers)
	k64, _ := core.Index(counting.FromInt(n), phi).Uint64()
	k := float64(k64)
	lo, hi := float64(below), float64(below+equal-1)
	switch {
	case k < lo:
		return (lo - k) / float64(n)
	case k > hi:
		return (k - hi) / float64(n)
	}
	return 0
}

func countBelow(q *query.Query, db *relation.Database, f *ranking.Func, lambda int64) int {
	aw := ranking.NewAnswerWeigher(f, q.Vars())
	count := 0
	eng := engineOf(q, db)
	yannakakis.Enumerate(eng.Exec(), eng.Counts(), func(asn []relation.Value) bool {
		if aw.WeightOf(asn).K < lambda {
			count++
		}
		return true
	})
	return count
}

// checkDistinctProjections verifies the injection property of a trimmed
// instance: projections onto the original variables must be pairwise
// distinct.
func checkDistinctProjections(out trim.Instance, orig *query.Query) bool {
	eng, err := engine.New(out.Q, out.DB)
	if err != nil {
		return false
	}
	idx := out.Q.VarIndex()
	var cols []int
	for _, v := range orig.Vars() {
		cols = append(cols, idx[v])
	}
	seen := make(map[string]bool)
	ok := true
	buf := make([]relation.Value, len(cols))
	yannakakis.Enumerate(eng.Exec(), eng.Counts(), func(asn []relation.Value) bool {
		for i, c := range cols {
			buf[i] = asn[c]
		}
		k := fmt.Sprint(buf)
		if seen[k] {
			ok = false
			return false
		}
		seen[k] = true
		return true
	})
	return ok
}

// ---------------------------------------------------------------- E13

// runE13 sweeps the worker count of the parallel execution runtime (ISSUE 2)
// over the hot passes: engine compilation (dedup + node materialization +
// group indexes), the counting pass, and the full quantile driver. Answers
// must be byte-identical at every worker count; speedup is wall-clock over
// the Parallelism=1 sequential baseline.
func runE13(c *ctx) {
	gmp := runtime.GOMAXPROCS(0)
	sweep := []int{1, 2, 4}
	if gmp != 1 && gmp != 2 && gmp != 4 {
		sweep = append(sweep, gmp)
	}
	n := 1 << 14
	if c.quick {
		n = 1 << 12
	}
	rngC := rand.New(rand.NewSource(14))
	qc, dbc := workload.Hierarchy(rngC, n, int64(n/4))
	treeC, _ := jointree.Build(qc)
	execC, err := jointree.NewExec(qc, dbc, treeC)
	if err != nil {
		panic(err)
	}
	rngQ := rand.New(rand.NewSource(15))
	qq, dbq := workload.Path(rngQ, 2, n, int64(n/16+1))
	fq := ranking.NewSum(qq.Vars()...)
	fmt.Printf("GOMAXPROCS = %d; count workload: hierarchy |D| = %d; quantile workload: binary SUM join |D| = %d, φ = 0.5\n\n",
		gmp, dbc.Size(), dbq.Size())

	t := &table{header: []string{"workers", "prepare", "speedup", "count pass", "speedup", "quantile", "speedup"}}
	var prepBase, cntBase, qBase time.Duration
	var refWeight *core.Answer
	var refTotal counting.Count
	for _, w := range sweep {
		prepD := timeIt(3, func() {
			if _, err := engine.NewWorkers(qq, dbq, w); err != nil {
				panic(err)
			}
		})
		var total counting.Count
		cntD := timeIt(3, func() {
			total = yannakakis.CountAnswersWorkers(execC, w)
		})
		eng, err := engine.NewWorkers(qq, dbq, w)
		if err != nil {
			panic(err)
		}
		var a *core.Answer
		qD := timeIt(3, func() {
			a, _, err = core.QuantilePrepared(eng, fq, 0.5, core.Options{Parallelism: w})
			if err != nil {
				panic(err)
			}
		})
		if w == sweep[0] {
			prepBase, cntBase, qBase = prepD, cntD, qD
			refWeight, refTotal = a, total
		} else {
			if fq.Compare(a.Weight, refWeight.Weight) != 0 {
				panic(fmt.Sprintf("workers=%d: answer diverged from sequential baseline", w))
			}
			if total.Cmp(refTotal) != 0 {
				panic(fmt.Sprintf("workers=%d: count diverged from sequential baseline", w))
			}
		}
		t.add(fmt.Sprint(w),
			dur(prepD), fmt.Sprintf("%.2f×", float64(prepBase)/float64(prepD)),
			dur(cntD), fmt.Sprintf("%.2f×", float64(cntBase)/float64(cntD)),
			dur(qD), fmt.Sprintf("%.2f×", float64(qBase)/float64(qD)))
	}
	t.print()
	fmt.Println("\n(answers are byte-identical at every worker count — the runtime's determinism")
	fmt.Println("contract; speedups above 1× require GOMAXPROCS > 1)")
}

// ---------------------------------------------------------------- E14

// runE14 measures incremental maintenance (ISSUE 3): absorbing insert/delete
// batches into a prepared plan via the copy-on-write Update versus
// re-preparing from scratch on the mutated database, with answer-equality
// checks across the ranking families.
func runE14(c *ctx) {
	n := 1 << 14
	if c.quick {
		n = 1 << 12
	}
	rng := rand.New(rand.NewSource(16))
	q, idb := workload.Path(rng, 2, n, 1<<10)
	db := qjoin.WrapDB(idb)
	planOpts := qjoin.Options{Parallelism: benchWorkers}
	base, err := qjoin.Prepare(q, db, planOpts)
	if err != nil {
		panic(err)
	}
	base.Count()
	fmt.Printf("binary SUM join, |D| = %d; batch = half fresh inserts (R1) + half deletes of unique rows (R2)\n", db.Size())
	fmt.Println("update = Prepared.Update (incremental); re-prepare = DB.Apply + qjoin.Prepare; both end with the answer count")
	fmt.Println()

	batches := workload.UpdateBatches(idb, "R1", "R2")
	mkDelta := func(batch int) *qjoin.Delta {
		ins, dels := batches(batch)
		return qjoin.NewDelta().Insert("R1", ins...).Delete("R2", dels...)
	}
	// Warm the lazily built multiset refcounts: a service pays this once per
	// plan, not once per delta.
	if _, err := base.Update(mkDelta(1)); err != nil {
		panic(err)
	}

	vars := q.Vars()
	ranks := map[string]*qjoin.Ranking{
		"SUM": qjoin.Sum(vars...), "MIN": qjoin.Min(vars...),
		"MAX": qjoin.Max(vars...), "LEX": qjoin.Lex(vars...),
	}
	t := &table{header: []string{"batch", "update (median)", "re-prepare (median)", "speedup", "answers equal"}}
	for _, batch := range []int{1, 64, 4096} {
		delta := mkDelta(batch)
		var up, fresh *qjoin.Prepared
		upD := timeIt(5, func() {
			p2, err := base.Update(delta)
			if err != nil {
				panic(err)
			}
			p2.Count()
			up = p2
		})
		reD := timeIt(5, func() {
			db2, err := db.Apply(delta)
			if err != nil {
				panic(err)
			}
			p2, err := qjoin.Prepare(q, db2, planOpts)
			if err != nil {
				panic(err)
			}
			p2.Count()
			fresh = p2
		})
		equal := up.Count().Cmp(fresh.Count()) == 0
		for name, f := range ranks {
			for _, phi := range []float64{0.25, 0.5, 0.9} {
				a1, err1 := up.Quantile(f, phi)
				a2, err2 := fresh.Quantile(f, phi)
				if err1 != nil || err2 != nil || !reflect.DeepEqual(a1, a2) {
					equal = false
					fmt.Printf("DIVERGENCE: batch=%d %s φ=%v: %v/%v vs %v/%v\n", batch, name, phi, a1, err1, a2, err2)
				}
			}
		}
		t.add(fmt.Sprint(delta.Len()), dur(upD), dur(reD),
			fmt.Sprintf("%.1f×", float64(reD)/float64(upD)), fmt.Sprint(equal))
	}
	t.print()
	fmt.Println("\n(the update path touches O(|delta|) keys plus a few bulk copies; re-prepare")
	fmt.Println("re-hashes the whole database — the gap is the point of ISSUE 3)")
}

// runE15 measures the per-iteration cost of the pivot loop (ISSUE 4): the
// pivot / trim / derive / count phase breakdown of steady-state quantile
// answering on a prepared plan, and the cold-vs-warm effect of the plan's
// λ-independent trim-preprocessing cache.
func runE15(c *ctx) {
	n := 1 << 14
	if c.quick {
		n = 1 << 12
	}
	rng := rand.New(rand.NewSource(15))
	q, idb := workload.Path(rng, 2, n, 1<<10) // dense: |Q(D)| ≫ threshold, the loop iterates
	db := qjoin.WrapDB(idb)
	f := qjoin.Sum(q.Vars()...)
	phis := []float64{0.05, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9}
	planOpts := qjoin.Options{Parallelism: benchWorkers}
	fmt.Printf("binary SUM join, |D| = %d, 8-φ grid per measurement, workers = %d\n\n", db.Size(), workerCount())

	// Cold vs warm: the first grid on a fresh plan builds the staircase
	// preparation (grouping + sorting both trim sides, once per direction);
	// every later grid reuses it and pays only emission + counting.
	p, err := qjoin.Prepare(q, db, planOpts)
	if err != nil {
		panic(err)
	}
	grid := func() {
		for _, phi := range phis {
			if _, err := p.Quantile(f, phi); err != nil {
				panic(err)
			}
		}
	}
	coldStart := time.Now()
	grid()
	cold := time.Since(coldStart)
	warm := timeIt(5, grid)
	t := &table{header: []string{"grid", "time", "per quantile"}}
	t.add("cold (prep caches empty)", dur(cold), dur(cold/time.Duration(len(phis))))
	t.add("warm (steady state)", dur(warm), dur(warm/time.Duration(len(phis))))
	t.print()

	// Phase breakdown of one warm run per φ: where the remaining time goes.
	fmt.Println()
	t2 := &table{header: []string{"φ", "iterations", "pivot", "trim", "derive", "count", "total"}}
	statOpts := qjoin.Options{Parallelism: benchWorkers, CollectPhases: true}
	for _, phi := range phis {
		_, stats, err := p.QuantileStats(f, phi, statOpts)
		if err != nil {
			panic(err)
		}
		var pv, tr, de, co time.Duration
		iters := 0
		if stats.Phases != nil {
			iters = len(stats.Phases.Iterations)
			for _, ph := range stats.Phases.Iterations {
				pv += ph.Pivot
				tr += ph.Trim
				de += ph.Derive
				co += ph.Count
			}
		}
		t2.add(fmt.Sprint(phi), fmt.Sprint(iters), dur(pv), dur(tr), dur(de), dur(co), dur(pv+tr+de+co))
	}
	t2.print()
	fmt.Println("\n(derive is executable-tree acquisition for the trimmed instances — subset")
	fmt.Println("derivation or rebuild; the zero-rebuild loop of ISSUE 4 keeps it and count")
	fmt.Println("proportional to the surviving rows instead of a full per-iteration rebuild)")
}

// runE17 measures the sharded dataset engine (ISSUE 7): hash-partitioned
// per-shard Prepare with the merged global pivot loop, at shards 1/2/4
// against the unsharded plan. Three phases — prepare (the partition +
// per-shard build, which parallelizes across shards), steady-state quantile
// (the merged loop's coordination overhead), and update with a shard-local
// delta (the locality win: only the owning shard engine is rebuilt).
// Answers are checked byte-identical against the unsharded plan throughout.
func runE17(c *ctx) {
	n := 1 << 14
	if c.quick {
		n = 1 << 12
	}
	rng := rand.New(rand.NewSource(17))
	q, idb := workload.Path(rng, 2, n, 1<<10)
	db := qjoin.WrapDB(idb)
	f := qjoin.Sum(q.Vars()...)
	planOpts := qjoin.Options{Parallelism: benchWorkers}
	fmt.Printf("binary SUM join, |D| = %d, workers = %d\n", db.Size(), workerCount())
	fmt.Println("prepare = partition + per-shard build; quantile = merged global pivot loop;")
	fmt.Println("update = 64 fresh inserts whose join keys all hash to shard 0 of 4")
	fmt.Println()

	flat, err := qjoin.Prepare(q, db, planOpts)
	if err != nil {
		panic(err)
	}
	want, err := flat.Quantile(f, 0.5)
	if err != nil {
		panic(err)
	}

	// Shard-local delta: fresh first-column values (new rows), key-column
	// values all owned by shard 0 of a 4-way partition. The 2-path's join key
	// is x2, so R1 routes on column 1.
	delta := qjoin.NewDelta()
	next := int64(0)
	for i := 0; i < 64; i++ {
		for qjoin.ShardOf(next, 4) != 0 {
			next++
		}
		delta.Insert("R1", []int64{int64(1<<20 + i), next})
		next++
	}

	reps := 5
	if c.quick {
		reps = 3
	}
	t := &table{header: []string{"plan", "prepare (median)", "quantile φ=0.5", "update (local delta)", "answers equal"}}
	row := func(label string, prep func() qjoin.Plan) {
		var p qjoin.Plan
		prepD := timeIt(reps, func() { p = prep() })
		var a *qjoin.Answer
		qD := timeIt(reps, func() {
			var err error
			a, err = p.Quantile(f, 0.5)
			if err != nil {
				panic(err)
			}
		})
		// Warm the lazily built multiset refcounts before timing updates.
		if _, err := p.UpdatePlan(delta); err != nil {
			panic(err)
		}
		upD := timeIt(reps, func() {
			if _, err := p.UpdatePlan(delta); err != nil {
				panic(err)
			}
		})
		equal := f.Compare(a.Weight, want.Weight) == 0 && reflect.DeepEqual(a.Values, want.Values)
		t.add(label, dur(prepD), dur(qD), dur(upD), fmt.Sprint(equal))
	}
	row("unsharded", func() qjoin.Plan {
		p, err := qjoin.Prepare(q, db, planOpts)
		if err != nil {
			panic(err)
		}
		return p
	})
	for _, shards := range []int{1, 2, 4} {
		shards := shards
		row(fmt.Sprintf("shards=%d", shards), func() qjoin.Plan {
			p, err := qjoin.PrepareSharded(q, db, shards, planOpts)
			if err != nil {
				panic(err)
			}
			return p
		})
	}
	t.print()
	fmt.Println("\n(per-shard builds run concurrently, so prepare improves with shard count when")
	fmt.Println("GOMAXPROCS > 1; the update column shows the locality win — a delta owned by")
	fmt.Println("one shard rebuilds 1/N of the data regardless of worker count)")
}

// runE18 measures the approximate-first serving tier (ISSUE 8): the mergeable
// weighted quantile summary built over the join's rank-weight distribution,
// served through the mode-aware Answer surface. Three phases — the one-time
// sketch build (the first mode=approx answer pays it, every later one reads
// anchors), per-φ serve latency of the sketch tier against the exact pivot
// loop with the certified error each answer reports, and the post-delta
// re-certification cost (a summary's first refresh: stale anchors are probed
// with trim+count, not rebuilt from scratch; later refreshes shift the windows
// by the delta's answers, see BenchmarkSketchRefresh). A sharded row shows the merged summary's serve cost
// matching the single-engine sketch.
func runE18(c *ctx) {
	n := 1 << 14
	if c.quick {
		n = 1 << 12
	}
	rng := rand.New(rand.NewSource(18))
	q, idb := workload.Path(rng, 2, n, 1<<10)
	db := qjoin.WrapDB(idb)
	f := qjoin.Sum(q.Vars()...)
	planOpts := qjoin.Options{Parallelism: benchWorkers}
	p, err := qjoin.Prepare(q, db, planOpts)
	if err != nil {
		panic(err)
	}
	nAns := p.Count()
	fmt.Printf("binary SUM join, |D| = %d, |Q(D)| = %s, workers = %d\n", db.Size(), nAns, workerCount())
	fmt.Printf("sketch resolution ε = %v (default tier); exact column is the full pivot loop\n\n", qjoin.DefaultSketchEps)

	// The summary is built lazily: the first mode=approx answer pays the
	// anchor-grid build (WarmSketches only re-certifies entries that already
	// exist), so that first call is the build cost.
	buildD := timeIt(1, func() {
		if _, err := p.Answer(f, qjoin.QuantileRequest{Phi: 0.5, Mode: qjoin.ModeApprox}); err != nil {
			panic(err)
		}
	})
	fmt.Printf("sketch build (paid by the first approx answer): %s\n\n", dur(buildD))

	reps := 7
	if c.quick {
		reps = 3
	}
	phis := []float64{0.1, 0.35, 0.5, 0.77, 0.9}
	t := &table{header: []string{"φ", "exact", "sketch", "speedup", "certified error"}}
	for _, phi := range phis {
		phi := phi
		exD := timeIt(reps, func() {
			if _, err := p.Answer(f, qjoin.QuantileRequest{Phi: phi, Mode: qjoin.ModeExact}); err != nil {
				panic(err)
			}
		})
		var a *qjoin.Answer
		skD := timeIt(reps, func() {
			var err error
			a, err = p.Answer(f, qjoin.QuantileRequest{Phi: phi, Mode: qjoin.ModeApprox})
			if err != nil {
				panic(err)
			}
		})
		if a.Source != qjoin.SourceSketch {
			panic(fmt.Sprintf("φ=%v served from %q, want sketch", phi, a.Source))
		}
		t.add(fmt.Sprint(phi), dur(exD), dur(skD),
			fmt.Sprintf("%.0f×", float64(exD)/float64(skD)),
			fmt.Sprintf("%.4f", a.ErrorBound))
	}
	t.print()

	// Re-certification after a delta: the carried anchors are stale; the first
	// warm probes each anchor with a trim+count pass instead of re-running the
	// anchor grid from scratch.
	delta := qjoin.NewDelta()
	for i := 0; i < 64; i++ {
		delta.Insert("R1", []int64{int64(1<<20 + i), int64(i)})
	}
	up, err := p.UpdatePlan(delta)
	if err != nil {
		panic(err)
	}
	warmD := timeIt(1, func() {
		if err := up.WarmSketches(); err != nil {
			panic(err)
		}
	})
	a, err := up.Answer(f, qjoin.QuantileRequest{Phi: 0.5, Mode: qjoin.ModeApprox})
	if err != nil {
		panic(err)
	}
	fmt.Printf("\npost-delta re-certification (64-op delta): %s; φ=0.5 now source=%s bound=%.4f\n",
		dur(warmD), a.Source, a.ErrorBound)

	// Sharded serving: per-shard summaries merged on demand; serve cost stays
	// in the anchor-lookup regime.
	sp, err := qjoin.PrepareSharded(q, db, 4, planOpts)
	if err != nil {
		panic(err)
	}
	if err := sp.WarmSketches(); err != nil {
		panic(err)
	}
	shD := timeIt(reps, func() {
		if _, err := sp.Answer(f, qjoin.QuantileRequest{Phi: 0.5, Mode: qjoin.ModeApprox}); err != nil {
			panic(err)
		}
	})
	fmt.Printf("shards=4 merged-summary serve (φ=0.5): %s\n", dur(shD))
	fmt.Println("\n(the sketch tier answers from precomputed anchors — serve cost is independent")
	fmt.Println("of |D|; mode=auto takes this tier only when the requested ε is at least the")
	fmt.Println("anchor's certified error, and falls back to the exact loop otherwise)")
}

// ---------------------------------------------------------------- E19

// runE19 measures cold starts (ISSUE 9): the time from process start to a
// query-ready plan, three ways — re-running Prepare on the raw data, restoring
// a versioned binary snapshot (LoadPlanBytes over the file's bytes, the
// qjq -load path), and restoring a snapshot plus replaying a write-ahead log
// of delta batches on top (the qjserve crash-recovery path). Sizes × shard
// counts; every lane is checked against the fresh plan's answers.
func runE19(c *ctx) {
	reps := 5
	if c.quick {
		reps = 2
	}
	const walBatches, walOps = 8, 16
	fmt.Printf("cold start to a query-ready plan (workers = %d; WAL lane replays %d batches of %d ops)\n\n",
		workerCount(), walBatches, walOps)
	t := &table{header: []string{"n", "shards", "|D|", "re-Prepare", "restore", "restore+WAL", "speedup"}}
	for _, n := range sizes(c, []int{1 << 12, 1 << 14, 1 << 16}) {
		for _, shards := range []int{1, 4} {
			rng := rand.New(rand.NewSource(19))
			q, idb := workload.Path(rng, 2, n, 1<<10)
			db := qjoin.WrapDB(idb)
			f := qjoin.Sum(q.Vars()...)
			opts := qjoin.Options{Parallelism: benchWorkers}
			prepare := func() qjoin.Plan {
				if shards > 1 {
					p, err := qjoin.PrepareSharded(q, db, shards, opts)
					if err != nil {
						panic(err)
					}
					return p
				}
				p, err := qjoin.Prepare(q, db, opts)
				if err != nil {
					panic(err)
				}
				return p
			}
			base := prepare()
			var buf bytes.Buffer
			if err := base.Snapshot(&buf); err != nil {
				panic(err)
			}
			blob := buf.Bytes()

			// The WAL lane's log: fsynced delta batches replayed through
			// copy-on-write UpdatePlan on the restored plan.
			walPath := filepath.Join(os.TempDir(), fmt.Sprintf("qjbench-e19-%d-%d.wal", n, shards))
			os.Remove(walPath)
			w, err := snap.OpenWAL(walPath)
			if err != nil {
				panic(err)
			}
			deltas := make([]*qjoin.Delta, walBatches)
			for b := range deltas {
				d := qjoin.NewDelta()
				for i := 0; i < walOps; i++ {
					d.Insert("R1", []int64{int64(1<<21 + b*walOps + i), int64(i % 64)})
				}
				deltas[b] = d
				if err := w.Append(uint64(b+2), d); err != nil {
					panic(err)
				}
			}
			w.Close()
			defer os.Remove(walPath)

			prepD := timeIt(reps, func() { prepare() })
			var restored qjoin.Plan
			restD := timeIt(reps, func() {
				var err error
				if restored, err = qjoin.LoadPlanBytes(blob, opts); err != nil {
					panic(err)
				}
			})
			var replayed qjoin.Plan
			walD := timeIt(reps, func() {
				p, err := qjoin.LoadPlanBytes(blob, opts)
				if err != nil {
					panic(err)
				}
				if err := snap.ReplayWAL(walPath, func(gen uint64, d *qjoin.Delta) error {
					p, err = p.UpdatePlan(d)
					return err
				}); err != nil {
					panic(err)
				}
				replayed = p
			})

			// Answer oracle: restore matches the fresh plan; the WAL lane
			// matches applying the same deltas to the fresh plan.
			mustEq := func(a, b qjoin.Plan) {
				ma, err := a.Median(f)
				if err != nil {
					panic(err)
				}
				mb, err := b.Median(f)
				if err != nil {
					panic(err)
				}
				if !reflect.DeepEqual(ma, mb) {
					panic(fmt.Sprintf("restored plan diverges: %v vs %v", ma, mb))
				}
			}
			mustEq(base, restored)
			fresh := base
			for _, d := range deltas {
				if fresh, err = fresh.UpdatePlan(d); err != nil {
					panic(err)
				}
			}
			mustEq(fresh, replayed)

			t.add(fmt.Sprint(n), fmt.Sprint(shards), fmt.Sprint(db.Size()),
				dur(prepD), dur(restD), dur(walD),
				fmt.Sprintf("%.1f×", float64(prepD)/float64(restD)))
		}
	}
	t.print()
	fmt.Println("\n(restore skips the compile passes — dedup hashing, node materialization,")
	fmt.Println("group indexing, counting — and decodes by aliasing the snapshot bytes; the")
	fmt.Println("WAL lane adds one copy-on-write UpdatePlan per logged batch, the price of")
	fmt.Println("the delta batches acknowledged since the last compaction)")
}

// ---------------------------------------------------------------- E20

// runE20 measures the cyclic-query subsystem (ISSUE 10): a cyclic query is
// rewritten over a generalized hypertree decomposition, each bag materialized
// by joining its covering atoms, and the acyclic bag query handed to the
// regular engine. The table splits the one super-quasilinear cost the
// rewrite cannot avoid — bag materialization at Prepare time — from the
// per-query pivot loop, which runs on the bag relations at the usual speed.
func runE20(c *ctx) {
	reps := 5
	if c.quick {
		reps = 2
	}
	fmt.Printf("cyclic queries over hypertree decompositions (workers = %d)\n\n", workerCount())

	type shape struct {
		name  string
		atoms int
		build func(rng *rand.Rand, n int) (*qjoin.Query, *qjoin.DB)
	}
	edges := func(rng *rand.Rand, n int, dom int64) [][]int64 {
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = []int64{rng.Int63n(dom), rng.Int63n(dom)}
		}
		return rows
	}
	shapes := []shape{
		{"triangle", 3, func(rng *rand.Rand, n int) (*qjoin.Query, *qjoin.DB) {
			q := qjoin.NewQuery(
				qjoin.NewAtom("R", "x", "y"),
				qjoin.NewAtom("S", "y", "z"),
				qjoin.NewAtom("T", "z", "x"),
			)
			dom := int64(2 + n/6)
			db := qjoin.NewDB().
				MustAdd("R", 2, edges(rng, n, dom)).
				MustAdd("S", 2, edges(rng, n, dom)).
				MustAdd("T", 2, edges(rng, n, dom))
			return q, db
		}},
		{"4-cycle", 4, func(rng *rand.Rand, n int) (*qjoin.Query, *qjoin.DB) {
			q := qjoin.NewQuery(
				qjoin.NewAtom("E1", "a", "b"),
				qjoin.NewAtom("E2", "b", "c"),
				qjoin.NewAtom("E3", "c", "d"),
				qjoin.NewAtom("E4", "d", "a"),
			)
			dom := int64(2 + n/6)
			db := qjoin.NewDB().
				MustAdd("E1", 2, edges(rng, n, dom)).
				MustAdd("E2", 2, edges(rng, n, dom)).
				MustAdd("E3", 2, edges(rng, n, dom)).
				MustAdd("E4", 2, edges(rng, n, dom))
			return q, db
		}},
	}

	t := &table{header: []string{"shape", "n/rel", "|D|", "width", "bags", "max bag", "prepare", "median", "|Q(D)|"}}
	for _, sh := range shapes {
		for _, n := range sizes(c, []int{1 << 10, 1 << 12, 1 << 14}) {
			rng := rand.New(rand.NewSource(20))
			q, db := sh.build(rng, n)
			opts := qjoin.Options{Parallelism: benchWorkers}
			var p *qjoin.Prepared
			prepD := timeIt(reps, func() {
				var err error
				if p, err = qjoin.Prepare(q, db, opts); err != nil {
					panic(err)
				}
			})
			f := qjoin.Max(q.Vars()...)
			var st *qjoin.RunStats
			qD := timeIt(reps, func() {
				var err error
				if _, st, err = p.QuantileStats(f, 0.5, opts); err != nil {
					panic(err)
				}
			})
			if st.Decomp == nil {
				panic("cyclic plan reported no decomposition stats")
			}
			t.add(sh.name, fmt.Sprint(n), fmt.Sprint(db.Size()),
				fmt.Sprint(st.Decomp.Width), fmt.Sprint(st.Decomp.Bags),
				fmt.Sprint(st.Decomp.MaxBagRows), dur(prepD), dur(qD),
				p.Count().String())
		}
	}
	t.print()
	fmt.Println("\n(prepare pays the decomposition search — a pure function of the query")
	fmt.Println("shape — plus the bag joins, the one cost quasilinear preprocessing cannot")
	fmt.Println("avoid on a cyclic query; the per-query pivot loop then runs on the acyclic")
	fmt.Println("bag query and is as fast as a native acyclic plan of the same answer count)")
}
