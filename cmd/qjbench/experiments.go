package main

import (
	"fmt"
	"math/rand"
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
			a, _, err = core.Quantile([]*engine.Engine{engineOf(q, db)}, f, phi, opts)
		})
		if err != nil {
			fmt.Printf("n=%d: driver error: %v\n", sz, err)
			continue
		}
		pd := timeIt(3, func() {
			if _, _, err := core.Quantile([]*engine.Engine{eng}, f, phi, opts); err != nil {
				panic(err)
			}
		})
		xs = append(xs, float64(db.Size()))
		ys = append(ys, float64(d.Nanoseconds()))

		baseCell, speedCell := "—", "—"
		if total.Float64() <= baselineCap {
			var b *core.Answer
			bd := timeIt(1, func() {
				b, err = core.BaselineQuantile(eng, f, phi)
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
			if _, err := core.BaselineQuantile(engineOf(q, db), f, 0.5); err != nil && err != core.ErrNoAnswers {
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
	q, db := groupedPath(rng, n)
	f := ranking.NewSum(q.Vars()...)
	total := countOf(q, db)
	fmt.Printf("full SUM on 3-path (exactly intractable), join groups of ≈ 32: n=%d per relation, |Q(D)| = %s\n", n, total)

	// Ground truth ranks via materialization (test-scale only).
	answers := materializeAll(q, db)
	fmt.Printf("ground truth materialized for error measurement (%d answers)\n\n", len(answers))

	// The rank error is the worst over a grid of φ: at the median alone the
	// lossy trims of this instance lose nothing the answer can show.
	var grid []float64
	for k := 1; k <= 19; k++ {
		grid = append(grid, float64(k)/20)
	}
	fmt.Printf("rank error: the maximum over φ = 0.05, 0.10, …, 0.95; time: mean per quantile\n\n")
	t := &table{header: []string{"ε", "time", "max iterations", "max trimmed |D'|", "max rank error", "at φ", "bound ε"}}
	for _, eps := range []float64{0.4, 0.2, 0.1, 0.05} {
		var iters, size int
		var worst, worstPhi float64
		var total time.Duration
		for _, phi := range grid {
			var a *core.Answer
			var stats *core.RunStats
			var err error
			total += timeIt(1, func() {
				a, stats, err = core.Quantile([]*engine.Engine{engineOf(q, db)}, f, phi, withWorkers(core.Options{Epsilon: eps}))
			})
			if err != nil {
				panic(err)
			}
			iters, size = max(iters, stats.Iterations), max(size, stats.MaxInstanceTuples)
			if e := rankError(answers, q, f, a, phi); e > worst {
				worst, worstPhi = e, phi
			}
		}
		at := "—"
		if worst > 0 {
			at = fmt.Sprintf("%.2f", worstPhi)
		}
		t.add(fmt.Sprintf("%.2f", eps), dur(total/time.Duration(len(grid))), fmt.Sprint(iters),
			fmt.Sprint(size), fmt.Sprintf("%.4f", worst), at, fmt.Sprintf("%.2f", eps))
		if worst > eps {
			c.fail("E08: measured rank error %.4f at φ=%.2f exceeds ε=%.2f", worst, worstPhi, eps)
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
			_, stats, err = core.Quantile([]*engine.Engine{engineOf(q, db)}, f, 0.5, withWorkers(core.Options{Epsilon: 0.25}))
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
			p, err := qjoin.Prepare(q, qjoin.WrapDB(db), qjoin.Options{Parallelism: benchWorkers})
			if err != nil {
				panic(err)
			}
			a, err := p.Answer(f, qjoin.QuantileRequest{Phi: 0.5, Eps: eps, Delta: 0.05, Mode: qjoin.ModeSample, Rand: r})
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
	fmt.Println("lossy trim output size vs ε (3-path, join groups of ≈ 32, sum < median weight):")
	t := &table{header: []string{"n per relation", "ε", "ε' per sketch", "input |D|", "output |D'|", "blowup", "kept/satisfying"}}
	for _, sz := range sizes(c, []int{256, 512, 1024}) {
		rng := rand.New(rand.NewSource(9))
		q, db := groupedPath(rng, sz)
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
			out, stats, err := trim.SumLossy(inst, f, lambda, trim.Less, eps)
			if err != nil {
				panic(err)
			}
			kept := countOf(out.Q, out.DB)
			ratio := "—"
			if satisfying > 0 {
				ratio = fmt.Sprintf("%.4f", kept.Float64()/float64(satisfying))
			}
			if k, s := kept.Float64(), float64(satisfying); k > s || k < (1-eps)*s {
				c.fail("E10: n=%d ε=%.2f kept %s of %d satisfying answers, outside [1-ε, 1]", sz, eps, kept, satisfying)
			}
			t.add(fmt.Sprint(sz), fmt.Sprintf("%.2f", eps), fmt.Sprintf("%.4f", stats.EpsPrime),
				fmt.Sprint(db.Size()), fmt.Sprint(stats.OutputTuples),
				fmt.Sprintf("%.1f×", float64(stats.OutputTuples)/float64(db.Size())), ratio)
		}
	}
	t.print()
	fmt.Println("\n(kept/satisfying is checked to lie within [1-ε, 1]; Lemma 6.3's per-sketch guarantee is")
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
			a, _, err = core.Quantile([]*engine.Engine{engineOf(q, db)}, f, 0.5, withWorkers(core.Options{}))
		})
		if err != nil {
			panic(err)
		}
		baseCell, speedCell := "—", "—"
		if total.Float64() <= 6e7 {
			var b *core.Answer
			bd := timeIt(1, func() { b, err = core.BaselineQuantile(engineOf(q, db), f, 0.5) })
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

// ---------------------------------------------------------------- helpers

// groupedPath is the 3-path R1(x1,x2), R2(x2,x3), R3(x3,x4) with n tuples per
// relation whose join values x2 and x3 take n/32 values (at least 2) and whose
// ends x1 and x4 take 1000: every join group holds ≈ 32 tuples of distinct
// weights, enough for the lossy trim's value-grouped sketches to merge (with
// groups of a few tuples, as workload.Path's domain of n/8 gives, every bucket
// holds one value and nothing is lost at any ε).
func groupedPath(rng *rand.Rand, n int) (*query.Query, *relation.Database) {
	keys := int64(max(n/32, 2))
	q := testutil.PathQuery(3)
	db := relation.NewDatabase()
	for i, dom := range [][2]int64{{1000, keys}, {keys, keys}, {keys, 1000}} {
		rel := relation.New(fmt.Sprintf("R%d", i+1), 2)
		for j := 0; j < n; j++ {
			rel.Append(rng.Int63n(dom[0]), rng.Int63n(dom[1]))
		}
		db.Add(rel)
	}
	return q, db
}

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
