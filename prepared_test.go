package qjoin_test

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/workload"
)

// petersenQuery joins the 15 edge relations of the Petersen graph: girth 5
// and 3-regular, so no bag cover within the decomposition width cap is
// acyclic — the canonical query that must fail Prepare.
func petersenQuery() *qjoin.Query {
	edges := [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0},
		{5, 7}, {7, 9}, {9, 6}, {6, 8}, {8, 5},
		{0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9},
	}
	atoms := make([]qjoin.Atom, len(edges))
	for i, e := range edges {
		atoms[i] = qjoin.NewAtom(fmt.Sprintf("E%d", i),
			qjoin.Var(fmt.Sprintf("v%d", e[0])), qjoin.Var(fmt.Sprintf("v%d", e[1])))
	}
	return qjoin.NewQuery(atoms...)
}

// diffCase is one (query, database, ranking) configuration of the
// differential matrix.
type diffCase struct {
	name string
	mk   func() (*qjoin.Query, *qjoin.DB)
	rank func(q *qjoin.Query) *qjoin.Ranking
	eps  float64 // >0: compare ApproxQuantile instead of exact Quantile
}

func diffCases() []diffCase {
	return []diffCase{
		{
			name: "social-sum",
			mk:   socialDB,
			rank: func(q *qjoin.Query) *qjoin.Ranking { return qjoin.Sum("l2", "l3") },
		},
		{
			name: "star3-min",
			mk: func() (*qjoin.Query, *qjoin.DB) {
				rng := rand.New(rand.NewSource(21))
				q, db := workload.Star(rng, 3, 80, 10, 60)
				return q, qjoin.WrapDB(db)
			},
			rank: func(q *qjoin.Query) *qjoin.Ranking { return qjoin.Min(q.Vars()...) },
		},
		{
			name: "star3-max",
			mk: func() (*qjoin.Query, *qjoin.DB) {
				rng := rand.New(rand.NewSource(22))
				q, db := workload.Star(rng, 3, 80, 10, 60)
				return q, qjoin.WrapDB(db)
			},
			rank: func(q *qjoin.Query) *qjoin.Ranking { return qjoin.Max(q.Vars()...) },
		},
		{
			name: "path3-partial-sum",
			mk: func() (*qjoin.Query, *qjoin.DB) {
				rng := rand.New(rand.NewSource(23))
				q, db := workload.Path(rng, 3, 70, 12)
				return q, qjoin.WrapDB(db)
			},
			rank: func(q *qjoin.Query) *qjoin.Ranking { return qjoin.Sum("x1", "x2", "x3") },
		},
		{
			name: "path3-lex",
			mk: func() (*qjoin.Query, *qjoin.DB) {
				rng := rand.New(rand.NewSource(24))
				q, db := workload.Path(rng, 3, 70, 12)
				return q, qjoin.WrapDB(db)
			},
			rank: func(q *qjoin.Query) *qjoin.Ranking { return qjoin.Lex("x1", "x3") },
		},
		{
			name: "path3-full-sum-approx",
			mk: func() (*qjoin.Query, *qjoin.DB) {
				rng := rand.New(rand.NewSource(25))
				q, db := workload.Path(rng, 3, 60, 10)
				return q, qjoin.WrapDB(db)
			},
			rank: func(q *qjoin.Query) *qjoin.Ranking { return qjoin.Sum(q.Vars()...) },
			eps:  0.2,
		},
	}
}

func sameAnswer(t *testing.T, label string, a, b *qjoin.Answer) {
	t.Helper()
	if !reflect.DeepEqual(a.Vars, b.Vars) || !reflect.DeepEqual(a.Values, b.Values) ||
		!reflect.DeepEqual(a.Weight, b.Weight) {
		t.Fatalf("%s: prepared answer %v (w=%v) != one-shot answer %v (w=%v)",
			label, a, a.Weight, b, b.Weight)
	}
}

// TestPreparedMatchesOneShot asserts that every Prepared method returns
// byte-identical results to the one-shot free functions, across rankings
// (SUM/MIN/MAX/LEX, exact and approximate) and a φ grid.
func TestPreparedMatchesOneShot(t *testing.T) {
	phis := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1}
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			q, db := tc.mk()
			f := tc.rank(q)
			p, err := qjoin.Prepare(q, db)
			if err != nil {
				t.Fatal(err)
			}

			freeN, err := qjoin.Count(q, db)
			if err != nil {
				t.Fatal(err)
			}
			if p.Count().Cmp(freeN) != 0 {
				t.Fatalf("count: prepared %s != free %s", p.Count(), freeN)
			}

			for _, phi := range phis {
				var pa, fa *qjoin.Answer
				var perr, ferr error
				if tc.eps > 0 {
					pa, perr = p.ApproxQuantile(f, phi, tc.eps)
					fa, ferr = qjoin.ApproxQuantile(q, db, f, phi, tc.eps)
				} else {
					pa, perr = p.Quantile(f, phi)
					fa, ferr = qjoin.Quantile(q, db, f, phi)
				}
				if perr != nil || ferr != nil {
					t.Fatalf("φ=%v: prepared err %v, free err %v", phi, perr, ferr)
				}
				sameAnswer(t, tc.name, pa, fa)
			}

			if tc.eps == 0 {
				// Selection at a few absolute indexes.
				n := freeN.Int64()
				for _, k := range []int64{0, n / 3, n - 1} {
					pa, err := p.SelectAt(f, big.NewInt(k))
					if err != nil {
						t.Fatalf("SelectAt(%d): %v", k, err)
					}
					fa, err := qjoin.SelectAt(q, db, f, big.NewInt(k))
					if err != nil {
						t.Fatalf("free SelectAt(%d): %v", k, err)
					}
					sameAnswer(t, "selectat", pa, fa)
				}

				// Ranked prefix.
				pt, err := p.TopK(f, 5)
				if err != nil {
					t.Fatal(err)
				}
				ft, err := qjoin.TopK(q, db, f, 5)
				if err != nil {
					t.Fatal(err)
				}
				if len(pt) != len(ft) {
					t.Fatalf("topk: %d vs %d answers", len(pt), len(ft))
				}
				for i := range pt {
					if !reflect.DeepEqual(pt[i].Weight, ft[i].Weight) {
						t.Fatalf("topk[%d]: weight %v vs %v", i, pt[i].Weight, ft[i].Weight)
					}
				}
			}

			// Randomized paths share the code path, so equal seeds must give
			// equal answers.
			pa, err := p.SampleQuantile(f, 0.5, 0.3, 0.1, rand.New(rand.NewSource(99)))
			if err != nil {
				t.Fatal(err)
			}
			fa, err := qjoin.SampleQuantile(q, db, f, 0.5, 0.3, 0.1, rand.New(rand.NewSource(99)))
			if err != nil {
				t.Fatal(err)
			}
			sameAnswer(t, "samplequantile", pa, fa)
		})
	}
}

// TestPreparedQuantilesMatchesLoop pins the batch method to per-φ calls.
func TestPreparedQuantilesMatchesLoop(t *testing.T) {
	q, db := socialDB()
	f := qjoin.Sum("l2", "l3")
	p, err := qjoin.Prepare(q, db)
	if err != nil {
		t.Fatal(err)
	}
	phis := []float64{0, 0.5, 1}
	batch, err := p.Quantiles(f, phis)
	if err != nil {
		t.Fatal(err)
	}
	free, err := qjoin.Quantiles(q, db, f, phis)
	if err != nil {
		t.Fatal(err)
	}
	for i := range phis {
		sameAnswer(t, "quantiles", batch[i], free[i])
	}
	if _, err := p.Quantiles(f, []float64{0.5, 7}); err == nil {
		t.Fatal("invalid φ accepted in batch")
	}
	// One shared descent answers in request order whatever the order: unsorted,
	// repeated and boundary φ's each get what a call per φ gets.
	for _, grid := range [][]float64{{1, 0}, {0.75, 0.25, 0.75, 0.5, 0.25}, {0.5, 0.5, 0.5}, {1, 0.5, 0, 0.5, 1}} {
		got, err := p.Quantiles(f, grid)
		if err != nil {
			t.Fatalf("grid %v: %v", grid, err)
		}
		if len(got) != len(grid) {
			t.Fatalf("grid %v: %d answers", grid, len(got))
		}
		for i, phi := range grid {
			want, err := p.Quantile(f, phi)
			if err != nil {
				t.Fatal(err)
			}
			sameAnswer(t, fmt.Sprintf("grid %v position %d", grid, i), got[i], want)
			if got[i].Source != want.Source || got[i].ErrorBound != want.ErrorBound {
				t.Fatalf("grid %v position %d: source %q bound %v, alone %q %v", grid, i, got[i].Source, got[i].ErrorBound, want.Source, want.ErrorBound)
			}
		}
	}
	// A bad φ anywhere fails the call before any round runs, with a typed
	// error that names it.
	for _, grid := range [][]float64{{7, 0.5}, {0.5, 0.25, math.NaN()}, {0.1, -0.5, 0.9}} {
		_, err := p.Quantiles(f, grid)
		var ae *qjoin.ArgError
		if !errors.As(err, &ae) || ae.Field != "phi" {
			t.Fatalf("grid %v: error %v, want an *ArgError on phi", grid, err)
		}
		bad := grid[0]
		for _, phi := range grid {
			if !(phi >= 0 && phi <= 1) {
				bad = phi
			}
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("φ=%v", bad)) {
			t.Fatalf("grid %v: error %q does not name φ=%v", grid, err, bad)
		}
	}
	if got, err := p.Quantiles(f, nil); err != nil || got == nil || len(got) != 0 {
		t.Fatalf("empty grid: %v, %v; want an empty slice", got, err)
	}
}

// TestPreparedErrors pins the error contract of a Prepared plan.
func TestPreparedErrors(t *testing.T) {
	// Cyclic queries prepare through a hypertree decomposition and answer
	// exactly; only a decomposition wider than the cap is an error, and it
	// is a typed *ArgError naming the query.
	tri := qjoin.NewQuery(
		qjoin.NewAtom("R", "x", "y"),
		qjoin.NewAtom("S", "y", "z"),
		qjoin.NewAtom("T", "z", "x"),
	)
	db := qjoin.NewDB()
	for _, name := range []string{"R", "S", "T"} {
		db.MustAdd(name, 2, [][]int64{{1, 1}})
	}
	p0, err := qjoin.Prepare(tri, db)
	if err != nil {
		t.Fatalf("cyclic: %v", err)
	}
	if a, err := p0.Quantile(qjoin.Sum("x", "y", "z"), 0.5); err != nil || a.Weight.K != 3 {
		t.Fatalf("cyclic quantile: a=%+v err=%v, want weight 3", a, err)
	}
	wq := petersenQuery()
	wdb := qjoin.NewDB()
	for _, a := range wq.Atoms {
		wdb.MustAdd(a.Rel, 2, [][]int64{{1, 1}})
	}
	var ae *qjoin.ArgError
	if _, err := qjoin.Prepare(wq, wdb); !errors.As(err, &ae) || ae.Field != "query" {
		t.Fatalf("width cap: err = %v, want *ArgError on query", err)
	}

	// Empty answer sets prepare fine and fail per query.
	q := qjoin.NewQuery(qjoin.NewAtom("A", "x", "y"), qjoin.NewAtom("B", "y", "z"))
	edb := qjoin.NewDB()
	edb.MustAdd("A", 2, [][]int64{{1, 5}})
	edb.MustAdd("B", 2, [][]int64{{7, 2}})
	p, err := qjoin.Prepare(q, edb)
	if err != nil {
		t.Fatal(err)
	}
	if p.Count().Sign() != 0 {
		t.Fatalf("count = %s", p.Count())
	}
	if _, err := p.Quantile(qjoin.Sum("x"), 0.5); err != qjoin.ErrNoAnswers {
		t.Fatalf("quantile on empty: %v", err)
	}
	if _, err := p.Quantiles(qjoin.Sum("x"), []float64{0.25, 1}); !errors.Is(err, qjoin.ErrNoAnswers) {
		t.Fatalf("quantiles on empty: %v", err)
	}
	if _, _, err := p.SampleAnswers(3, rand.New(rand.NewSource(1))); err != qjoin.ErrNoAnswers {
		t.Fatalf("sample on empty: %v", err)
	}

	// Intractable exact SUM still reported per query, not at Prepare time.
	path3 := qjoin.NewQuery(
		qjoin.NewAtom("R1", "x1", "x2"),
		qjoin.NewAtom("R2", "x2", "x3"),
		qjoin.NewAtom("R3", "x3", "x4"),
	)
	pdb := qjoin.NewDB()
	rng := rand.New(rand.NewSource(5))
	rows := func() [][]int64 {
		var out [][]int64
		for i := 0; i < 20; i++ {
			out = append(out, []int64{rng.Int63n(4), rng.Int63n(4)})
		}
		return out
	}
	pdb.MustAdd("R1", 2, rows())
	pdb.MustAdd("R2", 2, rows())
	pdb.MustAdd("R3", 2, rows())
	pp, err := qjoin.Prepare(path3, pdb)
	if err != nil {
		t.Fatal(err)
	}
	full := qjoin.Sum(path3.Vars()...)
	if _, err := pp.Quantile(full, 0.5); err != qjoin.ErrIntractable {
		t.Fatalf("full SUM: err = %v, want ErrIntractable", err)
	}
	if _, err := pp.ApproxQuantile(full, 0.5, 0.25); err != nil {
		t.Fatalf("approx after intractable: %v", err)
	}
}

// TestPreparedHostileArguments pins the no-crash contract for caller-supplied
// sizes and pointers: a k from the network must never size an allocation, and
// a negative count or nil index is an *ArgError, not a panic. On the parent
// commit TopK(f, 1<<40) died with an unrecoverable out-of-memory fault.
func TestPreparedHostileArguments(t *testing.T) {
	q, db := socialDB()
	f := qjoin.Sum("l2", "l3")
	flat, err := qjoin.Prepare(q, db)
	if err != nil {
		t.Fatal(err)
	}
	routed, err := qjoin.PrepareSharded(q, db, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantArg := func(what string, err error, field string) {
		t.Helper()
		var ae *qjoin.ArgError
		if !errors.As(err, &ae) || ae.Field != field {
			t.Errorf("%s: err = %v, want *ArgError on %s", what, err, field)
		}
	}
	for name, p := range map[string]*qjoin.Prepared{"unrouted": flat, "routed": routed} {
		top, err := p.TopK(f, math.MaxInt)
		if err != nil || len(top) != 4 || top[0].Weight.K != 5 || top[3].Weight.K != 12 {
			t.Errorf("%s: TopK(MaxInt) = %v, %v; want all 4 answers in weight order", name, top, err)
		}
		if top, err := p.TopK(f, 0); err != nil || top == nil || len(top) != 0 {
			t.Errorf("%s: TopK(0) = %#v, %v; want an empty non-nil list", name, top, err)
		}
		_, err = p.TopK(f, -1)
		wantArg(name+" TopK(-1)", err, "k")
		_, err = p.SelectAt(f, nil)
		wantArg(name+" SelectAt(nil)", err, "k")
	}
	_, _, err = flat.SampleAnswers(-1, rand.New(rand.NewSource(1)))
	wantArg("SampleAnswers(-1)", err, "k")
	// The engine-level drivers trust φ; the plan checks it for them.
	_, err = flat.BaselineQuantile(f, math.NaN())
	wantArg("BaselineQuantile(NaN)", err, "phi")
	_, err = flat.SampleQuantile(f, -0.5, 0.3, 0.1, rand.New(rand.NewSource(1)))
	wantArg("SampleQuantile(-0.5)", err, "phi")
	// An ε that asks for more than core.MaxSamples samples: at 1e-7 a round's
	// sample once overflowed makeslice, at 1e-10 m wrapped negative and one
	// sample a round came back as a (φ±ε) estimate.
	for _, eps := range []float64{1e-7, 1e-10} {
		_, err = flat.SampleQuantile(f, 0.5, eps, 0.1, rand.New(rand.NewSource(1)))
		wantArg(fmt.Sprintf("SampleQuantile(ε=%v)", eps), err, "eps")
		_, err = flat.Answer(f, qjoin.QuantileRequest{Phi: 0.5, Eps: eps, Delta: 0.1, Mode: qjoin.ModeSample})
		wantArg(fmt.Sprintf("Answer(ModeSample, ε=%v)", eps), err, "eps")
	}
	if _, err := flat.SampleQuantile(f, 0.5, 0.01, 0.1, rand.New(rand.NewSource(1))); err != nil {
		t.Errorf("SampleQuantile(ε=0.01), 218 358 samples: %v", err)
	}

	// The single-engine diagnostics answer on an unrouted plan only; a routed
	// plan — at any shard count — rejects them with the sampling ArgError.
	one, err := qjoin.PrepareSharded(q, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*qjoin.Prepared{"shards=3": routed, "shards=1": one} {
		rng := rand.New(rand.NewSource(1))
		_, err := p.SampleQuantile(f, 0.5, 0.3, 0.1, rng)
		wantArg(name+" SampleQuantile", err, "mode")
		_, _, err = p.SampleAnswers(2, rng)
		wantArg(name+" SampleAnswers", err, "mode")
		_, err = p.BaselineQuantile(f, 0.5)
		wantArg(name+" BaselineQuantile", err, "mode")
		_, err = p.RankedEnumerate(f)
		wantArg(name+" RankedEnumerate", err, "mode")
	}

	// What the sharding accessors report on an unrouted plan.
	if flat.Shards() != 1 || flat.Key() != "" {
		t.Errorf("unrouted plan: Shards()=%d Key()=%q, want 1 and \"\"", flat.Shards(), flat.Key())
	}
	d := qjoin.NewDelta().Insert("Share", []int64{203, 1, 10})
	if got := flat.Touched(d); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("unrouted plan: Touched = %v, want [0]", got)
	}
	if got := flat.Touched(qjoin.NewDelta()); len(got) != 0 {
		t.Errorf("unrouted plan: Touched(empty) = %v, want none", got)
	}
	if routed.Shards() != 3 || routed.Key() != "e" || one.Key() != "e" {
		t.Errorf("routed plans: Shards()=%d Key()=%q / %q", routed.Shards(), routed.Key(), one.Key())
	}
}

// TestPreparedConcurrent exercises one Prepared plan from many goroutines —
// unrouted, then routed — while a sibling goroutine chains Update +
// WarmSketches off it; run with -race it proves the documented concurrency
// contract, including that deriving plans never disturbs the receiver's
// readers or its sketch state.
func TestPreparedConcurrent(t *testing.T) {
	q, db := socialDB()
	f := qjoin.Sum("l2", "l3")
	flat, err := qjoin.Prepare(q, db)
	if err != nil {
		t.Fatal(err)
	}
	routed, err := qjoin.PrepareSharded(q, db, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*qjoin.Prepared{"unrouted": flat, "routed": routed} {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					for i := 0; i < 10; i++ {
						if a, err := p.Quantile(f, 0.5); err != nil || a.Weight.K != 9 {
							t.Errorf("quantile: %v %v", a, err)
							return
						}
						if n := p.Count(); n.Int64() != 4 {
							t.Errorf("count = %s", n)
							return
						}
						if a, err := p.SelectAt(f, big.NewInt(1)); err != nil || a.Weight.K != 7 {
							t.Errorf("selectat: %v %v", a, err)
							return
						}
						if top, err := p.TopK(f, 2); err != nil || len(top) != 2 || top[0].Weight.K != 5 {
							t.Errorf("topk: %v %v", top, err)
							return
						}
						if a, err := p.Answer(f, qjoin.QuantileRequest{Phi: 0.5, Mode: qjoin.ModeApprox}); err != nil || a.Weight.K != 9 {
							t.Errorf("approx: %v %v", a, err)
							return
						}
						cnt := 0
						if err := p.Enumerate(func([]qjoin.Var, []int64) bool { cnt++; return true }); err != nil || cnt != 4 {
							t.Errorf("enumerate: %d %v", cnt, err)
							return
						}
						if p.Key() != "" {
							continue // the sampling diagnostics answer on unrouted plans only
						}
						if _, rows, err := p.SampleAnswers(4, rng); err != nil || len(rows) != 4 {
							t.Errorf("sample: %v", err)
							return
						}
						if _, err := p.SampleQuantile(f, 0.5, 0.3, 0.1, rng); err != nil {
							t.Errorf("samplequantile: %v", err)
							return
						}
					}
				}(g)
			}
			// The writer: a chain of derived plans, each carrying p's sketch
			// state and re-certifying it, while the readers above build and
			// serve that state on p. Each link is read approximately, under
			// two rankings, on the receiver and on the derived plan while the
			// writer warms the latter: once a part has been through its first
			// refresh, the two rankings' stale parts hold one list of the
			// delta's answers between them, and whichever of the warm-up and
			// the readers gets there first consumes it.
			wg.Add(1)
			go func() {
				defer wg.Done()
				g := qjoin.Max("l2", "l3")
				for _, h := range []*qjoin.Ranking{f, g} { // the chain carries both summaries from its first link on
					if _, err := p.Answer(h, qjoin.QuantileRequest{Phi: 0, Mode: qjoin.ModeApprox}); err != nil {
						t.Errorf("approx: %v", err)
						return
					}
				}
				cur, shared := p, 0
				for i := int64(0); i < 10; i++ {
					next, err := cur.Update(qjoin.NewDelta().Insert("Share", []int64{210 + i, 1 + i%2, 20 + i}))
					if err != nil {
						t.Errorf("update %d: %v", i, err)
						return
					}
					_, _, _, underF := qjoin.SketchState(next, f)
					_, _, _, underG := qjoin.SketchState(next, g)
					for sh := range underF {
						if (underF[sh] == nil) != (underG[sh] == nil) {
							t.Errorf("update %d shard %d: one ranking has a pending list, the other none", i, sh)
						} else if underF[sh] != nil {
							if underF[sh][0] != underG[sh][0] {
								t.Errorf("update %d shard %d: the rankings hold different lists of one delta's answers", i, sh)
							}
							shared++
						}
					}
					var readers sync.WaitGroup
					for _, plan := range []*qjoin.Prepared{cur, next} {
						for h, want := range map[*qjoin.Ranking]int64{f: 5, g: 3} {
							readers.Add(1)
							go func() {
								defer readers.Done()
								if a, err := plan.Answer(h, qjoin.QuantileRequest{Phi: 0, Mode: qjoin.ModeApprox}); err != nil || a.Weight.K != want {
									t.Errorf("approx around update %d: %v %v, want weight %d", i, a, err, want)
								}
							}()
						}
					}
					if err := next.WarmSketches(); err != nil {
						t.Errorf("warm %d: %v", i, err)
					}
					readers.Wait()
					if a, err := next.Answer(f, qjoin.QuantileRequest{Phi: 0, Mode: qjoin.ModeApprox}); err != nil || a.Weight.K != 5 {
						t.Errorf("approx after update %d: %v %v", i, a, err)
						return
					}
					cur = next
				}
				if n := cur.Count().Int64(); n != 4+5*1+5*2 {
					t.Errorf("count after the chain = %d, want %d", n, 4+5*1+5*2)
				}
				if shared == 0 {
					t.Error("no update left the two rankings a shared pending list")
				}
			}()
			wg.Wait()
		})
	}
}
