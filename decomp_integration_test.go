// Differential tests of the cyclic-query subsystem at the public API (PR 10):
// plans over decomposed cyclic queries maintained through Prepared.Update, or
// carried through a snapshot round-trip, must answer byte-identically to a
// plan freshly prepared on the same database — with the decomposition stats
// reporting what the incremental path actually rebuilt.
package qjoin_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/decomp"
)

func triangleQuery() *qjoin.Query {
	return qjoin.NewQuery(
		qjoin.NewAtom("R", "x", "y"),
		qjoin.NewAtom("S", "y", "z"),
		qjoin.NewAtom("T", "z", "x"),
	)
}

func fourCycleQuery() *qjoin.Query {
	return qjoin.NewQuery(
		qjoin.NewAtom("E1", "a", "b"),
		qjoin.NewAtom("E2", "b", "c"),
		qjoin.NewAtom("E3", "c", "d"),
		qjoin.NewAtom("E4", "d", "a"),
	)
}

func randomEdges(rng *rand.Rand, n int, dom int64) [][]int64 {
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{rng.Int63n(dom), rng.Int63n(dom)}
	}
	return rows
}

// normalizeDecomp strips the fields that legitimately differ between an
// incrementally maintained plan and a fresh Prepare: wall time and the
// how-much-was-rebuilt accounting. The structural fields (width, bag count,
// bag sizes) must still agree exactly.
func normalizeDecomp(s *qjoin.RunStats) *qjoin.RunStats {
	if s == nil || s.Decomp == nil {
		return s
	}
	c := *s
	d := *c.Decomp
	d.MaterializeNanos = 0
	d.RematerializedBags = 0
	d.Redecomposed = false
	c.Decomp = &d
	return &c
}

// TestDecomposedUpdateMatchesReprepare drives triangle and 4-cycle plans
// through rounds of random deltas and requires the maintained plan to be
// indistinguishable from a fresh Prepare on the mutated database: identical
// counts, answers and run statistics (modulo rebuild accounting) across the
// ranking grid, φ grid and worker counts.
func TestDecomposedUpdateMatchesReprepare(t *testing.T) {
	phis := []float64{0, 0.25, 0.5, 0.9, 1}
	workersGrid := []int{1, 2, 8}
	rng := rand.New(rand.NewSource(1010))

	type tc struct {
		name string
		q    *qjoin.Query
		db   *qjoin.DB
		dom  int64
	}
	cases := []tc{
		{"triangle", triangleQuery(), qjoin.NewDB().
			MustAdd("R", 2, randomEdges(rng, 40, 7)).
			MustAdd("S", 2, randomEdges(rng, 40, 7)).
			MustAdd("T", 2, randomEdges(rng, 40, 7)), 7},
		{"fourcycle", fourCycleQuery(), qjoin.NewDB().
			MustAdd("E1", 2, randomEdges(rng, 30, 6)).
			MustAdd("E2", 2, randomEdges(rng, 30, 6)).
			MustAdd("E3", 2, randomEdges(rng, 30, 6)).
			MustAdd("E4", 2, randomEdges(rng, 30, 6)), 6},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			vars := c.q.Vars()
			ranks := []*qjoin.Ranking{
				qjoin.Min(vars...), qjoin.Max(vars...), qjoin.Lex(vars...),
			}
			p, err := qjoin.Prepare(c.q, c.db)
			if err != nil {
				t.Fatal(err)
			}
			cur := c.db
			names := cur.Relations()
			for round := 0; round < 4; round++ {
				delta := randomDelta(rng, cur.Unwrap(), names, 10, c.dom)
				p2, err := p.Update(delta)
				if err != nil {
					t.Fatalf("round %d: Update: %v", round, err)
				}
				cur2, err := cur.Apply(delta)
				if err != nil {
					t.Fatalf("round %d: Apply: %v", round, err)
				}
				fresh, err := qjoin.Prepare(c.q, cur2)
				if err != nil {
					t.Fatalf("round %d: re-Prepare: %v", round, err)
				}
				if p2.Count().Cmp(fresh.Count()) != 0 {
					t.Fatalf("round %d: count %s, fresh %s", round, p2.Count(), fresh.Count())
				}
				for _, name := range names {
					if !p2.DB().Unwrap().Get(name).Equal(cur2.Unwrap().Get(name)) {
						t.Fatalf("round %d: materialized DB diverged on %s", round, name)
					}
				}
				for ri, f := range ranks {
					for _, phi := range phis {
						for _, w := range workersGrid {
							opts := qjoin.Options{Parallelism: w}
							a1, s1, err1 := p2.QuantileStats(f, phi, opts)
							a2, s2, err2 := fresh.QuantileStats(f, phi, opts)
							if (err1 == nil) != (err2 == nil) {
								t.Fatalf("round %d rank %d φ=%v w=%d: err %v vs fresh %v", round, ri, phi, w, err1, err2)
							}
							if err1 != nil {
								if !errors.Is(err1, qjoin.ErrNoAnswers) {
									t.Fatalf("round %d rank %d φ=%v w=%d: %v", round, ri, phi, w, err1)
								}
								continue
							}
							if !reflect.DeepEqual(a1, a2) {
								t.Fatalf("round %d rank %d φ=%v w=%d: answer %v, fresh %v", round, ri, phi, w, a1, a2)
							}
							if s1.Decomp == nil || s2.Decomp == nil {
								t.Fatalf("round %d: missing Decomp stats (%v / %v)", round, s1.Decomp, s2.Decomp)
							}
							if !reflect.DeepEqual(normalizeDecomp(s1), normalizeDecomp(s2)) {
								t.Fatalf("round %d rank %d φ=%v w=%d: stats %+v / %+v, fresh %+v / %+v",
									round, ri, phi, w, *s1, *s1.Decomp, *s2, *s2.Decomp)
							}
							// A fresh materialization rebuilds every bag; the
							// incremental path at most that many.
							if s2.Decomp.RematerializedBags != s2.Decomp.Bags {
								t.Fatalf("round %d: fresh plan rebuilt %d of %d bags", round, s2.Decomp.RematerializedBags, s2.Decomp.Bags)
							}
							if s1.Decomp.RematerializedBags > s1.Decomp.Bags {
								t.Fatalf("round %d: updated plan claims %d of %d bags rebuilt", round, s1.Decomp.RematerializedBags, s1.Decomp.Bags)
							}
						}
					}
				}
				p, cur = p2, cur2
			}
		})
	}
}

// TestDecomposedUpdateTouchedBags pins the rebuild accounting: a delta
// touching one relation of the 4-cycle rematerializes only the bags covering
// that relation, a multiplicity-only delta rebuilds none, and a delta
// touching every relation degenerates into a full re-materialization with
// Redecomposed set.
func TestDecomposedUpdateTouchedBags(t *testing.T) {
	db := qjoin.NewDB().
		MustAdd("E1", 2, [][]int64{{1, 2}, {5, 6}}).
		MustAdd("E2", 2, [][]int64{{2, 3}, {6, 7}}).
		MustAdd("E3", 2, [][]int64{{3, 4}, {7, 8}}).
		MustAdd("E4", 2, [][]int64{{4, 1}, {8, 5}})
	p, err := qjoin.Prepare(fourCycleQuery(), db)
	if err != nil {
		t.Fatal(err)
	}
	stats := func(p *qjoin.Prepared) *decomp.Stats {
		t.Helper()
		_, s, err := p.QuantileStats(qjoin.Max("a", "b", "c", "d"), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if s.Decomp == nil {
			t.Fatal("no Decomp stats on a cyclic plan")
		}
		return s.Decomp
	}
	base := stats(p)
	if base.RematerializedBags != base.Bags || base.Bags < 2 {
		t.Fatalf("fresh plan stats %+v", *base)
	}

	// One relation touched: only the bags covering E1 rebuild.
	p1, err := p.Update(qjoin.NewDelta().Insert("E1", []int64{9, 9}))
	if err != nil {
		t.Fatal(err)
	}
	s1 := stats(p1)
	if s1.RematerializedBags == 0 || s1.RematerializedBags >= s1.Bags {
		t.Fatalf("single-relation delta rebuilt %d of %d bags", s1.RematerializedBags, s1.Bags)
	}
	if s1.Redecomposed {
		t.Fatal("single-relation delta flagged Redecomposed")
	}

	// Multiplicity-only delta (duplicate insert of a present tuple): the
	// answer set is unchanged, so no bag rebuilds and the fast path carries
	// the compiled artifact.
	pm, err := p.Update(qjoin.NewDelta().Insert("E1", []int64{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	sm := stats(pm)
	if sm.RematerializedBags != base.Bags {
		// The carried stats are the receiver's: a fresh materialization.
		t.Fatalf("multiplicity-only delta reports %d rebuilt bags, want carried %d", sm.RematerializedBags, base.Bags)
	}
	if pm.Count().Cmp(p.Count()) != 0 {
		t.Fatalf("multiplicity-only delta changed the count: %s vs %s", pm.Count(), p.Count())
	}

	// Every relation touched: the incremental path degenerates into a full
	// re-materialization and says so.
	all := qjoin.NewDelta().
		Insert("E1", []int64{20, 21}).
		Insert("E2", []int64{21, 22}).
		Insert("E3", []int64{22, 23}).
		Insert("E4", []int64{23, 20})
	pa, err := p.Update(all)
	if err != nil {
		t.Fatal(err)
	}
	sa := stats(pa)
	if sa.RematerializedBags != sa.Bags || !sa.Redecomposed {
		t.Fatalf("all-relations delta stats %+v, want full rebuild with Redecomposed", *sa)
	}
	a, err := pa.Quantile(qjoin.Min("a", "b", "c", "d"), 0)
	if err != nil || a.Weight.K != 1 {
		t.Fatalf("post-update φ=0 MIN = %v, %v", a, err)
	}

	// A delete with no remaining occurrence rejects atomically, decomposed or
	// not.
	if _, err := p.Update(qjoin.NewDelta().Delete("E2", []int64{99, 99})); !errors.Is(err, qjoin.ErrDeleteAbsent) {
		t.Fatalf("delete-absent on a decomposed plan = %v, want ErrDeleteAbsent", err)
	}
}

// TestDecomposedSnapshotRoundTrip snapshots a decomposed triangle plan,
// restores it, and requires identical answers — then updates the restored
// plan (exercising the lazily rebuilt pre-decomposition database) and checks
// it against a fresh Prepare on the mutated data.
func TestDecomposedSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	db := qjoin.NewDB().
		MustAdd("R", 2, randomEdges(rng, 50, 8)).
		MustAdd("S", 2, randomEdges(rng, 50, 8)).
		MustAdd("T", 2, randomEdges(rng, 50, 8))
	q := triangleQuery()
	live, err := qjoin.Prepare(q, db, qjoin.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	loaded := snapRoundTrip(t, live)

	vars := q.Vars()
	ranks := []*qjoin.Ranking{qjoin.Min(vars...), qjoin.Max(vars...), qjoin.Lex(vars...)}
	if live.Count().Cmp(loaded.Count()) != 0 {
		t.Fatalf("count diverged: live %s, loaded %s", live.Count(), loaded.Count())
	}
	for _, f := range ranks {
		for _, phi := range []float64{0, 0.3, 0.5, 1} {
			wa, ws, err1 := live.QuantileStats(f, phi)
			ga, gs, err2 := loaded.QuantileStats(f, phi)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("φ=%v: err %v vs %v", phi, err1, err2)
			}
			if err1 != nil {
				if !errors.Is(err1, qjoin.ErrNoAnswers) {
					t.Fatalf("φ=%v: %v", phi, err1)
				}
				continue
			}
			if !reflect.DeepEqual(ga, wa) {
				t.Fatalf("φ=%v: answer diverged: loaded %v, live %v", phi, ga, wa)
			}
			// The restored engine recomputes the structural decomposition
			// stats from the snapshot; only the wall time and rebuild
			// accounting are process-local.
			if gs.Decomp == nil || ws.Decomp == nil {
				t.Fatalf("φ=%v: missing Decomp stats (loaded %v, live %v)", phi, gs.Decomp, ws.Decomp)
			}
			if gs.Decomp.Width != ws.Decomp.Width || gs.Decomp.Bags != ws.Decomp.Bags ||
				gs.Decomp.MaxBagRows != ws.Decomp.MaxBagRows || gs.Decomp.TotalBagRows != ws.Decomp.TotalBagRows {
				t.Fatalf("φ=%v: structural stats diverged: loaded %+v, live %+v", phi, *gs.Decomp, *ws.Decomp)
			}
			if gs.Decomp.MaterializeNanos != 0 {
				t.Fatalf("φ=%v: restored plan claims %dns of materialization", phi, gs.Decomp.MaterializeNanos)
			}
		}
	}

	// Update the restored plan: the pre-decomposition database is rebuilt
	// lazily from the snapshot's relations, then the touched bags rejoin.
	delta := qjoin.NewDelta().Insert("R", []int64{1, 2}, []int64{2, 3}).Insert("S", []int64{2, 3})
	up, err := loaded.Update(delta)
	if err != nil {
		t.Fatalf("post-restore Update: %v", err)
	}
	db2, err := db.Apply(delta)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := qjoin.Prepare(q, db2, qjoin.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if up.Count().Cmp(fresh.Count()) != 0 {
		t.Fatalf("post-restore update count %s, fresh %s", up.Count(), fresh.Count())
	}
	for _, f := range ranks {
		for _, phi := range []float64{0, 0.5, 1} {
			a1, err1 := up.Quantile(f, phi)
			a2, err2 := fresh.Quantile(f, phi)
			if (err1 == nil) != (err2 == nil) || (err1 == nil && !reflect.DeepEqual(a1, a2)) {
				t.Fatalf("post-restore φ=%v: %v (%v) vs fresh %v (%v)", phi, a1, err1, a2, err2)
			}
		}
	}
}

// TestDecomposedUpdateOfCoveredAtom: the triangle's bag {R,S} covers T, so a
// delta touching only T rebuilds that bag as well as T's own, and the updated
// plan is indistinguishable from a fresh Prepare — answers and run statistics
// alike (modulo rebuild accounting).
func TestDecomposedUpdateOfCoveredAtom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db := qjoin.NewDB().
		MustAdd("R", 2, randomEdges(rng, 60, 8)).
		MustAdd("S", 2, randomEdges(rng, 60, 8)).
		MustAdd("T", 2, randomEdges(rng, 60, 8))
	q := triangleQuery()
	p, err := qjoin.Prepare(q, db)
	if err != nil {
		t.Fatal(err)
	}
	// Insert a T row that closes a triangle the database does not have yet.
	r, s, tt := db.Unwrap().Get("R"), db.Unwrap().Get("S"), db.Unwrap().Get("T")
	has := make(map[[2]int64]bool)
	for i := 0; i < tt.Len(); i++ {
		has[[2]int64{tt.Get(i, 0), tt.Get(i, 1)}] = true
	}
	var closing []int64
	for i := 0; i < r.Len() && closing == nil; i++ {
		for j := 0; j < s.Len(); j++ {
			if x, y, z := r.Get(i, 0), r.Get(i, 1), s.Get(j, 1); s.Get(j, 0) == y && !has[[2]int64{z, x}] {
				closing = []int64{z, x}
				break
			}
		}
	}
	if closing == nil {
		t.Fatal("every R-S path is closed already")
	}
	delta := qjoin.NewDelta().Insert("T", closing)
	up, err := p.Update(delta)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := db.Apply(delta)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := qjoin.Prepare(q, db2)
	if err != nil {
		t.Fatal(err)
	}
	if up.Count().Cmp(fresh.Count()) != 0 || up.Count().Cmp(p.Count()) <= 0 {
		t.Fatalf("count %s after the delta, fresh %s, before %s: the delta must add answers", up.Count(), fresh.Count(), p.Count())
	}
	vars := q.Vars()
	for _, f := range []*qjoin.Ranking{qjoin.Min(vars...), qjoin.Max(vars...), qjoin.Lex(vars...)} {
		for _, phi := range []float64{0, 0.5, 1} {
			a1, s1, err1 := up.QuantileStats(f, phi)
			a2, s2, err2 := fresh.QuantileStats(f, phi)
			if err1 != nil || err2 != nil {
				t.Fatalf("φ=%v: %v / %v", phi, err1, err2)
			}
			if !reflect.DeepEqual(a1, a2) {
				t.Fatalf("φ=%v: answer %v, fresh %v", phi, a1, a2)
			}
			if !reflect.DeepEqual(normalizeDecomp(s1), normalizeDecomp(s2)) {
				t.Fatalf("φ=%v: stats %+v / %+v, fresh %+v / %+v", phi, *s1, *s1.Decomp, *s2, *s2.Decomp)
			}
			if s1.Decomp.RematerializedBags != s1.Decomp.Bags {
				t.Fatalf("a delta to the covered atom rebuilt %d of %d bags", s1.Decomp.RematerializedBags, s1.Decomp.Bags)
			}
		}
	}
}
