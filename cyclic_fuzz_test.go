// Differential fuzzing of the cyclic-query subsystem (PR 10): cyclic shapes
// are answered through the hypertree-decomposition path at several worker
// counts and checked two ways, exactly like the acyclic columnar fuzz —
// worker counts must agree byte-for-byte (answers and RunStats, modulo bag
// materialization wall time), and the workers=1 answer must sit at the exact
// selection index of the row-oriented brute-force oracle, which joins the
// original cyclic query directly and never sees a bag. SUM rides along where
// the rewritten bag query is on the tractable side of the dichotomy; where it
// is not, every worker count must agree on ErrIntractable.
package qjoin_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/testutil"
)

// cyclicFuzzInstances builds the cyclic corpus: triangle, 4-cycle, K4
// clique, a cyclic self-join reading one stored relation three times, and a
// bag-degenerate near-acyclic shape (triangle plus a dangling ear) whose
// decomposition mixes joined bags with single-atom ones.
func cyclicFuzzInstances(rng *rand.Rand) []fuzzInstance {
	var out []fuzzInstance
	edges := func(n int, dom int64) [][]int64 {
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = []int64{rng.Int63n(dom), rng.Int63n(dom)}
		}
		return rows
	}

	{
		q := triangleQuery()
		db := qjoin.NewDB().
			MustAdd("R", 2, edges(120, 9)).
			MustAdd("S", 2, edges(120, 9)).
			MustAdd("T", 2, edges(120, 9))
		v := q.Vars()
		out = append(out, fuzzInstance{"triangle", q, db,
			[]*qjoin.Ranking{qjoin.Sum(v...), qjoin.Min(v...), qjoin.Max(v...), qjoin.Lex(v...)}})
	}
	{
		q := fourCycleQuery()
		db := qjoin.NewDB().
			MustAdd("E1", 2, edges(100, 8)).
			MustAdd("E2", 2, edges(100, 8)).
			MustAdd("E3", 2, edges(100, 8)).
			MustAdd("E4", 2, edges(100, 8))
		v := q.Vars()
		out = append(out, fuzzInstance{"fourcycle", q, db,
			[]*qjoin.Ranking{qjoin.Sum(v...), qjoin.Min(v...), qjoin.Max(v...), qjoin.Lex(v...)}})
	}
	{
		// K4: six edge relations over four vertices; the densest shape the
		// width cap admits without a real hypertree search budget.
		q := qjoin.NewQuery(
			qjoin.NewAtom("E12", "a", "b"),
			qjoin.NewAtom("E13", "a", "c"),
			qjoin.NewAtom("E14", "a", "d"),
			qjoin.NewAtom("E23", "b", "c"),
			qjoin.NewAtom("E24", "b", "d"),
			qjoin.NewAtom("E34", "c", "d"),
		)
		db := qjoin.NewDB()
		for _, name := range []string{"E12", "E13", "E14", "E23", "E24", "E34"} {
			db.MustAdd(name, 2, edges(70, 6))
		}
		v := q.Vars()
		out = append(out, fuzzInstance{"k4", q, db,
			[]*qjoin.Ranking{qjoin.Sum(v...), qjoin.Min(v...), qjoin.Max(v...), qjoin.Lex(v...)}})
	}
	{
		// Cyclic self-join: all three atoms read the same stored relation, so
		// self-join elimination runs before the decomposition sees the query.
		q := qjoin.NewQuery(
			qjoin.NewAtom("E", "x", "y"),
			qjoin.NewAtom("E", "y", "z"),
			qjoin.NewAtom("E", "z", "x"),
		)
		rows := edges(100, 7)
		for i := 0; i < 20; i++ { // raw duplicates on top
			rows = append(rows, append([]int64(nil), rows[rng.Intn(100)]...))
		}
		db := qjoin.NewDB().MustAdd("E", 2, rows)
		out = append(out, fuzzInstance{"selfjoin-triangle", q, db,
			[]*qjoin.Ranking{qjoin.Sum("x", "y", "z"), qjoin.Min("x", "z"), qjoin.Max("x", "y", "z"), qjoin.Lex("x", "z")}})
	}
	{
		// Bag-degenerate near-acyclic: a triangle with a dangling ear D(x,w).
		// The ear is already acyclic, so its bag covers a single atom and the
		// rewrite must keep it joined to the decomposed core on x.
		q := qjoin.NewQuery(
			qjoin.NewAtom("R", "x", "y"),
			qjoin.NewAtom("S", "y", "z"),
			qjoin.NewAtom("T", "z", "x"),
			qjoin.NewAtom("D", "x", "w"),
		)
		db := qjoin.NewDB().
			MustAdd("R", 2, edges(90, 8)).
			MustAdd("S", 2, edges(90, 8)).
			MustAdd("T", 2, edges(90, 8)).
			MustAdd("D", 2, edges(90, 8))
		v := q.Vars()
		out = append(out, fuzzInstance{"triangle-ear", q, db,
			[]*qjoin.Ranking{qjoin.Sum(v...), qjoin.Min(v...), qjoin.Max(v...), qjoin.Lex(v...)}})
	}
	return out
}

// TestCyclicDifferentialFuzz is the PR 10 differential: the decomposition
// path vs the row-oriented brute force on the original cyclic query, across
// rankings x phi grid x Parallelism 1/2/8.
func TestCyclicDifferentialFuzz(t *testing.T) {
	phis := []float64{0, 0.25, 0.5, 0.9, 1}
	rng := rand.New(rand.NewSource(1023))
	for _, inst := range cyclicFuzzInstances(rng) {
		inst := inst
		t.Run(inst.name, func(t *testing.T) {
			if qjoin.IsAcyclic(inst.q) {
				t.Fatalf("corpus instance %s is acyclic", inst.name)
			}
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
						// The tractability of exact SUM is a property of the
						// rewritten bag query; when it lands on the negative
						// side of the dichotomy every worker count must agree.
						if !errors.Is(err, qjoin.ErrIntractable) {
							t.Fatalf("rank %d φ=%v: %v", ri, phi, err)
						}
						for _, w := range []int{2, 8} {
							if _, _, werr := plans[w].QuantileStats(f, phi); !errors.Is(werr, qjoin.ErrIntractable) {
								t.Errorf("rank %d φ=%v workers=%d: %v, workers=1 was intractable", ri, phi, w, werr)
							}
						}
						continue
					}
					if s1.Decomp == nil || s1.Decomp.Width < 2 || s1.Decomp.Bags < 1 {
						t.Fatalf("rank %d φ=%v: implausible Decomp stats %+v", ri, phi, s1.Decomp)
					}
					for _, w := range []int{2, 8} {
						a, s, err := plans[w].QuantileStats(f, phi)
						if err != nil {
							t.Fatalf("rank %d φ=%v workers=%d: %v", ri, phi, w, err)
						}
						if !reflect.DeepEqual(a, a1) {
							t.Errorf("rank %d φ=%v workers=%d: answer %v diverged from %v", ri, phi, w, a, a1)
						}
						// Bag materialization wall time is the one
						// non-deterministic run statistic.
						if !reflect.DeepEqual(normalizeDecomp(s), normalizeDecomp(s1)) {
							t.Errorf("rank %d φ=%v workers=%d: RunStats diverged: %+v vs %+v", ri, phi, w, s, s1)
						}
					}

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

			// Snapshot round-trip: a decomposed plan's compiled artifact must
			// survive the codec and answer identically.
			loaded := snapRoundTrip(t, plans[2])
			f := inst.ranks[len(inst.ranks)-1]
			for _, phi := range []float64{0, 0.5, 1} {
				wa, err1 := plans[2].Quantile(f, phi)
				ga, err2 := loaded.Quantile(f, phi)
				if (err1 == nil) != (err2 == nil) || (err1 == nil && !reflect.DeepEqual(ga, wa)) {
					t.Errorf("snapshot φ=%v: loaded %v (%v), live %v (%v)", phi, ga, err2, wa, err1)
				}
			}
		})
	}
}
