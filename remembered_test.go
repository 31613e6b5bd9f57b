package qjoin_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/core"
	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/testutil"
	"github.com/quantilejoins/qjoin/internal/workload"
)

// rememberedCheck asks a plan a grid of exact quantiles under every ranking
// and holds each answer against the brute-force oracle over db, and answer and
// RunStats against a plan compiled fresh over db for that request alone. It
// returns how many rounds the first request under each ranking took from the
// plan's pivot tree, and how many all of them did.
func rememberedCheck(t *testing.T, name string, p *qjoin.Prepared, q *qjoin.Query, db *qjoin.DB, ranks []*qjoin.Ranking) (first, all int) {
	t.Helper()
	oracle := testutil.BruteForce(q, db.Unwrap())
	opts := qjoin.Options{Parallelism: 1, MaterializeThreshold: 8, CollectPhases: true}
	for _, f := range ranks {
		sorted := append([][]relation.Value(nil), oracle...)
		testutil.SortByWeight(sorted, f, q.Vars())
		for i, phi := range []float64{0.5, 0.1, 0.9, 0.5, 0.33} {
			where := fmt.Sprintf("%s %s%v φ=%v", name, f.Agg, f.Vars, phi)
			got, gotStats, err := p.QuantileStats(f, phi, opts)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			var fresh *qjoin.Prepared
			if p.Shards() > 1 {
				fresh, err = qjoin.PrepareSharded(q, db, p.Shards(), opts)
			} else {
				fresh, err = qjoin.Prepare(q, db, opts)
			}
			if err != nil {
				t.Fatalf("%s: fresh plan: %v", where, err)
			}
			want, wantStats, err := fresh.QuantileStats(f, phi, opts)
			if err != nil {
				t.Fatalf("%s: fresh plan: %v", where, err)
			}
			k, _ := core.Index(counting.FromInt(len(sorted)), phi).Uint64()
			if !reflect.DeepEqual(got.Values, sorted[k]) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: answer %v, a fresh plan's %v, oracle %v", where, got, want, sorted[k])
			}
			if i == 0 {
				first += gotStats.Phases.Remembered
			}
			all += gotStats.Phases.Remembered
			if wantStats.Phases.Remembered != 0 || gotStats.Iterations == 0 {
				t.Fatalf("%s: a fresh plan remembered %d rounds; the run walked %d", where, wantStats.Phases.Remembered, gotStats.Iterations)
			}
			g, w := *gotStats, *wantStats
			g.Phases, w.Phases = nil, nil
			if g != w {
				t.Fatalf("%s: stats %+v, a fresh plan's %+v", where, g, w)
			}
		}
	}
	return first, all
}

// What a plan remembers of its descents lives and dies with the set view it
// was remembered over. On an unrouted and on a 3-shard plan: a warm plan
// answers from its pivot trees; a multiplicity-only Update carries them (the
// derived plan's first request walks remembered rounds); a set-changing Update
// — unrouted, and routed to a shard other than the first, where the cache the
// tree sits in is not even replaced — starts over, as does a plan restored
// from a snapshot, and the receiver of each Update keeps answering from its
// own. At every step answers are the oracle's over DB.Apply's database and
// RunStats those of a fresh Prepare on it.
func TestRememberedDescentsFollowThePlan(t *testing.T) {
	rng := rand.New(rand.NewSource(2208))
	q, idb := workload.Path(rng, 2, 500, 18)
	db := qjoin.WrapDB(idb)
	ranks := []*qjoin.Ranking{qjoin.Sum(q.Vars()...), qjoin.Max("x1", "x3"), qjoin.Lex("x3", "x1"), qjoin.Min("x1", "x2")}
	for _, shards := range []int{1, 3} {
		name := fmt.Sprintf("shards=%d", shards)
		var base *qjoin.Prepared
		var err error
		if shards > 1 {
			base, err = qjoin.PrepareSharded(q, db, shards)
		} else {
			base, err = qjoin.Prepare(q, db)
		}
		if err != nil {
			t.Fatal(err)
		}
		if first, all := rememberedCheck(t, name+" cold", base, q, db, ranks); first != 0 || all == 0 {
			t.Fatalf("%s: a new plan remembered %d rounds on its first requests, %d in all", name, first, all)
		}

		// A second copy of a stored row: multiplicities move, sets do not.
		dupDelta := qjoin.NewDelta().Insert("R1", idb.Get("R1").RowValues(3))
		dupDB, err := db.Apply(dupDelta)
		if err != nil {
			t.Fatal(err)
		}
		dup, err := base.Update(dupDelta)
		if err != nil {
			t.Fatal(err)
		}
		if first, _ := rememberedCheck(t, name+" multiplicity-only", dup, q, dupDB, ranks); first == 0 {
			t.Fatalf("%s: a multiplicity-only Update lost the pivot trees", name)
		}

		// Rows that join and are new; routed, they all go to one shard that is
		// not the first.
		var setDelta *qjoin.Delta
		for v := int64(5000); ; v++ {
			setDelta = qjoin.NewDelta()
			for i := int64(0); i < 25; i++ {
				setDelta.Insert("R1", []int64{v + 100*i, idb.Get("R1").RowValues(0)[1]})
			}
			if touched := dup.Touched(setDelta); len(touched) == 1 && (shards == 1 || touched[0] != 0) {
				break
			}
		}
		setDB, err := dupDB.Apply(setDelta)
		if err != nil {
			t.Fatal(err)
		}
		moved, err := dup.Update(setDelta)
		if err != nil {
			t.Fatal(err)
		}
		if shards > 1 && qjoin.Engines(moved)[0] != qjoin.Engines(dup)[0] {
			t.Fatalf("%s: the delta rebuilt the first shard", name)
		}
		if first, all := rememberedCheck(t, name+" set-changing", moved, q, setDB, ranks); first != 0 || all == 0 {
			t.Fatalf("%s: after a set-changing Update the first requests remembered %d rounds (%d in all): the old plan's trees were consulted", name, first, all)
		}
		// The receiver is still a plan over its own database.
		rememberedCheck(t, name+" receiver", dup, q, dupDB, ranks)

		var buf bytes.Buffer
		if err := moved.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := qjoin.LoadPreparedBytes(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if first, all := rememberedCheck(t, name+" restored", restored, q, setDB, ranks); first != 0 || all == 0 {
			t.Fatalf("%s: a restored plan remembered %d rounds on its first requests, %d in all", name, first, all)
		}
	}
}

// An Update that inserts rows into a warm slice is answered as a fresh plan
// answers it. A dense 2-path plan is warmed under MAX, MIN and LEX until its
// slices are cut from weight orders; the delta then adds rows to both relations
// whose ranked weights sit on the median answer's — inside the very slice the
// median's request cuts — and on the updated plan every request, asked once
// cold and once warm (cut from the orders it builds again), returns the answer
// of a plan compiled over DB.Apply's database. An order kept from the old
// relations would miss the new rows of the slice.
func TestUpdateIntoAWarmSliceMatchesAFreshPlan(t *testing.T) {
	q, idb := workload.Path(rand.New(rand.NewSource(71)), 2, 1500, 48)
	db := qjoin.WrapDB(idb)
	ranks := []*qjoin.Ranking{qjoin.Max("x1", "x3"), qjoin.Min("x1", "x2", "x3"), qjoin.Lex("x1", "x3")}
	phis := []float64{0.5, 0.2, 0.8, 0.47, 0.53, 0.05}
	opts := qjoin.Options{Parallelism: 1, CollectPhases: true}
	p, err := qjoin.Prepare(q, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for _, f := range ranks {
			for _, phi := range phis {
				if _, err := p.Quantile(f, phi, opts); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	delta := qjoin.NewDelta()
	for _, f := range ranks {
		a, err := p.Quantile(f, 0.5, opts)
		if err != nil {
			t.Fatal(err)
		}
		x1, x2, x3 := a.Values[0], a.Values[1], a.Values[2]
		for k := int64(0); k < 6; k++ {
			delta.Insert("R1", []int64{x1, (x2 + k) % 48})
			delta.Insert("R2", []int64{(x2 + k) % 48, x3})
		}
	}
	p2, err := p.Update(delta)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := db.Apply(delta)
	if err != nil {
		t.Fatal(err)
	}
	for pass, name := range []string{"cold", "warm"} {
		for _, f := range ranks {
			for _, phi := range phis {
				where := fmt.Sprintf("%s %s%v φ=%v", name, f.Agg, f.Vars, phi)
				got, gotStats, err := p2.QuantileStats(f, phi, opts)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				fresh, err := qjoin.Prepare(q, db2, opts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Quantile(f, phi, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Values, want.Values) || !reflect.DeepEqual(got.Weight, want.Weight) {
					t.Fatalf("%s: updated plan answers %v, a fresh plan %v", where, got, want)
				}
				if pass == 1 && gotStats.Phases.Remembered != gotStats.Iterations {
					t.Fatalf("%s: the warm pass remembered %d of %d rounds", where, gotStats.Phases.Remembered, gotStats.Iterations)
				}
			}
		}
	}
}

// A warm plan updated three times answers as a fresh plan does, after each
// update cold and then warm: on a 2-path whose tree has R2 at the root and R1
// below it, one delta changes the parent relation (it adds R2 rows, some with
// an x2 no R1 row has), one adds child groups (R1 rows with that x2, which the
// dangling R2 rows now join), and one only deletes child rows. The first two
// give the edge a new parent-gid array, and so an inverse built afresh for its
// warm slices; the last keeps the array.
func TestUpdatesOfAWarmPlanMatchFreshPlans(t *testing.T) {
	q, idb := workload.Path(rand.New(rand.NewSource(72)), 2, 1500, 48)
	db := qjoin.WrapDB(idb)
	ranks := []*qjoin.Ranking{qjoin.Lex("x1", "x3"), qjoin.Max("x1", "x3"), qjoin.Min("x1", "x2", "x3")}
	phis := []float64{0.5, 0.2, 0.8, 0.47, 0.05}
	opts := qjoin.Options{Parallelism: 1, CollectPhases: true}
	p, err := qjoin.Prepare(q, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	ask := func(p *qjoin.Prepared, pass string) {
		for _, f := range ranks {
			for _, phi := range phis {
				if _, err := p.Quantile(f, phi, opts); err != nil {
					t.Fatalf("%s %s%v φ=%v: %v", pass, f.Agg, f.Vars, phi, err)
				}
			}
		}
	}
	ask(p, "first")
	ask(p, "warm")
	r1 := idb.Get("R1")
	var gone [][]int64
	for i := 0; i < r1.Len(); i += 50 {
		gone = append(gone, r1.RowValues(i))
	}
	for _, d := range []struct {
		name  string
		delta *qjoin.Delta
	}{
		{"parent rows added", qjoin.NewDelta().Insert("R2", []int64{48, 3}, []int64{48, 17}, []int64{5, 60})},
		{"child groups added", qjoin.NewDelta().Insert("R1", []int64{4, 48}, []int64{9, 48}, []int64{30, 49})},
		{"child rows deleted", qjoin.NewDelta().Delete("R1", gone...)},
	} {
		if p, err = p.Update(d.delta); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if db, err = db.Apply(d.delta); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		fresh, err := qjoin.Prepare(q, db, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, pass := range []string{"cold", "warm"} {
			for _, f := range ranks {
				for _, phi := range phis {
					where := fmt.Sprintf("%s, %s %s%v φ=%v", d.name, pass, f.Agg, f.Vars, phi)
					got, stats, err := p.QuantileStats(f, phi, opts)
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					want, err := fresh.Quantile(f, phi, opts)
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if !reflect.DeepEqual(got.Values, want.Values) || !reflect.DeepEqual(got.Weight, want.Weight) {
						t.Fatalf("%s: updated plan answers %v, a fresh plan %v", where, got, want)
					}
					if pass == "warm" && stats.Phases.Remembered != stats.Iterations {
						t.Fatalf("%s: %d of %d rounds remembered", where, stats.Phases.Remembered, stats.Iterations)
					}
				}
			}
		}
	}
}
