package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/shard"
	"github.com/quantilejoins/qjoin/internal/testutil"
	"github.com/quantilejoins/qjoin/internal/trim"
	"github.com/quantilejoins/qjoin/internal/workload"
)

// Every band an exact run cuts comes with its executable tree, derived from
// the original's inside the trim: on the repository benchmark's dense 2-path
// (here at a sixteenth of its size, |Q(D)| = 8·|D| all the same) under the four
// rankings of its request rotation — one per trim construction — unrouted and
// at 4 shards, on a plan nobody has asked and on the same plan asked again, the
// phase log counts cuts and not one rebuild. A lossy run's bands are sketch
// embeddings, which carry no tree: there every cut is a rebuild.
func TestExactCutsAreNeverRebuilt(t *testing.T) {
	q, db := workload.Path(rand.New(rand.NewSource(1)), 2, 1<<10, 1<<6)
	ranks := []*ranking.Func{ranking.NewSum("x1", "x2", "x3"), ranking.NewMax("x1", "x3"), ranking.NewLex("x1", "x3"), ranking.NewMin("x1", "x2", "x3")}
	opts := Options{Parallelism: 1, CollectPhases: true}
	for _, shards := range []int{1, 4} {
		sh, err := shard.Partition(q, db, shards)
		if err != nil {
			t.Fatal(err)
		}
		for _, pass := range []string{"cold", "warm"} {
			for _, f := range ranks {
				cuts := 0
				for _, phi := range []float64{0.5, 0.03, 0.97, 0.31, 0.72} {
					_, stats, err := Quantile(sh.Engines(), f, phi, opts)
					name := fmt.Sprintf("shards=%d %s %s%v φ=%v", shards, pass, f.Agg, f.Vars, phi)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if pass == "warm" && stats.Phases.Remembered != stats.Iterations {
						t.Fatalf("%s: %d of %d rounds remembered", name, stats.Phases.Remembered, stats.Iterations)
					}
					if stats.Phases.Rebuilt != 0 {
						t.Fatalf("%s: %d of %d cuts rebuilt their tree", name, stats.Phases.Rebuilt, stats.Phases.Cuts)
					}
					cuts += stats.Phases.Cuts
				}
				if cuts == 0 {
					t.Fatalf("shards=%d %s %s%v: no run cut a band", shards, pass, f.Agg, f.Vars)
				}
			}
		}
		_, stats, err := Quantile(sh.Engines(), ranks[0], 0.5, Options{Parallelism: 1, CollectPhases: true, ForceLossy: true, Epsilon: 0.2})
		if err != nil || !stats.Lossy {
			t.Fatalf("shards=%d lossy: err %v, lossy %v", shards, err, stats.Lossy)
		}
		if stats.Phases.Cuts == 0 || stats.Phases.Rebuilt != stats.Phases.Cuts {
			t.Fatalf("shards=%d lossy: %d of %d cuts rebuilt their tree, want all", shards, stats.Phases.Rebuilt, stats.Phases.Cuts)
		}
	}
}

// A warm MIN / MAX / LEX slice is cut from the rows its boxes reach, not from
// every relation: on the plan and the 396-request rotation of
// BenchmarkRememberedQuantile (the repository benchmark's dense 2-path, 2¹⁵
// tuples), asked a second time, the mean PhaseLog.Tested per cut of those
// rankings stays under |D|/16 (≈ 530–690 rows against 2 032). A box that scans
// its relations tests all |D| of their rows, and every such band has at least
// two boxes, so a run without weight orders tests at least 2·|D| per cut. The
// first pass asks for the orders and builds each of the three ranked
// variables' once, and the inverse of the tree's one edge beside them.
//
// A warm SUM slice hands the staircase only the join groups it reached the
// first time it was cut: the mean PhaseLog.Visited per warm SUM cut stays
// under |D|/4, about half of either relation (≈ 5 400 rows of 16 257), where
// the first pass, which meets most of its bands for the first time, visits
// more (≈ 13 100). No other ranking visits a row.
func TestWarmSliceCutsTestFewRows(t *testing.T) {
	q, db := workload.Path(rand.New(rand.NewSource(13)), 2, 1<<14, 1<<10)
	eng, err := engine.New(q, db)
	if err != nil {
		t.Fatal(err)
	}
	engs := []*engine.Engine{eng}
	ranks := []*ranking.Func{ranking.NewSum("x1", "x2", "x3"), ranking.NewMax("x1", "x3"), ranking.NewLex("x1", "x3"), ranking.NewMin("x1", "x2", "x3")}
	rng := rand.New(rand.NewSource(22))
	phis := make([]float64, 396)
	for i := range phis {
		phis[i] = float64(1+rng.Intn(99)) / 100
	}
	size := eng.DB().Size()
	for _, pass := range []string{"first", "warm"} {
		tested, cuts := map[ranking.Agg]int{}, map[ranking.Agg]int{}
		visited := 0
		for i, phi := range phis {
			f := ranks[i%len(ranks)]
			_, stats, err := Quantile(engs, f, phi, Options{Parallelism: 1, CollectPhases: true})
			if err != nil {
				t.Fatalf("%s pass, request %d: %v", pass, i, err)
			}
			tested[f.Agg] += stats.Phases.Tested
			cuts[f.Agg] += stats.Phases.Cuts
			visited += stats.Phases.Visited
			if f.Agg != ranking.Sum && stats.Phases.Visited != 0 {
				t.Fatalf("%s pass, request %d: a %s run visited %d staircase rows", pass, i, f.Agg, stats.Phases.Visited)
			}
			if f.Agg == ranking.Sum && stats.Phases.Tested != 0 {
				t.Fatalf("%s pass, request %d: a SUM run tested %d rows", pass, i, stats.Phases.Tested)
			}
		}
		visits := float64(visited) / float64(cuts[ranking.Sum])
		t.Logf("%s pass: SUM: %d cuts, %.0f staircase rows visited per cut (|D| = %d)", pass, cuts[ranking.Sum], visits, size)
		if (pass == "warm") != (visits < float64(size)/4) {
			t.Errorf("%s pass: a SUM cut visits %.0f rows on average, |D|/4 = %d", pass, visits, size/4)
		}
		if pass == "first" {
			if got := eng.TrimCache().OrdersBuilt(); got != 3 {
				t.Fatalf("first pass built %d weight orders, want 3 (x1, x2, x3)", got)
			}
			if got := eng.TrimCache().InversesBuilt(); got != 1 {
				t.Fatalf("first pass built %d inverses, want 1 (the tree has one edge)", got)
			}
			continue
		}
		for _, agg := range []ranking.Agg{ranking.Max, ranking.Lex, ranking.Min} {
			mean := float64(tested[agg]) / float64(cuts[agg])
			t.Logf("%s: %d cuts, %.0f rows tested per cut (|D| = %d)", agg, cuts[agg], mean, size)
			if mean >= float64(size)/16 {
				t.Errorf("%s: a warm cut tests %.0f rows on average, |D|/16 = %d", agg, mean, size/16)
			}
		}
	}
	if got, inv := eng.TrimCache().OrdersBuilt(), eng.TrimCache().InversesBuilt(); got != 3 || inv != 1 {
		t.Fatalf("%d weight orders and %d inverses built after the warm pass, want 3 and 1", got, inv)
	}
}

// BenchmarkBandDerive — what deriving a partitioned band's tree from the
// original's is worth (ISSUE 24), on the repository benchmark's dense 2-path:
// "derived" cuts a 4-box LEX band and a staircase SUM band between the 45th and
// 55th percentile weights out of the engine's instance and takes each one's
// tree as the driver does (execOf: the trim derived it); "rebuilt" cuts the same
// bands out of the same instance without its Exec, so that execOf builds the
// trees afresh — join tree, key interning, gid lookups. The derived LEX band
// also reduces its boxes' row lists through the tree and gathers only the rows
// on an answer; the rebuilt one, with no tree to reduce through, gathers every
// row its tests pass. Both sides cut from the plan's cache, so from the second
// iteration on the SUM band merges only the join groups it reached. CI's
// scaling gate: derived min ns/op ≤ 0.75× rebuilt (0.38–0.56 in the CI form,
// 3x, at GOMAXPROCS=4 on a 2-vCPU box; 0.47–0.76 there while the SUM band
// merged every group; 0.59–0.60 in the CI form, 3x; 0.57–0.61 at -benchtime
// 200x and 0.39–0.65 at 3x before the reduction).
func BenchmarkBandDerive(b *testing.B) {
	q, db := workload.Path(rand.New(rand.NewSource(1)), 2, 1<<14, 1<<10)
	engs := engines(b, q, db)
	eng := engs[0]
	type band struct {
		cut       func(inst trim.Instance, low, high ranking.Bound) (trim.Instance, error)
		low, high ranking.Bound
	}
	var bands []band
	for _, f := range []*ranking.Func{ranking.NewLex("x1", "x3"), ranking.NewSum("x1", "x2", "x3")} {
		trm, err := makeTrimmer(eng, f, Options{})
		if err != nil {
			b.Fatal(err)
		}
		bd := band{cut: trm.exact}
		for _, at := range []struct {
			phi float64
			to  *ranking.Bound
		}{{0.45, &bd.low}, {0.55, &bd.high}} {
			a, _, err := Quantile(engs, f, at.phi, Options{Parallelism: 1})
			if err != nil {
				b.Fatal(err)
			}
			*at.to = ranking.Finite(a.Weight)
		}
		bands = append(bands, bd)
	}
	inst := trim.Instance{Q: eng.Query(), DB: eng.DB(), Workers: 1, Exec: eng.Exec(), Cache: eng.TrimCache()}
	for _, side := range []string{"derived", "rebuilt"} {
		b.Run(side, func(b *testing.B) {
			from := inst
			if side == "rebuilt" {
				from.Exec = nil
			}
			for b.Loop() {
				for _, bd := range bands {
					out, err := bd.cut(from, bd.low, bd.high)
					if err != nil || (out.Exec != nil) != (side == "derived") {
						b.Fatalf("band: err %v, carries an Exec: %v", err, out.Exec != nil)
					}
					if _, err := execOf(out); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// sameCut holds a band to another cut of it, byte for byte: the output query,
// every relation with its identifier column, and the derived tree.
func sameCut(t *testing.T, name string, got, want trim.Instance) {
	t.Helper()
	if got.Q.String() != want.Q.String() {
		t.Fatalf("%s: query %s, want %s", name, got.Q, want.Q)
	}
	for _, atom := range want.Q.Atoms {
		if g, w := got.DB.Get(atom.Rel), want.DB.Get(atom.Rel); !g.Equal(w) {
			t.Fatalf("%s: %s holds %d rows, want %d, or they differ", name, atom.Rel, g.Len(), w.Len())
		}
	}
	if (got.Exec == nil) != (want.Exec == nil) {
		t.Fatalf("%s: derived a tree %v, want %v", name, got.Exec != nil, want.Exec != nil)
	}
	if got.Exec != nil {
		testutil.SameExec(t, name, got.Exec, want.Exec)
	}
}

// A SUM band the staircase's preparation has cut before is emitted from the
// join groups it reached then, and is the band a fresh cache cuts: on a 2-path
// and a 3-path whose ranked values mix small integers with ones beyond ±2⁶²
// (where a group's threshold differences wrap and its extremes decide
// nothing), over bands with infinite bounds, bounds that are an answer's sum
// or a side's partial sum, and bounds beyond ±2⁶², the first cut of a band on
// the plan's cache (the one that records its groups) and the second (the one
// that reads them) both equal the cut on a fresh cache, and the second hands
// the staircase fewer rows. The same holds on the engine a multiplicity-only
// update derives, which carries the cache, and for eight cuts of one band at
// once.
func TestRememberedSumBandsMatchFreshCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const big = int64(1) << 62
	value := func() relation.Value {
		switch rng.Intn(8) {
		case 0:
			return big + rng.Int63n(64)
		case 1:
			return -big - rng.Int63n(64)
		}
		return rng.Int63n(200)
	}
	for _, k := range []int{2, 3} {
		q := testutil.PathQuery(k)
		db := relation.NewDatabase()
		for i, atom := range q.Atoms {
			r := relation.New(atom.Rel, 2)
			for range 400 {
				if i == 0 {
					r.Append(value(), rng.Int63n(40))
				} else {
					r.Append(rng.Int63n(40), value())
				}
			}
			db.Add(r)
		}
		f := ranking.NewSum("x1", "x2", "x3")
		eng, err := engine.New(q, db)
		if err != nil {
			t.Fatal(err)
		}
		// The bounds: the sums of answers and of either side's rows, values
		// beyond ±2⁶², and numbers in between.
		r1, r2 := eng.DB().Get("R1"), eng.DB().Get("R2")
		var sums []int64
		for range 40 {
			a, b := r1.RowValues(rng.Intn(r1.Len())), r2.RowValues(rng.Intn(r2.Len()))
			sa, sb := a[0]+a[1], b[1]
			sums = append(sums, sa, sb)
			if a[1] == b[0] {
				sums = append(sums, sa+sb)
			}
		}
		bound := func() ranking.Bound {
			switch rng.Intn(4) {
			case 0:
				return ranking.Finite(ranking.Weightv{K: sums[rng.Intn(len(sums))]})
			case 1:
				return ranking.Finite(ranking.Weightv{K: []int64{big, -big, math.MaxInt64 - 128, math.MinInt64 + 128}[rng.Intn(4)] + rng.Int63n(256) - 128})
			}
			return ranking.Finite(ranking.Weightv{K: rng.Int63n(600) - 50})
		}
		var bands [][2]ranking.Bound
		for range 60 {
			low, high := bound(), bound()
			if rng.Intn(5) == 0 {
				low = ranking.NegInf()
			}
			if rng.Intn(5) == 0 {
				high = ranking.PosInf()
			}
			bands = append(bands, [2]ranking.Bound{low, high})
		}
		cut := func(e *engine.Engine, c *trim.Cache, b [2]ranking.Bound) (trim.Instance, int) {
			scr := new(trim.Scratch)
			out, err := trim.SumAdjacentBand(trim.Instance{Q: e.Query(), DB: e.DB(), Exec: e.Exec(), Cache: c, Scratch: scr}, f, b[0], b[1])
			if err != nil {
				t.Fatal(err)
			}
			return out, scr.Visited()
		}
		check := func(e *engine.Engine, stage string) {
			visited := map[string]int{}
			for _, pass := range []string{"recording", "memoized"} {
				for _, b := range bands {
					name := fmt.Sprintf("path%d %s %s cut (%v, %v)", k, stage, pass, b[0], b[1])
					got, v := cut(e, e.TrimCache(), b)
					want, _ := cut(e, trim.NewCache(), b)
					sameCut(t, name, got, want)
					visited[pass] += v
				}
			}
			if visited["memoized"] >= visited["recording"] {
				t.Fatalf("path%d %s: memoized cuts visited %d rows, recording ones %d", k, stage, visited["memoized"], visited["recording"])
			}
		}
		check(eng, "fresh plan")
		up, _, err := eng.Update(engine.NewDelta().Insert("R1", r1.RowValues(0)))
		if err != nil {
			t.Fatal(err)
		}
		if up.TrimCache() != eng.TrimCache() {
			t.Fatal("a multiplicity-only update started a fresh cache")
		}
		for i := range bands {
			bands[i][0].W.K++ // bands the carried cache has not cut
		}
		check(up, "updated plan")

		b := [2]ranking.Bound{ranking.Finite(ranking.Weightv{K: 150}), ranking.Finite(ranking.Weightv{K: 250})}
		want, _ := cut(up, trim.NewCache(), b)
		outs, errs := make([]trim.Instance, 8), make([]error, 8)
		var wg sync.WaitGroup
		for i := range outs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				scr := new(trim.Scratch)
				outs[i], errs[i] = trim.SumAdjacentBand(trim.Instance{Q: up.Query(), DB: up.DB(), Exec: up.Exec(), Cache: up.TrimCache(), Scratch: scr}, f, b[0], b[1])
			}()
		}
		wg.Wait()
		for i, out := range outs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			sameCut(t, fmt.Sprintf("path%d concurrent cut %d", k, i), out, want)
		}
	}
}
