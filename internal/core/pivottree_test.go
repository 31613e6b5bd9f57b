package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/shard"
	"github.com/quantilejoins/qjoin/internal/testutil"
	"github.com/quantilejoins/qjoin/internal/workload"
)

// peekTree returns the pivot tree the engines' plan keeps under f, nil when it
// keeps none, without planting one.
func peekTree(engs []*engine.Engine, f *ranking.Func) *pivotTree {
	t, _ := engs[0].TrimCache().Remembered(f.Key(), func(old any) any { return old }).(*pivotTree)
	return t
}

// size counts the tree's nodes and the partitions recorded on them.
func (t *pivotTree) size() (nodes, sides int) {
	var walk func(at *atomic.Pointer[pivotNode])
	walk = func(at *atomic.Pointer[pivotNode]) {
		nd := at.Load()
		if nd == nil {
			return
		}
		nodes++
		for s := range nd.sides {
			if sd := nd.sides[s].Load(); sd != nil {
				sides++
				walk(&sd.below)
			}
		}
	}
	walk(&t.root)
	return nodes, sides
}

// rememberedInstances are the instances of the pivot-tree differential: the
// pinned corpus, and beside it (never inside: its digests are taken over
// exactly those five) a path ranked through custom Weight functions, whose
// rankings are keyed by pointer, and a triangle, whose plan is a decomposition.
func rememberedInstances() []testutil.FuzzInstance {
	insts := testutil.FuzzCorpus(rand.New(rand.NewSource(616)))
	rng := rand.New(rand.NewSource(2207))
	{
		q, db := workload.Path(rng, 2, 500, 30)
		fold := func(_ query.Var, x relation.Value) int64 { return (x*x + 3*x) % 41 }
		insts = append(insts, testutil.FuzzInstance{Name: "path2-custom", Q: q, DB: db, Ranks: []*ranking.Func{
			{Agg: ranking.Sum, Vars: q.Vars(), Weight: fold},
			{Agg: ranking.Max, Vars: []query.Var{"x1", "x3"}, Weight: fold},
			{Agg: ranking.Lex, Vars: []query.Var{"x3", "x1"}, Weight: fold},
		}})
	}
	{
		q := query.New(
			query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}},
			query.Atom{Rel: "S", Vars: []query.Var{"y", "z"}},
			query.Atom{Rel: "T", Vars: []query.Var{"z", "x"}})
		db := relation.NewDatabase()
		for _, name := range []string{"R", "S", "T"} {
			rows := make([][]relation.Value, 260)
			for i := range rows {
				rows[i] = []relation.Value{rng.Int63n(14), rng.Int63n(14)}
			}
			db.Add(relation.FromRows(name, 2, rows))
		}
		insts = append(insts, testutil.FuzzInstance{Name: "triangle", Q: q, DB: db, Ranks: []*ranking.Func{
			ranking.NewMax("x", "z"), ranking.NewMin("x", "y", "z"), ranking.NewLex("y", "x"),
		}})
	}
	return insts
}

// sameStats compares run statistics field by field, the decomposition record
// by value (two compiles of a cyclic plan hold two records that say the same
// but for the time it took).
func sameStats(a, b *RunStats) bool {
	x, y := *a, *b
	x.Decomp, y.Decomp = nil, nil
	if (a.Decomp == nil) != (b.Decomp == nil) {
		return false
	}
	return x == y
}

// The pivot tree must be invisible in everything a run reports. Over the
// pinned corpus and the instances beside it, under SUM, MIN, MAX and LEX, at
// 1, 2 and 3 shards and at both thresholds, a plan is sent a shuffled stream
// of requests — single φ's, rank lists through SelectMany, and (unsharded) a
// BuildSummary, so that each kind walks what the others planted — and the
// k-th of them returns the answer and the RunStats the same request returns
// on a plan compiled for it alone, which are the brute-force oracle's. That
// the stream did walk remembered rounds is asserted, not assumed.
func TestRememberedRunsMatchFreshPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, inst := range rememberedInstances() {
		oracle := testutil.BruteForce(inst.Q, inst.DB)
		vars := inst.Q.Vars()
		for _, nShards := range []int{1, 2, 3} {
			compile := func() []*engine.Engine {
				sh, err := shard.New(inst.Q, inst.DB, nShards, 1)
				if err != nil {
					t.Fatalf("%s shards=%d: %v", inst.Name, nShards, err)
				}
				return sh.Engines()
			}
			if _, err := shard.New(inst.Q, inst.DB, nShards, 1); err != nil {
				if nShards > 1 && inst.Name == "triangle" {
					continue // a cyclic query is never routed
				}
				t.Fatalf("%s shards=%d: %v", inst.Name, nShards, err)
			}
			warm := compile()
			for _, f := range inst.Ranks {
				sorted := append([][]relation.Value(nil), oracle...)
				testutil.SortByWeight(sorted, f, vars)
				aw := ranking.NewAnswerWeigher(f, vars)
				n := counting.FromInt(len(sorted))
				check := func(name string, k counting.Count, a *Answer) {
					t.Helper()
					i, _ := k.Uint64()
					if !reflect.DeepEqual(a.Values, sorted[i]) || f.Compare(a.Weight, aw.WeightOf(sorted[i])) != 0 {
						t.Fatalf("%s: rank %d is %v weight %v, oracle %v", name, i, a.Values, a.Weight, sorted[i])
					}
				}
				remembered := 0
				for _, threshold := range []int{0, 8} {
					opts := Options{Parallelism: 1, MaterializeThreshold: threshold, CollectPhases: true}
					phis := []float64{0, 0.01, 0.25, 0.3, 0.5, 0.5, 0.75, 0.99, 1}
					rng.Shuffle(len(phis), func(i, j int) { phis[i], phis[j] = phis[j], phis[i] })
					for i, phi := range phis {
						name := fmt.Sprintf("%s shards=%d %s%v threshold=%d request %d φ=%v", inst.Name, nShards, f.Agg, f.Vars, threshold, i, phi)
						got, gotStats, err := Quantile(warm, f, phi, opts)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						want, wantStats, err := Quantile(compile(), f, phi, opts)
						if err != nil {
							t.Fatalf("%s: fresh plan: %v", name, err)
						}
						check(name, Index(n, phi), got)
						if !sameAnswer(got, want) {
							t.Fatalf("%s: answer %v, a fresh plan's %v", name, got, want)
						}
						if wantStats.Phases.Remembered != 0 || len(gotStats.Phases.Iterations) != gotStats.Iterations {
							t.Fatalf("%s: fresh plan remembered %d rounds; warm log has %d entries for %d rounds",
								name, wantStats.Phases.Remembered, len(gotStats.Phases.Iterations), gotStats.Iterations)
						}
						remembered += gotStats.Phases.Remembered
						gotStats.Phases, wantStats.Phases = nil, nil
						if !sameStats(gotStats, wantStats) {
							t.Fatalf("%s: stats %+v, a fresh plan's %+v", name, *gotStats, *wantStats)
						}
						if i%3 != 2 {
							continue
						}
						// A rank list between the single φ's: random ranks, one repeated.
						ks := make([]counting.Count, 6)
						for j := range ks[:5] {
							ks[j] = counting.FromInt(rng.Intn(len(sorted)))
						}
						ks[5] = ks[2]
						o := opts
						o.CollectPhases = false
						many, manyStats, err := SelectMany(warm, f, ks, o)
						if err != nil {
							t.Fatalf("%s: SelectMany: %v", name, err)
						}
						fresh, freshStats, err := SelectMany(compile(), f, ks, o)
						if err != nil {
							t.Fatalf("%s: SelectMany on a fresh plan: %v", name, err)
						}
						for j, k := range ks {
							check(name+" list", k, many[j])
							if !sameAnswer(many[j], fresh[j]) {
								t.Fatalf("%s: list rank %s: %v, a fresh plan's %v", name, k, many[j], fresh[j])
							}
						}
						if !sameStats(manyStats, freshStats) {
							t.Fatalf("%s: list stats %+v, a fresh plan's %+v", name, *manyStats, *freshStats)
						}
						if nShards == 1 && i == 5 {
							got, err := BuildSummary(warm[0], f, DefaultSketchEps, o)
							if err != nil {
								t.Fatalf("%s: BuildSummary: %v", name, err)
							}
							want, err := BuildSummary(compile()[0], f, DefaultSketchEps, o)
							if err != nil {
								t.Fatalf("%s: BuildSummary on a fresh plan: %v", name, err)
							}
							if !reflect.DeepEqual(got.Entries, want.Entries) {
								t.Fatalf("%s: summary differs from a fresh plan's", name)
							}
						}
					}
				}
				if tree := peekTree(warm, f); len(sorted) > 64 && (remembered == 0 || tree == nil) {
					t.Fatalf("%s shards=%d %s%v: %d remembered rounds, tree %v: the stream never walked a tree",
						inst.Name, nShards, f.Agg, f.Vars, remembered, tree)
				}
			}
		}
	}
}

// A lossy run neither reads nor writes a pivot tree: on a plan no exact run
// has touched, ForceLossy and ε > 0 runs leave none behind, and on a plan whose
// tree exact runs have planted they leave it as it was, node for node — while
// returning what they return on a plan without one.
func TestLossyRunsLeaveTheTreeAlone(t *testing.T) {
	var inst testutil.FuzzInstance
	inst.Q, inst.DB = workload.Path(rand.New(rand.NewSource(26)), 3, 150, 10)
	// On a 3-path SUM(x1,x2,x3) is tractable, the full SUM is not.
	forced, full := ranking.NewSum("x1", "x2", "x3"), ranking.NewSum(inst.Q.Vars()...)
	lossy := []struct {
		f    *ranking.Func
		opts Options
	}{
		{forced, Options{Parallelism: 1, ForceLossy: true, Epsilon: 0.2, MaterializeThreshold: 8}},
		{full, Options{Parallelism: 1, Epsilon: 0.2, MaterializeThreshold: 8}},
		{full, Options{Parallelism: 1, Epsilon: 0.2, MaterializeThreshold: 8, Budget: BudgetPaper}},
	}
	ks := func(engs []*engine.Engine) []counting.Count {
		n := engs[0].Counts().Total
		return []counting.Count{Index(n, 0.1), Index(n, 0.5), Index(n, 0.8)}
	}
	runLossy := func(engs []*engine.Engine) (out [][]*Answer) {
		for _, l := range lossy {
			got, stats, err := SelectMany(engs, l.f, ks(engs), l.opts)
			if err != nil || !stats.Lossy {
				t.Fatalf("%s%v: err %v, lossy %v", l.f.Agg, l.f.Vars, err, stats.Lossy)
			}
			a, _, err := Quantile(engs, l.f, 0.3, l.opts)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, append(got, a))
		}
		return out
	}
	cold := engines(t, inst.Q, inst.DB)
	want := runLossy(cold)
	if peekTree(cold, forced) != nil || peekTree(cold, full) != nil {
		t.Fatal("lossy runs planted a pivot tree")
	}
	warm := engines(t, inst.Q, inst.DB)
	for _, phi := range []float64{0.1, 0.3, 0.5, 0.8} {
		if _, _, err := Quantile(warm, forced, phi, Options{Parallelism: 1, MaterializeThreshold: 8}); err != nil {
			t.Fatal(err)
		}
	}
	tree := peekTree(warm, forced)
	if tree == nil {
		t.Fatal("exact runs planted no pivot tree")
	}
	nodes, sides := tree.size()
	got := runLossy(warm)
	if peekTree(warm, forced) != tree || peekTree(warm, full) != nil {
		t.Fatal("lossy runs replaced or planted a pivot tree")
	}
	if n, s := tree.size(); n != nodes || s != sides || nodes == 0 {
		t.Fatalf("lossy runs changed the tree: %d nodes %d sides, before %d and %d", n, s, nodes, sides)
	}
	for i := range want {
		for j := range want[i] {
			if !sameAnswer(got[i][j], want[i][j]) {
				t.Fatalf("lossy run %d answer %d: %v beside a tree, %v without", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// The tree is bounded by construction: 10 000 distinct ranks at a threshold of
// 8 on a plan whose answers far outnumber its tuples would plant thousands of
// rounds, and leave the tree at its budget — one node per 256 input tuples, 64
// at least — with every answer and every RunStats that of a plan compiled
// fresh for the same list.
func TestPivotTreeStopsAtItsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	q, db := workload.Path(rng, 2, 1500, 50)
	warm := engines(t, q, db)
	f := ranking.NewSum(q.Vars()...)
	total, _ := warm[0].Counts().Total.Uint64()
	if size := uint64(warm[0].DB().Size()); total < 10000 || total < 8*size {
		t.Fatalf("|Q(D)| = %d on %d tuples: the instance is meant to be dense", total, size)
	}
	ranks := rng.Perm(int(total))[:10000]
	opts := Options{Parallelism: 1, MaterializeThreshold: 8}
	sorted := testutil.BruteForce(q, db)
	testutil.SortByWeight(sorted, f, q.Vars())
	for at := 0; at < len(ranks); {
		size := 1 // single ranks and lists by turns
		if at%3 == 2 {
			size = 499
		}
		ks := make([]counting.Count, 0, size)
		for _, k := range ranks[at:min(at+size, len(ranks))] {
			ks = append(ks, counting.FromInt(k))
		}
		at += len(ks)
		got, gotStats, err := SelectMany(warm, f, ks, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, wantStats, err := SelectMany(engines(t, q, db), f, ks, opts)
		if err != nil {
			t.Fatal(err)
		}
		if *gotStats != *wantStats {
			t.Fatalf("ranks up to %d: stats %+v, a fresh plan's %+v", at, *gotStats, *wantStats)
		}
		for i, k := range ks {
			j, _ := k.Uint64()
			if !sameAnswer(got[i], want[i]) || !reflect.DeepEqual(got[i].Values, sorted[j]) {
				t.Fatalf("rank %s: %v, a fresh plan's %v, oracle %v", k, got[i], want[i], sorted[j])
			}
		}
	}
	tree := peekTree(warm, f)
	nodes, sides := tree.size()
	if budget := max(warm[0].DB().Size()/256, 64); nodes != budget || tree.left.Load() != 0 || sides > 2*nodes {
		t.Fatalf("tree has %d nodes, %d sides and %d left to allocate; budget %d", nodes, sides, tree.left.Load(), budget)
	}
}

// A tree is good for the engine vector it was built over and no other. A
// multiplicity-only delta derives engines with the same set view, which carry
// their caches and with them the tree; a set-changing delta to a shard other
// than the first leaves the first engine — and the cache the tree sits in —
// untouched, so only the stamp says the tree is not this vector's: the first
// run over the new vector starts an empty one and reports no remembered round.
func TestPivotTreeFollowsTheEngineVector(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	q, db := workload.Path(rng, 2, 600, 20)
	sh, err := shard.New(q, db, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := ranking.NewMax("x1", "x3")
	opts := Options{Parallelism: 1, MaterializeThreshold: 8, CollectPhases: true}
	// ask answers on the plan and holds answer and statistics against a plan
	// compiled fresh over now, the database the plan stands for.
	ask := func(sh *shard.Sharded, now *relation.Database, phi float64) *RunStats {
		t.Helper()
		a, stats, err := Quantile(sh.Engines(), f, phi, opts)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := shard.New(q, now, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, wantStats, err := Quantile(fresh.Engines(), f, phi, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := *stats
		got.Phases, wantStats.Phases = nil, nil
		if !sameAnswer(a, want) || got != *wantStats {
			t.Fatalf("φ=%v: %v %+v, a fresh plan's %v %+v", phi, a, got, want, *wantStats)
		}
		return stats
	}
	// with is db and the rows a delta inserted into R1.
	with := func(rows [][]relation.Value) *relation.Database {
		now := db.Clone()
		for _, row := range rows {
			now.Get("R1").AppendRow(row)
		}
		return now
	}
	for _, phi := range []float64{0.2, 0.5, 0.8} {
		ask(sh, db, phi)
	}
	tree := peekTree(sh.Engines(), f)
	if st := ask(sh, db, 0.5); tree == nil || st.Phases.Remembered != st.Iterations || st.Iterations == 0 {
		t.Fatalf("a repeated request remembered %d of %d rounds (tree %v)", st.Phases.Remembered, st.Iterations, tree)
	}

	// A second copy of a row the shards hold: no set view changes.
	row := sh.Engines()[1].DB().Get("R1").RowValues(0)
	dup, _, err := sh.Update(engine.NewDelta().Insert("R1", row))
	if err != nil {
		t.Fatal(err)
	}
	if st := ask(dup, with([][]relation.Value{row}), 0.5); peekTree(dup.Engines(), f) != tree || st.Phases.Remembered != st.Iterations {
		t.Fatalf("a multiplicity-only delta lost the tree: %d of %d rounds remembered", st.Phases.Remembered, st.Iterations)
	}

	// Fresh rows that land in a shard other than the first.
	var moved *shard.Sharded
	var rows [][]relation.Value
	for v := relation.Value(1000); moved == nil; v++ {
		d := engine.NewDelta()
		rows = rows[:0]
		for i := relation.Value(0); i < 40; i++ {
			rows = append(rows, []relation.Value{v + 1000*i, row[1]})
		}
		d.Insert("R1", rows...)
		if touched := sh.Touched(d); len(touched) != 1 || touched[0] == 0 {
			continue
		}
		if moved, _, err = sh.Update(d); err != nil {
			t.Fatal(err)
		}
	}
	if moved.Engines()[0] != sh.Engines()[0] {
		t.Fatal("the delta rebuilt the first shard: the stamp is not what invalidates here")
	}
	if st := ask(moved, with(rows), 0.5); st.Phases.Remembered != 0 || peekTree(moved.Engines(), f) == tree {
		t.Fatalf("the old vector's tree was consulted after a shard-local delta: %d rounds remembered", st.Phases.Remembered)
	}
	if st := ask(moved, with(rows), 0.5); st.Phases.Remembered != st.Iterations {
		t.Fatalf("the new vector's tree remembered %d of %d rounds", st.Phases.Remembered, st.Iterations)
	}
	// The old plan is still a plan: it starts over as well, and stays right.
	if st := ask(sh, db, 0.5); st.Phases.Remembered != 0 {
		t.Fatalf("the old vector found the new one's tree: %d rounds remembered", st.Phases.Remembered)
	}
}

// Concurrent runs over one plan walk and fill one tree without a lock: eight
// goroutines of mixed φ's, rankings and rank lists, on a routed and on an
// unrouted plan, return what the same requests return one at a time on plans
// of their own. Under -race this is the publication protocol's test.
func TestConcurrentRunsShareOneTree(t *testing.T) {
	inst := testutil.FuzzCorpus(rand.New(rand.NewSource(616)))[0]
	type request struct {
		f    *ranking.Func
		phis []float64
	}
	var reqs []request
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 48; i++ {
		r := request{f: inst.Ranks[i%len(inst.Ranks)], phis: []float64{float64(rng.Intn(101)) / 100}}
		if i%5 == 4 {
			r.phis = append(r.phis, rng.Float64(), rng.Float64(), r.phis[0])
		}
		reqs = append(reqs, r)
	}
	for _, nShards := range []int{1, 3} {
		compile := func() []*engine.Engine {
			sh, err := shard.New(inst.Q, inst.DB, nShards, 1)
			if err != nil {
				t.Fatal(err)
			}
			return sh.Engines()
		}
		opts := Options{Parallelism: 1, MaterializeThreshold: 8}
		run := func(engs []*engine.Engine, r request) ([]*Answer, error) {
			n := counting.Zero
			for _, eng := range engs {
				n = n.Add(eng.Counts().Total)
			}
			if len(r.phis) == 1 {
				a, _, err := Quantile(engs, r.f, r.phis[0], opts)
				return []*Answer{a}, err
			}
			ks := make([]counting.Count, len(r.phis))
			for i, phi := range r.phis {
				ks[i] = Index(n, phi)
			}
			as, _, err := SelectMany(engs, r.f, ks, opts)
			return as, err
		}
		want := make([][]*Answer, len(reqs))
		for i, r := range reqs {
			var err error
			if want[i], err = run(compile(), r); err != nil {
				t.Fatal(err)
			}
		}
		shared := compile()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for j := range reqs {
					i := (j*7 + g*5) % len(reqs)
					got, err := run(shared, reqs[i])
					if err != nil {
						t.Errorf("shards=%d request %d: %v", nShards, i, err)
						return
					}
					for k := range got {
						if !sameAnswer(got[k], want[i][k]) {
							t.Errorf("shards=%d request %d answer %d: %v, alone %v", nShards, i, k, got[k], want[i][k])
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
