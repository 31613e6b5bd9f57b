package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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

// rankedOracle lists Q(D) in the (weight, values) order every exact answer is
// a position of.
func rankedOracle(q *query.Query, db *relation.Database, f *ranking.Func) [][]relation.Value {
	answers := testutil.BruteForce(q, db)
	aw := ranking.NewAnswerWeigher(f, q.Vars())
	slices.SortFunc(answers, func(a, b []relation.Value) int {
		if c := f.Compare(aw.WeightOf(a), aw.WeightOf(b)); c != 0 {
			return c
		}
		return slices.Compare(a, b)
	})
	return answers
}

// scribble overwrites everything an answer hands out by reference.
func scribble(a *Answer) {
	for i := range a.Values {
		a.Values[i] = -1 << 40
	}
	for i := range a.Weight.Vec {
		a.Weight.Vec[i] = -1 << 40
	}
	a.Weight.K = -1 << 40
}

// Every answer a run returns owns its values and its weight: a caller that
// writes to them changes nothing a later request reads. Under every ranking,
// unrouted and at three shards, a plan answers a φ grid by Quantile, a rank
// list by SelectMany and (per engine) a BuildSummary, everything returned is
// overwritten, and the plan then answers like one compiled fresh: answers and
// RunStats. The dense 2-path over a small domain ends most LEX requests in a
// tie class of several members, whose answers once shared the pivot tree's
// weight vector — the next request's partition counts then underflowed.
func TestAnswersBelongToTheCaller(t *testing.T) {
	q, db := workload.Path(rand.New(rand.NewSource(5)), 2, 1<<10, 1<<4)
	for _, f := range []*ranking.Func{
		ranking.NewLex("x1", "x3"), ranking.NewSum("x1", "x2", "x3"), ranking.NewMin("x1", "x3"), ranking.NewMax("x1", "x2", "x3"),
	} {
		for _, nShards := range []int{1, 3} {
			name := fmt.Sprintf("%s%v shards=%d", f.Agg, f.Vars, nShards)
			compile := func() []*engine.Engine {
				sh, err := shard.New(q, db, nShards, 1)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return sh.Engines()
			}
			used, fresh := compile(), compile()
			opts := Options{Parallelism: 1}
			const steps = 40
			ks := make([]counting.Count, 0, steps+1)
			total := counting.Zero
			for _, eng := range used {
				total = total.Add(eng.Counts().Total)
			}
			tieClasses := 0
			for i := 0; i <= steps; i++ {
				a, stats, err := Quantile(used, f, float64(i)/steps, opts)
				if err != nil {
					t.Fatalf("%s φ=%d/%d: %v", name, i, steps, err)
				}
				if stats.PivotReturned && stats.Materialized == 0 {
					tieClasses++
				}
				scribble(a)
				ks = append(ks, Index(total, float64(i)/steps))
			}
			if tieClasses == 0 {
				t.Errorf("%s: no request ended in the equal partition; the tree's weights went untested", name)
			}
			many, _, err := SelectMany(used, f, ks, opts)
			if err != nil {
				t.Fatalf("%s: SelectMany: %v", name, err)
			}
			for _, a := range many {
				scribble(a)
			}
			for _, eng := range used {
				s, err := BuildSummary(eng, f, 1.0/16, opts)
				if err != nil {
					t.Fatalf("%s: BuildSummary: %v", name, err)
				}
				for i := range s.Entries {
					scribble(&Answer{Values: s.Entries[i].Values, Weight: s.Entries[i].Weight})
				}
			}
			want := rankedOracle(q, db, f)
			for i := 0; i <= steps; i++ {
				phi := float64(i) / steps
				got, gotStats, err := Quantile(used, f, phi, opts)
				if err != nil {
					t.Fatalf("%s φ=%v after the scribbling: %v", name, phi, err)
				}
				ref, refStats, err := Quantile(fresh, f, phi, opts)
				if err != nil {
					t.Fatalf("%s φ=%v fresh: %v", name, phi, err)
				}
				k, _ := ks[i].Uint64()
				if !reflect.DeepEqual(got.Values, ref.Values) || !reflect.DeepEqual(got.Weight, ref.Weight) || !slices.Equal(got.Values, want[k]) {
					t.Fatalf("%s φ=%v: %v weight %v after the scribbling, a fresh plan %v weight %v, brute force %v",
						name, phi, got.Values, got.Weight, ref.Values, ref.Weight, want[k])
				}
				if !sameStats(gotStats, refStats) {
					t.Fatalf("%s φ=%v: stats %+v after the scribbling, a fresh plan's %+v", name, phi, *gotStats, *refStats)
				}
			}
			again, _, err := SelectMany(used, f, ks, opts)
			if err != nil {
				t.Fatalf("%s: SelectMany after the scribbling: %v", name, err)
			}
			for i, a := range again {
				if k, _ := ks[i].Uint64(); !slices.Equal(a.Values, want[k]) {
					t.Fatalf("%s: SelectMany index %d: %v after the scribbling, brute force %v", name, k, a.Values, want[k])
				}
			}
		}
	}
}

// checkEveryRank asks for every rank of the instance — each alone, and all of
// them (with repeats, shuffled) in one SelectMany — and wants the brute-force
// order back, under the given options.
func checkEveryRank(t *testing.T, name string, q *query.Query, db *relation.Database, engs []*engine.Engine, f *ranking.Func, opts Options) *RunStats {
	t.Helper()
	want := rankedOracle(q, db, f)
	aw := ranking.NewAnswerWeigher(f, q.Vars())
	var ks []counting.Count
	for k := range want {
		a, _, err := Select(engs, f, counting.FromInt(k), opts)
		if err != nil {
			t.Fatalf("%s: index %d: %v", name, k, err)
		}
		if !slices.Equal(a.Values, want[k]) || f.Compare(a.Weight, aw.WeightOf(want[k])) != 0 {
			t.Fatalf("%s: index %d: %v weight %v, brute force %v", name, k, a.Values, a.Weight, want[k])
		}
		ks = append(ks, counting.FromInt(k), counting.FromInt(k))
	}
	rand.New(rand.NewSource(int64(len(want)))).Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	many, stats, err := SelectMany(engs, f, ks, opts)
	if err != nil {
		t.Fatalf("%s: SelectMany: %v", name, err)
	}
	for i, a := range many {
		k, _ := ks[i].Uint64()
		if !slices.Equal(a.Values, want[k]) || f.Compare(a.Weight, aw.WeightOf(want[k])) != 0 {
			t.Fatalf("%s: SelectMany index %d: %v weight %v, brute force %v", name, k, a.Values, a.Weight, want[k])
		}
		for j := 0; j < i; j++ {
			if many[j] == a || (len(a.Weight.Vec) > 0 && &many[j].Weight.Vec[0] == &a.Weight.Vec[0]) || &many[j].Values[0] == &a.Values[0] {
				t.Fatalf("%s: SelectMany answers %d and %d share memory", name, j, i)
			}
		}
	}
	return stats
}

// A band that is one tie class — every answer weighs the same — is the worst
// case of the tail's recovery: the class is the band, all of it is recovered,
// and the value order alone places every index. Materialized at once (the
// leaf) and after rounds forced by a low threshold (the equal partition, the
// class known), unrouted and over three shards, lists with repeats included.
func TestTailOnOneTieClass(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	q, db := workload.Path(rng, 2, 120, 5)
	flat := func(query.Var, relation.Value) int64 { return 3 }
	for _, f := range []*ranking.Func{
		{Agg: ranking.Sum, Vars: q.Vars(), Weight: flat},
		{Agg: ranking.Max, Vars: []query.Var{"x1", "x3"}, Weight: flat},
		{Agg: ranking.Lex, Vars: []query.Var{"x3", "x1"}, Weight: flat},
	} {
		for _, nShards := range []int{1, 3} {
			sh, err := shard.New(q, db, nShards, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, threshold := range []int{1 << 20, 4} {
				name := fmt.Sprintf("%s%v shards=%d threshold=%d", f.Agg, f.Vars, nShards, threshold)
				opts := Options{Parallelism: 1, MaterializeThreshold: threshold, CollectPhases: true}
				stats := checkEveryRank(t, name, q, db, sh.Engines(), f, opts)
				n, _ := sh.Total().Uint64()
				if stats.PivotReturned != (threshold == 4) || stats.Phases.Weighed != int(n) || stats.Phases.Recovered != int(n) {
					t.Fatalf("%s: stats %+v, phases %+v: want the whole band of %d weighed and recovered, through the %v exit",
						name, *stats, *stats.Phases, n, map[bool]string{true: "equal-partition", false: "materialize"}[threshold == 4])
				}
			}
		}
	}
}

// A sharded band most of whose shards hold no candidate: the join key takes
// one value, so one of three shards holds every answer and the others are
// dead from the start; and a key of two values, where a round's trim kills a
// shard on the way down. The candidates' ordinals must skip the dead shards.
func TestTailSkipsDeadShards(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	q := testutil.PathQuery(2)
	for _, keys := range []int64{1, 2} {
		db := relation.NewDatabase()
		r1, r2 := relation.New("R1", 2), relation.New("R2", 2)
		for i := 0; i < 40; i++ {
			key := rng.Int63n(keys)
			r1.Append(rng.Int63n(9)+20*key, key)
			r2.Append(key, rng.Int63n(9)+20*key)
		}
		db.Add(r1)
		db.Add(r2)
		sh, err := shard.New(q, db, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		dead := 0
		for _, eng := range sh.Engines() {
			if eng.Counts().Total.IsZero() {
				dead++
			}
		}
		if dead == 0 {
			t.Fatalf("keys=%d: every shard holds an answer", keys)
		}
		for _, f := range []*ranking.Func{ranking.NewSum("x1", "x3"), ranking.NewMax("x1", "x3"), ranking.NewLex("x3", "x1")} {
			for _, threshold := range []int{0, 6} {
				name := fmt.Sprintf("keys=%d %s%v threshold=%d", keys, f.Agg, f.Vars, threshold)
				checkEveryRank(t, name, q, db, sh.Engines(), f, Options{Parallelism: 1, MaterializeThreshold: threshold})
			}
		}
	}
}

// The tail's own contract, against the reference tail (every candidate a
// tuple, sorted): a list of indices with repeats that all land in one weight
// class, indices in classes next to each other, and — what only a lossy run's
// accounting produces — indices at and past the band's end, which take the
// last candidate.
func TestTailRankLists(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q, db := workload.Path(rng, 2, 200, 6)
	for _, nShards := range []int{1, 3} {
		sh, err := shard.New(q, db, nShards, 1)
		if err != nil {
			t.Fatal(err)
		}
		engs := sh.Engines()
		shards := make([]*shardState, len(engs))
		for i, eng := range engs {
			shards[i] = &shardState{eng: eng, curExec: eng.Exec(), curCounts: eng.Counts(), dead: eng.Counts().Total.IsZero()}
			shards[i].cur.Q = eng.Query()
		}
		n64, _ := sh.Total().Uint64()
		n := int(n64)
		for _, f := range []*ranking.Func{ranking.NewSum("x1", "x2", "x3"), ranking.NewMin("x1", "x3"), ranking.NewLex("x1", "x3")} {
			name := fmt.Sprintf("shards=%d %s%v", nShards, f.Agg, f.Vars)
			lists := map[string][]int{
				"one class, repeats":  {n / 2, n / 2, n/2 + 1, n/2 + 1, n/2 + 2},
				"ends":                {0, 0, 1, n - 2, n - 1},
				"at and past the end": {n - 1, n, n, n + 5, 1 << 40},
				"every third":         nil,
			}
			for k := 0; k < n; k += 3 {
				lists["every third"] = append(lists["every third"], k)
			}
			for what, ks := range lists {
				ranks := make([]rank, len(ks))
				for i, k := range ks {
					ranks[i] = rank{k: counting.FromInt(k), at: i}
				}
				out := make([]*Answer, len(ks))
				weighed, recovered, err := resolveRanks(shards, f, engs[0].Vars(), nil, ranks, n, new(runScratch), out)
				if err != nil {
					t.Fatalf("%s %s: %v", name, what, err)
				}
				if weighed != n || recovered > n {
					t.Fatalf("%s %s: %d candidates weighed and %d recovered of a band of %d", name, what, weighed, recovered, n)
				}
				for i, k := range ks {
					want, err := referenceTail(shards, f, engs[0].Vars(), nil, counting.FromInt(k))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(out[i].Values, want.Values) || !reflect.DeepEqual(out[i].Weight, want.Weight) {
						t.Fatalf("%s %s: index %d: %v weight %v, reference %v weight %v", name, what, k, out[i].Values, out[i].Weight, want.Values, want.Weight)
					}
				}
			}
		}
	}
}
