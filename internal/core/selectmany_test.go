package core

import (
	"fmt"
	"hash/fnv"
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
	"github.com/quantilejoins/qjoin/internal/sketch"
	"github.com/quantilejoins/qjoin/internal/testutil"
	"github.com/quantilejoins/qjoin/internal/yannakakis"
)

// referenceTail is the tail of the both-sides reference driver
// (onesided_test.go), and the reference for the driver's own: every candidate
// of every live shard made a tuple (Enumerate), projected, weighed answer by
// answer (AnswerWeigher) and sorted by (weight, values); with lambda set only
// the candidates weighing λ are kept. A k at or past the end takes the last.
func referenceTail(shards []*shardState, f *ranking.Func, origVars []query.Var, lambda *ranking.Weightv, k counting.Count) (*Answer, error) {
	aw := ranking.NewAnswerWeigher(f, origVars)
	var cands []*Answer
	for _, st := range shards {
		if st.dead {
			continue
		}
		fromVars := st.curExec.Q.Vars()
		yannakakis.Enumerate(st.curExec, st.curCounts, func(asn []relation.Value) bool {
			vals := projectAnswer(fromVars, asn, origVars)
			if w := aw.WeightOf(vals); lambda == nil || f.Compare(w, *lambda) == 0 {
				cands = append(cands, &Answer{Vars: origVars, Values: vals, Weight: w})
			}
			return true
		})
	}
	if len(cands) == 0 {
		return nil, ErrNoAnswers
	}
	slices.SortFunc(cands, func(a, b *Answer) int {
		if c := f.Compare(a.Weight, b.Weight); c != 0 {
			return c
		}
		return slices.Compare(a.Values, b.Values)
	})
	at := len(cands) - 1
	if i, ok := k.Uint64(); ok && i < uint64(at) {
		at = int(i)
	}
	return cands[at], nil
}

// rankSet is one request of the SelectMany tests: absolute indices, in the
// order they are asked for.
type rankSet struct {
	name string
	ks   []counting.Count
}

// rankSets are the request shapes the shared descent has to get right over n
// answers: one index, one index repeated, the two ends (descending, so the
// request order is not the rank order), the sketch's 33-anchor grid with its
// order shuffled, and — on an instance small enough — every rank there is.
func rankSets(rng *rand.Rand, total counting.Count) []rankSet {
	n, _ := total.Uint64()
	at := func(i uint64) counting.Count { return counting.FromUint64(i) }
	grid := make([]counting.Count, 33)
	for i := range grid {
		grid[i] = Index(total, float64(i)/32)
	}
	rng.Shuffle(len(grid), func(i, j int) { grid[i], grid[j] = grid[j], grid[i] })
	sets := []rankSet{
		{"single", []counting.Count{at(n / 3)}},
		{"all-equal", []counting.Count{at(n / 2), at(n / 2), at(n / 2), at(n / 2)}},
		{"ends", []counting.Count{at(n - 1), at(0)}},
		{"grid33", grid},
	}
	if n <= 1000 {
		every := make([]counting.Count, n)
		for i := range every {
			every[i] = at(uint64(i))
		}
		sets = append(sets, rankSet{"every-rank", every})
	}
	return sets
}

// corpusShards compiles every corpus instance unsharded and at four shards.
func corpusShards(t *testing.T, seed int64, fn func(inst testutil.FuzzInstance, nShards int, sh *shard.Sharded)) {
	t.Helper()
	for _, inst := range testutil.FuzzCorpus(rand.New(rand.NewSource(seed))) {
		for _, nShards := range []int{1, 4} {
			sh, err := shard.Partition(inst.Q, inst.DB, nShards)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", inst.Name, nShards, err)
			}
			fn(inst, nShards, sh)
		}
	}
}

func sameAnswer(a, b *Answer) bool {
	return reflect.DeepEqual(a.Values, b.Values) && reflect.DeepEqual(a.Weight, b.Weight)
}

// One shared descent must be invisible in the answers: over the differential
// corpus, unsharded and at four shards, at the default threshold and at one
// low enough to force deep descents, SelectMany returns for every requested
// index — in request order — the answer the both-sides reference driver
// returns for that index alone, under SUM, MIN, MAX and LEX. A one-index
// request also reports the run statistics Select reports, field by
// field; a larger one never runs more rounds than its indices would alone.
func TestSelectManyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	shared := 0
	corpusShards(t, 616, func(inst testutil.FuzzInstance, nShards int, sh *shard.Sharded) {
		engs := sh.Engines()
		for _, f := range inst.Ranks {
			for _, threshold := range []int{0, 8} {
				opts := Options{Parallelism: 1, MaterializeThreshold: threshold}
				type ref struct {
					a     *Answer
					stats *RunStats
				}
				refs := map[counting.Count]ref{} // the reference is deterministic: one run per distinct index
				for _, set := range rankSets(rng, sh.Total()) {
					if set.name == "grid33" && threshold == 0 {
						continue // the grid where the descents are deepest
					}
					name := fmt.Sprintf("%s shards=%d %s%v threshold=%d %s", inst.Name, nShards, f.Agg, f.Vars, threshold, set.name)
					got, gotStats, err := SelectMany(engs, f, set.ks, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if len(got) != len(set.ks) {
						t.Fatalf("%s: %d answers for %d indices", name, len(got), len(set.ks))
					}
					singles := 0
					for i, k := range set.ks {
						want, ok := refs[k]
						if !ok {
							a, stats, err := referenceRun(engs, f, k, opts)
							if err != nil {
								t.Fatalf("%s: reference k=%s: %v", name, k, err)
							}
							want = ref{a, stats}
							refs[k] = want
						}
						if !sameAnswer(got[i], want.a) {
							t.Fatalf("%s: index %s (position %d): answer %v weight %v, reference %v weight %v",
								name, k, i, got[i].Values, got[i].Weight, want.a.Values, want.a.Weight)
						}
						singles += want.stats.Iterations
					}
					if gotStats.Iterations > singles {
						t.Fatalf("%s: %d rounds, %d over a run per index", name, gotStats.Iterations, singles)
					}
					if len(set.ks) > 1 && gotStats.Iterations < singles {
						shared++
					}
					if len(set.ks) == 1 {
						_, one, err := Select(engs, f, set.ks[0], opts)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if *gotStats != *one {
							t.Fatalf("%s: stats %+v, Select %+v", name, *gotStats, *one)
						}
					}
				}
			}
		}
	})
	if shared == 0 {
		t.Fatal("no request ran fewer rounds than a run per index: nothing was shared")
	}
}

// Lossy SUM is held against the driver's own one-index runs (the both-sides
// reference trims at ε = 0): εIter is a function of the depth alone, the same
// on a shared descent. Those one-index answers are in turn pinned to the
// digest the loop for one index produced (commit 07abb3f, re-taken from that
// driver with the row of a since-removed second ε split skipped), so the
// chain ends at that driver and not at this one. The corpus' join groups are too small for
// its lossy partitions ever to overlap: this test pins the ε split and the
// plumbing, TestSelectManyLossyOverlap the placement rule.
func TestSelectManyLossyMatchesSingleRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	h := fnv.New64a()
	corpusShards(t, 616, func(inst testutil.FuzzInstance, nShards int, sh *shard.Sharded) {
		engs := sh.Engines()
		for _, f := range inst.Ranks {
			if f.Agg != ranking.Sum {
				continue
			}
			for _, opts := range []Options{
				{Parallelism: 1, ForceLossy: true, Epsilon: 0.2},
				{Parallelism: 1, ForceLossy: true, Epsilon: 0.2, MaterializeThreshold: 8},
			} {
				if opts.MaterializeThreshold == 0 && nShards > 1 {
					continue // shallow descents: once is enough
				}
				alone := map[counting.Count]*Answer{} // a lossy run per index is the cost here: one per distinct index
				for _, set := range rankSets(rng, sh.Total()) {
					// Nine anchors of the grid, where the descents are deep, once; no
					// rank census.
					if set.name == "every-rank" || (set.name == "grid33" && (nShards > 1 || opts.MaterializeThreshold == 0)) {
						continue
					}
					if set.name == "grid33" {
						set.ks = set.ks[:9]
					}
					name := fmt.Sprintf("%s shards=%d %s%v %+v %s", inst.Name, nShards, f.Agg, f.Vars, opts, set.name)
					got, stats, err := SelectMany(engs, f, set.ks, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !stats.Lossy {
						t.Fatalf("%s: the run was not lossy", name)
					}
					for i, k := range set.ks {
						want, ok := alone[k]
						if !ok {
							if want, _, err = Select(engs, f, k, opts); err != nil {
								t.Fatalf("%s: k=%s: %v", name, k, err)
							}
							alone[k] = want
							fmt.Fprintln(h, want.Values, want.Weight)
						}
						if !sameAnswer(got[i], want) {
							t.Fatalf("%s: index %s (position %d): answer %v weight %v, alone %v weight %v",
								name, k, i, got[i].Values, got[i].Weight, want.Values, want.Weight)
						}
					}
				}
			}
		}
	})
	const want = 0x48c7b27afb6c224c
	if got := h.Sum64(); got != want {
		t.Fatalf("digest %#x, want %#x: a lossy one-index run changed its answer", got, uint64(want))
	}
}

// overlapInstance is a three-leaf star whose join groups are large enough for
// the sketches of a coarse lossy trim to merge values (five rows per event and
// relation, so 2·5³ = 250 answers): under SUM(y1,y2,y3), which is outside the
// tractable class, at ε = 0.9 and the geometric budget a round's partitions —
// trimmed from the original at half the ε its band was — regain more answers at
// the band's outer bounds than they lose at the pivot, and c[lt] + c[gt]
// exceeds the band's count.
func overlapInstance(t *testing.T) (*engine.Engine, *ranking.Func, Options) {
	t.Helper()
	db := relation.NewDatabase()
	db.Add(relation.FromRows("A1", 2, [][]relation.Value{{0, 70}, {1, 90}, {1, 35}, {1, 42}, {1, 76}, {0, 98}, {0, 24}, {0, 76}, {1, 29}, {0, 35}}))
	db.Add(relation.FromRows("A2", 2, [][]relation.Value{{1, 32}, {1, 65}, {1, 82}, {0, 99}, {1, 100}, {0, 107}, {0, 34}, {1, 47}, {0, 64}, {1, 24}}))
	db.Add(relation.FromRows("A3", 2, [][]relation.Value{{0, 21}, {1, 69}, {1, 56}, {0, 93}, {0, 96}, {1, 97}, {1, 7}, {0, 97}, {1, 73}, {0, 51}}))
	eng, err := engine.New(testutil.StarQuery(3), db)
	if err != nil {
		t.Fatal(err)
	}
	return eng, ranking.NewSum("y1", "y2", "y3"), Options{Parallelism: 1, Epsilon: 0.9, MaterializeThreshold: 8}
}

// Lossy partitions can overlap — an index is then below c[lt] and at or above
// count − c[gt] at once — and a run for that index alone goes to the side it
// prefers, which it builds first. A shared descent has to place it the same
// way even when the group's first side is the other one and already holds it:
// on an instance where rounds do overlap (observed here, not assumed), a census
// of every rank gets the answers of a run per rank, which are the ones the loop
// for one index returned (digest from commit 07abb3f). Placing by the first
// side that holds the index instead changes 3 of the 250.
func TestSelectManyLossyOverlap(t *testing.T) {
	eng, f, opts := overlapInstance(t)
	engs := []*engine.Engine{eng}
	total := eng.Counts().Total
	n, _ := total.Uint64()
	every := make([]counting.Count, n)
	for i := range every {
		every[i] = counting.FromUint64(uint64(i))
	}

	type band struct{ low, high string }
	type built struct {
		band
		n counting.Count
	}
	var builds []built
	counts := map[band]counting.Count{{fmt.Sprint(ranking.NegInf()), fmt.Sprint(ranking.PosInf())}: total}
	bandHook = func(low, high ranking.Bound, n counting.Count, _, _ int) {
		b := built{band{fmt.Sprint(low), fmt.Sprint(high)}, n}
		builds = append(builds, b)
		counts[b.band] = n
	}
	got, stats, err := SelectMany(engs, f, every, opts)
	bandHook = nil
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Lossy {
		t.Fatal("the run was not lossy")
	}
	// Two builds that meet at a pivot are the lt and gt partitions of the round
	// that split the band from the one's low to the other's high.
	overlaps := 0
	for _, lt := range builds {
		for _, gt := range builds {
			if whole, ok := counts[band{lt.low, gt.high}]; ok && lt.high == gt.low && lt.n.Add(gt.n).Cmp(whole) > 0 {
				overlaps++
			}
		}
	}
	if overlaps == 0 {
		t.Fatal("no round's partitions overlapped: the instance no longer exercises the placement rule")
	}

	h := fnv.New64a()
	alone := make([]*Answer, n)
	for i, k := range every {
		if alone[i], _, err = Select(engs, f, k, opts); err != nil {
			t.Fatalf("k=%s: %v", k, err)
		}
		fmt.Fprintln(h, alone[i].Values, alone[i].Weight)
		if !sameAnswer(got[i], alone[i]) {
			t.Errorf("index %s: answer %v weight %v, alone %v weight %v", k, got[i].Values, got[i].Weight, alone[i].Values, alone[i].Weight)
		}
	}
	const want = 0x921b4a40a1ae48fc
	if got := h.Sum64(); got != want {
		t.Fatalf("digest %#x, want %#x: a lossy one-index run changed its answer", got, uint64(want))
	}

	// A census has indices on both sides of every pivot, so its rounds build
	// both partitions anyway. The rule also has to build the second one when the
	// first holds every index by its count and one of them prefers the other:
	// each rank travels with a pair halfway to either end, which decides the
	// side that goes first in the rounds that split them. (Without that build
	// ranks 184–186 follow a pair among ranks 86–167 into the wrong partition.)
	for r := range every {
		for _, b := range []int{r / 2, r + (len(every)-r)/2} {
			got, _, err := SelectMany(engs, f, []counting.Count{every[b], every[r], every[b]}, opts)
			if err != nil {
				t.Fatalf("ranks %d, %d: %v", b, r, err)
			}
			if !sameAnswer(got[0], alone[b]) || !sameAnswer(got[1], alone[r]) || !sameAnswer(got[2], alone[b]) {
				t.Errorf("rank %d beside a pair at %d: answers differ from a run per rank", r, b)
			}
		}
	}
}

// The one-index case is the driver every exact read runs. Its answers and run
// statistics over the corpus are pinned: Iterations, Materialized,
// PivotReturned and MaxInstanceTuples included. The digest is the one the
// driver produced when it was a loop for one index (commit 07abb3f), but for
// MaxInstanceTuples, which fell when partitioned bands began to keep only the
// rows on an answer of their box; hashed without it the corpus gives the same
// digest before and after that change.
func TestSingleIndexRunsArePinned(t *testing.T) {
	h := fnv.New64a()
	corpusShards(t, 616, func(inst testutil.FuzzInstance, nShards int, sh *shard.Sharded) {
		for _, f := range inst.Ranks {
			for _, threshold := range []int{0, 8} {
				for _, phi := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
					a, st, err := Quantile(sh.Engines(), f, phi, Options{Parallelism: 1, MaterializeThreshold: threshold})
					if err != nil {
						t.Fatalf("%s shards=%d %s%v φ=%v: %v", inst.Name, nShards, f.Agg, f.Vars, phi, err)
					}
					fmt.Fprintln(h, a.Values, a.Weight, st.Iterations, st.Materialized, st.PivotReturned, st.MaxInstanceTuples, st.Count)
				}
			}
		}
	})
	const want = 0x3d84a9d86886a029
	if got := h.Sum64(); got != want {
		t.Fatalf("digest %#x, want %#x: a one-index run changed its answers or statistics", got, uint64(want))
	}
}

// referenceSummary is BuildSummary as it was before the shared descent: one
// selection run per grid index, exact where the classifier says the ranking is
// tractable (and the options do not force lossy SUM trims).
func referenceSummary(eng *engine.Engine, f *ranking.Func, res float64, opts Options) (*sketch.Summary, error) {
	n := eng.Counts().Total
	exact, _ := ClassifyRanking(eng.Query(), f)
	if opts.ForceLossy && f.Agg == ranking.Sum {
		exact = false
	}
	o := opts
	widen := counting.Zero
	if exact {
		o.Epsilon = 0
	} else {
		o.Epsilon = res / 2
		widen = counting.FloorMulFloat(n, o.Epsilon)
	}
	var entries []sketch.Entry
	var prev counting.Count
	for i := 0; float64(i-1)*res < 1; i++ {
		k := Index(n, min(float64(i)*res, 1))
		if i > 0 && k.Cmp(prev) == 0 {
			continue
		}
		prev = k
		a, _, err := Select([]*engine.Engine{eng}, f, k, o)
		if err != nil {
			return nil, err
		}
		rmin, rmax := k, k
		if !exact {
			rmin = counting.Zero
			if widen.Less(k) {
				rmin = k.Sub(widen)
			}
			rmax = counting.Min(k.Add(widen), n)
		}
		entries = append(entries, sketch.Entry{Weight: a.Weight, Values: a.Values, RMin: rmin, RMax: rmax})
	}
	return sketch.New(entries, n, res, !exact, f.Compare), nil
}

// A summary built by one descent holds, entry for entry, the anchors and
// windows of one selection run per grid index — exact rankings at the default
// resolution and at a finer one, lossy SUM (whose runs are the dear ones) at a
// coarser one.
func TestBuildSummaryMatchesSelectionPerAnchor(t *testing.T) {
	for _, inst := range testutil.FuzzCorpus(rand.New(rand.NewSource(616))) {
		eng, err := engine.New(inst.Q, inst.DB)
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		for i, f := range inst.Ranks {
			for _, opts := range []Options{{Parallelism: 1}, {Parallelism: 1, MaterializeThreshold: 8}, {Parallelism: 1, ForceLossy: true}} {
				if opts.ForceLossy && f.Agg != ranking.Sum {
					continue
				}
				for _, res := range []float64{DefaultSketchEps, 1.0 / 100} {
					if res != DefaultSketchEps && (i > 0 || opts != (Options{Parallelism: 1})) {
						continue // the finer grid once per instance
					}
					if opts.ForceLossy {
						res = 1.0 / 8
					}
					name := fmt.Sprintf("%s %s%v %+v res=%v", inst.Name, f.Agg, f.Vars, opts, res)
					got, err := BuildSummary(eng, f, res, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want, err := referenceSummary(eng, f, res, opts)
					if err != nil {
						t.Fatalf("%s: reference: %v", name, err)
					}
					if got.Lossy != want.Lossy || got.N != want.N || !reflect.DeepEqual(got.Entries, want.Entries) {
						t.Fatalf("%s: summary differs from a selection run per anchor:\n got %+v\nwant %+v", name, got.Entries, want.Entries)
					}
				}
			}
		}
	}
}

// What sharing means, and what it may hold: within one call no band is trimmed
// twice, and the gt partitions held aside never outnumber the rounds above the
// one running — so with a round's own two builds at most depth + 2 partitions
// are live, in at most depth + 1 triples of counting slots.
func TestSharedDescentBuildsEachBandOnce(t *testing.T) {
	built := map[string]bool{}
	var where string
	maxHeld := 0
	bandHook = func(low, high ranking.Bound, _ counting.Count, depth, held int) {
		band := fmt.Sprint(low, high)
		if built[band] {
			t.Fatalf("%s: band %s built twice", where, band)
		}
		built[band] = true
		if held > depth {
			t.Fatalf("%s: %d partitions held aside at depth %d", where, held, depth)
		}
		maxHeld = max(maxHeld, held)
	}
	defer func() { bandHook = nil }()
	rng := rand.New(rand.NewSource(35))
	corpusShards(t, 616, func(inst testutil.FuzzInstance, nShards int, sh *shard.Sharded) {
		for _, f := range inst.Ranks {
			for _, set := range rankSets(rng, sh.Total()) {
				where = fmt.Sprintf("%s shards=%d %s%v %s", inst.Name, nShards, f.Agg, f.Vars, set.name)
				clear(built)
				if _, _, err := SelectMany(sh.Engines(), f, set.ks, Options{Parallelism: 1, MaterializeThreshold: 8}); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
			}
		}
	})
	if maxHeld < 2 {
		t.Fatalf("at most %d partitions were ever held aside: the stack of counting slots went unexercised", maxHeld)
	}
}

// SelectMany rejects an index past the end with Select' words, wherever
// in the request it sits, and answers an empty request with no answers.
func TestSelectManyArguments(t *testing.T) {
	inst := testutil.FuzzCorpus(rand.New(rand.NewSource(616)))[0]
	eng, err := engine.New(inst.Q, inst.DB)
	if err != nil {
		t.Fatal(err)
	}
	engs, f, n := []*engine.Engine{eng}, inst.Ranks[0], eng.Counts().Total
	_, _, wantErr := Select(engs, f, n, Options{})
	if _, _, err := SelectMany(engs, f, []counting.Count{counting.Zero, n, counting.One}, Options{}); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("out-of-range index: %v, want %v", err, wantErr)
	}
	got, stats, err := SelectMany(engs, f, nil, Options{})
	if err != nil || got == nil || len(got) != 0 || stats.Count != n {
		t.Fatalf("empty request: answers %v stats %+v err %v", got, stats, err)
	}
}
