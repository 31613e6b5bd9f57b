// Differential tests of the sharded engine (PR 7): every instance of the PR 6
// fuzz corpus is answered through PrepareSharded at several shard counts and
// worker counts and must agree byte-for-byte with the unsharded plan —
// answers always, and RunStats wherever the contract promises determinism
// (across worker counts at a fixed shard count, and for shards=1 against the
// unsharded engine, whose descent it replays exactly).
package qjoin_test

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/workload"
)

func TestValidateShards(t *testing.T) {
	for _, n := range []int{0, 1, 2, qjoin.MaxShards} {
		if err := qjoin.ValidateShards(n); err != nil {
			t.Errorf("ValidateShards(%d) = %v, want nil", n, err)
		}
	}
	for _, n := range []int{-1, -64, qjoin.MaxShards + 1, 1 << 20} {
		err := qjoin.ValidateShards(n)
		var ae *qjoin.ArgError
		if !errors.As(err, &ae) || ae.Field != "shards" {
			t.Errorf("ValidateShards(%d) = %v, want *ArgError on field shards", n, err)
		}
	}
	rng := rand.New(rand.NewSource(700))
	q, idb := workload.Path(rng, 2, 50, 8)
	if _, err := qjoin.PrepareSharded(q, qjoin.WrapDB(idb), -3); err == nil {
		t.Error("PrepareSharded with negative shards succeeded")
	}
}

// TestPrepareShardedCyclic: the sharded engine has no decomposition path, so
// a cyclic query must fail fast with the typed sentinel rather than a shard
// error — callers (and the server's plan cache) fall back to Prepare.
func TestPrepareShardedCyclic(t *testing.T) {
	q := qjoin.NewQuery(
		qjoin.NewAtom("R", "x", "y"),
		qjoin.NewAtom("S", "y", "z"),
		qjoin.NewAtom("T", "z", "x"),
	)
	db := qjoin.NewDB().
		MustAdd("R", 2, [][]qjoin.Value{{1, 2}}).
		MustAdd("S", 2, [][]qjoin.Value{{2, 3}}).
		MustAdd("T", 2, [][]qjoin.Value{{3, 1}})
	_, err := qjoin.PrepareSharded(q, db, 4)
	if !errors.Is(err, qjoin.ErrCyclicSharded) {
		t.Fatalf("PrepareSharded(triangle) = %v, want ErrCyclicSharded", err)
	}
	// The unsharded fallback answers the same query exactly.
	p, err := qjoin.Prepare(q, db)
	if err != nil {
		t.Fatalf("Prepare fallback: %v", err)
	}
	a, err := p.Quantile(qjoin.Sum("x", "y", "z"), 0.5)
	if err != nil || a.Weight.K != 6 {
		t.Fatalf("fallback quantile = %v, %v; want weight 6", a, err)
	}
}

func TestShardOfDeterministic(t *testing.T) {
	seen := make(map[int]int)
	for v := int64(0); v < 1000; v++ {
		s := qjoin.ShardOf(v, 4)
		if s < 0 || s >= 4 {
			t.Fatalf("ShardOf(%d, 4) = %d out of range", v, s)
		}
		if s != qjoin.ShardOf(v, 4) {
			t.Fatalf("ShardOf(%d, 4) unstable", v)
		}
		seen[s]++
	}
	for s := 0; s < 4; s++ {
		if seen[s] == 0 {
			t.Errorf("shard %d received no values out of 1000", s)
		}
	}
}

// TestShardedDifferentialFuzz is the PR 7 differential: sharded plans at
// shards 1/2/5 x Parallelism 1/2 against the unsharded engine, over the same
// randomized corpus (self-joins, duplicates, sub-threshold shapes) and phi
// grid as the columnar differential.
func TestShardedDifferentialFuzz(t *testing.T) {
	phis := []float64{0, 0.25, 0.5, 0.9, 1}
	rng := rand.New(rand.NewSource(616)) // same corpus seed as the PR 6 fuzz
	for _, inst := range fuzzInstances(rng) {
		inst := inst
		t.Run(inst.name, func(t *testing.T) {
			ref, err := qjoin.Prepare(inst.q, inst.db, qjoin.Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}

			for _, shards := range []int{1, 2, 5} {
				type run struct {
					w    int
					plan *qjoin.Prepared
				}
				var runs []run
				for _, w := range []int{1, 2} {
					sp, err := qjoin.PrepareSharded(inst.q, inst.db, shards, qjoin.Options{Parallelism: w})
					if err != nil {
						t.Fatalf("shards=%d workers=%d: %v", shards, w, err)
					}
					if sp.Count().Cmp(ref.Count()) != 0 {
						t.Fatalf("shards=%d workers=%d: count %v, unsharded %v", shards, w, sp.Count(), ref.Count())
					}
					if !reflect.DeepEqual(sp.Vars(), ref.Vars()) {
						t.Fatalf("shards=%d: vars %v, unsharded %v", shards, sp.Vars(), ref.Vars())
					}
					runs = append(runs, run{w, sp})
				}

				for ri, f := range inst.ranks {
					for _, phi := range phis {
						want, wantStats, err := ref.QuantileStats(f, phi)
						if err != nil {
							t.Fatalf("rank %d φ=%v: %v", ri, phi, err)
						}
						var s1 *qjoin.RunStats
						for _, r := range runs {
							a, s, err := r.plan.QuantileStats(f, phi)
							if err != nil {
								t.Fatalf("rank %d φ=%v shards=%d workers=%d: %v", ri, phi, shards, r.w, err)
							}
							if !reflect.DeepEqual(a, want) {
								t.Errorf("rank %d φ=%v shards=%d workers=%d: answer %v diverged from unsharded %v",
									ri, phi, shards, r.w, a, want)
							}
							// RunStats contract: identical across worker counts
							// at a fixed shard count; identical to the unsharded
							// run when shards=1.
							if s1 == nil {
								s1 = s
								if shards == 1 && !reflect.DeepEqual(s, wantStats) {
									t.Errorf("rank %d φ=%v shards=1: RunStats diverged from unsharded: %+v vs %+v",
										ri, phi, s, wantStats)
								}
							} else if !reflect.DeepEqual(s, s1) {
								t.Errorf("rank %d φ=%v shards=%d workers=%d: RunStats diverged across workers: %+v vs %+v",
									ri, phi, shards, r.w, s, s1)
							}
						}
					}
				}
			}
		})
	}
}

// TestShardedDeltaDifferential chains random deltas through sharded plans at
// several shard counts and checks every link byte-identical to the unsharded
// plan fed the same chain — delta routing (fan-out per self-join occurrence,
// broadcast for replicated relations) must preserve exactly the rows the
// global database holds.
func TestShardedDeltaDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(719))
	for _, mk := range []struct {
		name string
		make func() (*qjoin.Query, *qjoin.DB)
	}{
		{"path2", func() (*qjoin.Query, *qjoin.DB) {
			q, idb := workload.Path(rng, 2, 400, 25)
			return q, qjoin.WrapDB(idb)
		}},
		{"selfjoin", func() (*qjoin.Query, *qjoin.DB) {
			q := qjoin.NewQuery(qjoin.NewAtom("R", "x", "y"), qjoin.NewAtom("R", "y", "z"))
			rows := make([][]int64, 0, 400)
			for i := 0; i < 400; i++ {
				rows = append(rows, []int64{rng.Int63n(22), rng.Int63n(22)})
			}
			return q, qjoin.NewDB().MustAdd("R", 2, rows)
		}},
	} {
		mk := mk
		t.Run(mk.name, func(t *testing.T) {
			q, db := mk.make()
			f := qjoin.Sum(q.Vars()...)
			phis := []float64{0, 0.5, 1}

			flat, err := qjoin.Prepare(q, db, qjoin.Options{Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			sharded := make(map[int]*qjoin.Prepared)
			for _, n := range []int{1, 2, 5} {
				if sharded[n], err = qjoin.PrepareSharded(q, db, n, qjoin.Options{Parallelism: 2}); err != nil {
					t.Fatal(err)
				}
			}

			names := db.Relations()
			cur := db
			for round := 0; round < 4; round++ {
				d := randomDelta(rng, cur.Unwrap(), names, 15, 25)
				if cur, err = cur.Apply(d); err != nil {
					t.Fatal(err)
				}
				if flat, err = flat.Update(d); err != nil {
					t.Fatalf("round %d: unsharded update: %v", round, err)
				}
				for _, n := range []int{1, 2, 5} {
					if sharded[n], err = sharded[n].Update(d); err != nil {
						t.Fatalf("round %d shards=%d: %v", round, n, err)
					}
					if sharded[n].Count().Cmp(flat.Count()) != 0 {
						t.Fatalf("round %d shards=%d: count %v, unsharded %v",
							round, n, sharded[n].Count(), flat.Count())
					}
					for _, phi := range phis {
						want, err := flat.Quantile(f, phi)
						if err != nil {
							t.Fatal(err)
						}
						got, err := sharded[n].Quantile(f, phi)
						if err != nil {
							t.Fatalf("round %d shards=%d φ=%v: %v", round, n, phi, err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("round %d shards=%d φ=%v: %v diverged from %v", round, n, phi, got, want)
						}
					}
				}
			}
			// The folded DB view of the chained sharded plan must equal the
			// sequentially applied database.
			for _, n := range []int{1, 2, 5} {
				fresh, err := qjoin.PrepareSharded(q, sharded[n].DB(), n, qjoin.Options{Parallelism: 2})
				if err != nil {
					t.Fatal(err)
				}
				if fresh.Count().Cmp(flat.Count()) != 0 {
					t.Errorf("shards=%d: folded DB count %v, want %v", n, fresh.Count(), flat.Count())
				}
			}
		})
	}
}

// TestShardedTopKMerge checks the k-way merged ranked enumeration: the
// sharded TopK must return the same weight multiset as the unsharded stream,
// with every returned row a real answer, in nondecreasing weight order.
func TestShardedTopKMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(721))
	q, idb := workload.Path(rng, 2, 300, 20)
	db := qjoin.WrapDB(idb)
	f := qjoin.Sum(q.Vars()...)
	const k = 25

	flat, err := qjoin.Prepare(q, db)
	if err != nil {
		t.Fatal(err)
	}
	want, err := flat.TopK(f, k)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := qjoin.PrepareSharded(q, db, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sp.TopK(f, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("sharded TopK returned %d answers, unsharded %d", len(got), len(want))
	}
	for i := range got {
		if f.Compare(got[i].Weight, want[i].Weight) != 0 {
			t.Errorf("rank %d: weight %v, unsharded %v", i, got[i].Weight, want[i].Weight)
		}
		if i > 0 && f.Compare(got[i-1].Weight, got[i].Weight) > 0 {
			t.Errorf("rank %d: merged stream out of order", i)
		}
	}
}

// TestShardedUpdateRace is the sharded mirror of the overlay race test: a
// chain of per-shard routed updates derives new sharded plans while readers
// keep answering from the base plan, then the final plan is checked against
// a fresh PrepareSharded and an unsharded Prepare of the mutated database.
func TestShardedUpdateRace(t *testing.T) {
	rng := rand.New(rand.NewSource(723))
	q, idb := workload.Path(rng, 2, 500, 30)
	db := qjoin.WrapDB(idb)
	f := qjoin.Sum(q.Vars()...)
	phis := []float64{0.25, 0.75}

	base, err := qjoin.PrepareSharded(q, db, 4, qjoin.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	baseWant := make([]*qjoin.Answer, len(phis))
	for i, phi := range phis {
		if baseWant[i], err = base.Quantile(f, phi); err != nil {
			t.Fatal(err)
		}
	}

	const rounds = 4
	names := db.Relations()
	deltas := make([]*qjoin.Delta, rounds)
	cur := db
	for r := range deltas {
		deltas[r] = randomDelta(rng, cur.Unwrap(), names, 15, 30)
		if cur, err = cur.Apply(deltas[r]); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, phi := range phis {
					a, err := base.Quantile(f, phi)
					if err != nil || !reflect.DeepEqual(a, baseWant[i]) {
						t.Errorf("base reader diverged: %v %v", a, err)
						return
					}
				}
			}
		}()
	}

	p := base
	var derived sync.WaitGroup
	for r := 0; r < rounds; r++ {
		if p, err = p.Update(deltas[r]); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		p := p
		derived.Add(1)
		go func() {
			defer derived.Done()
			if _, err := p.Median(f); err != nil {
				t.Error(err)
			}
		}()
	}
	derived.Wait()
	close(stop)
	readers.Wait()

	flat, err := qjoin.Prepare(q, cur, qjoin.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := qjoin.PrepareSharded(q, cur, 4, qjoin.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, phi := range phis {
		got, err := p.Quantile(f, phi)
		if err != nil {
			t.Fatal(err)
		}
		want, err := flat.Quantile(f, phi)
		if err != nil {
			t.Fatal(err)
		}
		refreshed, err := fresh.Quantile(f, phi)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("φ=%v: chained sharded plan %v diverged from unsharded %v", phi, got, want)
		}
		if !reflect.DeepEqual(got, refreshed) {
			t.Errorf("φ=%v: chained sharded plan %v diverged from fresh PrepareSharded %v", phi, got, refreshed)
		}
	}
}
