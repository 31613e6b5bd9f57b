package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/pivot"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/shard"
	"github.com/quantilejoins/qjoin/internal/testutil"
	"github.com/quantilejoins/qjoin/internal/trim"
	"github.com/quantilejoins/qjoin/internal/workload"
	"github.com/quantilejoins/qjoin/internal/yannakakis"
)

// referenceRun is Algorithm 1 with the round as the paper states it: both
// partitions are trimmed, derived and counted every round, and only then is
// the one holding k chosen. It is the reference the driver's one-sided rounds
// are held against (exact trims only; no scratch, no phase log).
func referenceRun(engs []*engine.Engine, f *ranking.Func, k counting.Count, opts Options) (*Answer, *RunStats, error) {
	origVars := engs[0].Vars()
	shards := make([]*shardState, len(engs))
	dbSize, total := 0, counting.Zero
	for i, eng := range engs {
		st := &shardState{
			eng:  eng,
			orig: trim.Instance{Q: eng.Query(), DB: eng.DB(), Exec: eng.Exec(), Cache: eng.TrimCache()},
		}
		st.cur, st.curExec, st.curCounts = st.orig, eng.Exec(), eng.Counts()
		st.curCount = st.curCounts.Total
		st.dead = st.curCount.IsZero()
		dbSize += eng.DB().Size()
		total = total.Add(st.curCount)
		shards[i] = st
	}
	stats := &RunStats{Count: total}
	trm, err := makeTrimmer(engs[0], f, opts)
	if err != nil {
		return nil, stats, err
	}
	threshold := counting.FromInt(opts.threshold(dbSize))
	low, high := ranking.NegInf(), ranking.PosInf()
	curCount := total
	cands := make([]*pivot.Result, len(shards))
	for iter := 0; iter < opts.maxIterations(); iter++ {
		if curCount.Cmp(threshold) <= 0 {
			m, _ := curCount.Uint64()
			stats.Materialized = int(m)
			ans, err := referenceTail(shards, f, origVars, nil, k)
			return ans, stats, err
		}
		stats.Iterations = iter + 1
		for i, st := range shards {
			cands[i] = nil
			if st.dead {
				continue
			}
			mu, err := f.AssignVars(st.cur.Q)
			if err != nil {
				return nil, stats, err
			}
			if cands[i], err = pivot.Select(st.curExec, st.curCounts, f, mu, nil); err != nil {
				return nil, stats, err
			}
		}
		pv, pidx := pivot.MergeShards(cands, f)
		wp := ranking.Finite(pv.Weight)
		var c [2]counting.Count
		for side, band := range [2][2]ranking.Bound{trim.Less: {low, wp}, trim.Greater: {wp, high}} {
			size := 0
			for _, st := range shards {
				if st.dead {
					continue
				}
				p := &st.parts[side]
				if p.inst, err = trm.band(st.orig, nil, band[0], band[1], trim.Dir(side), 0); err != nil {
					return nil, stats, err
				}
				if p.exec, err = execOf(p.inst); err != nil {
					return nil, stats, err
				}
				p.counts = yannakakis.Count(p.exec)
				c[side] = c[side].Add(p.counts.Total)
				size += p.inst.DB.Size()
			}
			stats.MaxInstanceTuples = max(stats.MaxInstanceTuples, size)
		}
		descend := func(side trim.Dir) {
			for _, st := range shards {
				if st.dead {
					continue
				}
				p := st.parts[side]
				st.cur, st.curExec, st.curCounts, st.curCount = p.inst, p.exec, p.counts, p.counts.Total
				st.dead = st.curCount.IsZero()
			}
		}
		switch {
		case k.Cmp(c[trim.Less]) < 0:
			descend(trim.Less)
			curCount, high = c[trim.Less], wp
		case k.Cmp(curCount.Sub(c[trim.Greater])) >= 0:
			k = k.Sub(curCount.Sub(c[trim.Greater]))
			descend(trim.Greater)
			curCount, low = c[trim.Greater], wp
		default:
			stats.PivotReturned = true
			if curCount.Sub(c[trim.Less]).Sub(c[trim.Greater]).Cmp(counting.One) == 0 {
				ans := projectAnswer(shards[pidx].cur.Q.Vars(), pv.Assignment, origVars)
				return &Answer{Vars: origVars, Values: ans, Weight: pv.Weight}, stats, nil
			}
			ans, err := referenceTail(shards, f, origVars, &pv.Weight, k.Sub(c[trim.Less]))
			return ans, stats, err
		}
	}
	return nil, stats, ErrTooManyIterations
}

// One-sided rounds must be invisible in the results: over the differential
// corpus, unsharded and at four shards, with the default threshold and with
// one low enough to force deep loops, the driver returns the reference's
// answer byte for byte, ends the same way after the same number of rounds,
// and never builds a larger instance than the reference did.
func TestOneSidedRoundsMatchBothSidesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(616))
	for _, inst := range testutil.FuzzCorpus(rng) {
		for _, nShards := range []int{1, 4} {
			sh, err := shard.Partition(inst.Q, inst.DB, nShards)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", inst.Name, nShards, err)
			}
			engs := sh.Engines()
			for _, f := range inst.Ranks {
				for _, threshold := range []int{0, 8} {
					opts := Options{Parallelism: 1, MaterializeThreshold: threshold}
					oneSided := 0
					for _, phi := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
						name := fmt.Sprintf("%s shards=%d %s%v φ=%v threshold=%d", inst.Name, nShards, f.Agg, f.Vars, phi, threshold)
						got, gotStats, err := Quantile(engs, f, phi, opts)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						want, wantStats, err := referenceRun(engs, f, Index(sh.Total(), phi), opts)
						if err != nil {
							t.Fatalf("%s: reference: %v", name, err)
						}
						if !reflect.DeepEqual(got.Values, want.Values) || !reflect.DeepEqual(got.Weight, want.Weight) {
							t.Fatalf("%s: answer %v weight %v, reference %v weight %v", name, got.Values, got.Weight, want.Values, want.Weight)
						}
						if gotStats.PivotReturned != wantStats.PivotReturned || gotStats.Materialized != wantStats.Materialized ||
							gotStats.Iterations != wantStats.Iterations {
							t.Fatalf("%s: stats %+v, reference %+v", name, *gotStats, *wantStats)
						}
						if gotStats.MaxInstanceTuples > wantStats.MaxInstanceTuples {
							t.Fatalf("%s: built %d tuples, reference %d", name, gotStats.MaxInstanceTuples, wantStats.MaxInstanceTuples)
						}
						if gotStats.MaxInstanceTuples < wantStats.MaxInstanceTuples {
							oneSided++
						}
					}
					if threshold > 0 && oneSided == 0 {
						t.Errorf("%s shards=%d %s%v: no run built less than the reference; the comparison is vacuous",
							inst.Name, nShards, f.Agg, f.Vars)
					}
				}
			}
		}
	}
}

// RunStats.Iterations counts the rounds that ran, whichever way the run
// ended: it equals the length of the phase log on the materialize exit and on
// the equal-partition exit (which used to report one round fewer).
func TestIterationsCountsEveryRound(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	coarse, coarseDB := workload.Path(rng, 2, 1<<12, 1<<4) // 16 weight classes: ends in the equal partition
	fine, fineDB := workload.Path(rng, 2, 1<<12, 1<<10)    // |Q(D)| ≈ 2·|D|: loops, then materializes
	for _, tc := range []struct {
		name          string
		f             *ranking.Func
		run           func(f *ranking.Func) (*Answer, *RunStats, error)
		pivotReturned bool
	}{
		{"equal-partition", ranking.NewMax("x1", "x3"), func(f *ranking.Func) (*Answer, *RunStats, error) {
			return Quantile(engines(t, coarse, coarseDB), f, 0.5, Options{CollectPhases: true})
		}, true},
		{"materialize", ranking.NewSum("x1", "x2", "x3"), func(f *ranking.Func) (*Answer, *RunStats, error) {
			return Quantile(engines(t, fine, fineDB), f, 0.5, Options{CollectPhases: true})
		}, false},
	} {
		_, stats, err := tc.run(tc.f)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if stats.PivotReturned != tc.pivotReturned || stats.Iterations == 0 {
			t.Fatalf("%s: fixture no longer takes this exit after a round: %+v", tc.name, *stats)
		}
		if len(stats.Phases.Iterations) != stats.Iterations {
			t.Fatalf("%s: Iterations = %d, phase log has %d rounds", tc.name, stats.Iterations, len(stats.Phases.Iterations))
		}
	}
}

// The three-slot invariant: whenever a round starts, and when a run leaves
// through the equal partition after its builds, every live shard's curCounts
// is the counting state of its curExec — not a buffer a later build of the
// same run has since reused.
func TestCurrentCountsSurviveTheRound(t *testing.T) {
	var where string
	descended := 0
	roundHook = func(shards []*shardState) {
		for i, st := range shards {
			if st.dead {
				continue
			}
			if st.curSlot >= 0 {
				descended++
			}
			want := yannakakis.Count(st.curExec)
			if !reflect.DeepEqual(st.curCounts.Tuple, want.Tuple) || st.curCounts.Total != want.Total {
				t.Fatalf("%s: shard %d (slot %d): current counts are not a fresh count of the current tree", where, i, st.curSlot)
			}
			for _, n := range st.curExec.T.Nodes {
				if n.Parent >= 0 && !reflect.DeepEqual(st.curCounts.Group[n.ID], want.Group[n.ID]) {
					t.Fatalf("%s: shard %d (slot %d): group counts of node %d differ from a fresh count", where, i, st.curSlot, n.ID)
				}
			}
		}
	}
	defer func() { roundHook = nil }()
	rng := rand.New(rand.NewSource(616))
	classExits, materialized := 0, 0
	for _, inst := range testutil.FuzzCorpus(rng) {
		for _, nShards := range []int{1, 4} {
			sh, err := shard.Partition(inst.Q, inst.DB, nShards)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", inst.Name, nShards, err)
			}
			for _, f := range inst.Ranks {
				for _, phi := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
					where = fmt.Sprintf("%s shards=%d %s%v φ=%v", inst.Name, nShards, f.Agg, f.Vars, phi)
					_, stats, err := Quantile(sh.Engines(), f, phi, Options{Parallelism: 1, MaterializeThreshold: 8})
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if stats.Iterations > 1 && stats.PivotReturned {
						classExits++
					}
					if stats.Iterations > 1 && !stats.PivotReturned {
						materialized++
					}
				}
			}
		}
	}
	if descended == 0 || classExits == 0 || materialized == 0 {
		t.Fatalf("descended states seen %d, equal-partition exits %d, materialize exits %d after two or more rounds: an exit went unchecked",
			descended, classExits, materialized)
	}
}
