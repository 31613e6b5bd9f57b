package core

import (
	"fmt"
	"math"
	"time"

	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/decomp"
	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/parallel"
	"github.com/quantilejoins/qjoin/internal/pivot"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/selection"
	"github.com/quantilejoins/qjoin/internal/trim"
	"github.com/quantilejoins/qjoin/internal/yannakakis"
)

// PhaseTimings is the wall-clock breakdown of one pivoting iteration,
// collected only when Options.CollectPhases is set (timings are inherently
// non-deterministic, so the default RunStats stay byte-comparable across
// runs and worker counts).
type PhaseTimings struct {
	// Pivot is the pivot-selection pass (Algorithm 2) over the candidate
	// (per shard, plus the cross-shard weighted-median merge).
	Pivot time.Duration
	// Trim is the construction of the round's trimmed instances — the one
	// partition most rounds build, both when the first did not place the
	// index — including any composed bound trims.
	Trim time.Duration
	// Derive is executable-tree acquisition for the trimmed instances:
	// subset derivation when the trim emitted one, Build+NewExec otherwise.
	Derive time.Duration
	// Count is the counting pass over the trimmed instances.
	Count time.Duration
}

// RunStats reports what one driver run did.
//
// For a sharded run, Count is the global answer count (shard counts add:
// the shards partition the answer set) and the remaining fields describe
// the global pivot loop — each iteration spans every live shard. The answer
// itself is byte-identical for every shard count, but the pivot sequence is
// not: Iterations, Materialized, PivotReturned and MaxInstanceTuples are
// deterministic for a fixed shard count (identical across worker counts and
// across runs), not across different shard counts.
type RunStats struct {
	// Iterations is the number of pivoting rounds executed, whichever way
	// the run ended; with Options.CollectPhases it equals
	// len(Phases.Iterations).
	Iterations int
	// Materialized is the candidate count resolved by final materialization
	// (0 when the run terminated in the equal partition).
	Materialized int
	// PivotReturned reports termination through the equal partition.
	PivotReturned bool
	// Count is |Q(D)|.
	Count counting.Count
	// MaxInstanceTuples is the largest trimmed database built (summed across
	// shards within one partition of one iteration).
	MaxInstanceTuples int
	// Lossy reports that the run partitioned through ε-lossy trims (SUM
	// outside the tractable class with Options.Epsilon > 0), so the answer
	// carries the (φ±ε) guarantee rather than the exact rank. Deterministic
	// for a fixed query and options, like the fields above.
	Lossy bool
	// Phases holds the per-iteration timing breakdown when
	// Options.CollectPhases was set; nil otherwise. A pointer, so RunStats
	// values stay comparable (two default runs compare equal).
	Phases *PhaseLog
	// Decomp describes the hypertree decomposition a cyclic query was
	// answered through — width, bag count and sizes, materialization cost,
	// and incremental-update flags; nil for acyclic (and sharded) runs. A
	// pointer, like Phases, so RunStats values stay comparable. Every
	// field but MaterializeNanos is deterministic for a fixed plan.
	Decomp *decomp.Stats
}

// PhaseLog is the per-iteration phase-timing log of one run.
type PhaseLog struct {
	Iterations []PhaseTimings
}

// runScratch is the pooled per-run iteration scratch: three counting buffers,
// the pivot pass's weight arrays, and the backing of the tail's LEX weight
// vectors. One value serves one run at a time; the engine's scratch pool hands
// it from run to run so steady-state quantile answering allocates no fresh
// per-node arrays. Three counting slots, not one per side: the counts a round
// descended into stay the current instance's until the next descent — the
// pivot pass reads them, and so does either exit's enumeration — so a round's
// two builds take the two slots that do not hold them (countSlot). Sharded
// runs check one scratch out of every shard engine's pool, so concurrent runs
// over the same shards stay race-free.
type runScratch struct {
	counts  [3]yannakakis.Scratch
	pivot   pivot.Scratch
	lexVecs []int64
}

// countSlot is the counting slot a round's build of the given side writes
// while the current instance's counts sit in slot cur (-1: in none, they are
// the engine's own): the sides' slots differ from each other and from cur.
func countSlot(cur int, side trim.Dir) int { return (cur + 1 + int(side)) % 3 }

// scratchFor checks a runScratch out of the engine's pool.
func scratchFor(eng *engine.Engine) *runScratch {
	if s, ok := eng.Scratch().Get().(*runScratch); ok {
		return s
	}
	return &runScratch{}
}

// trimmer binds the ranking-specific trim constructions of Section 5/6 into
// the one operation Algorithm 1 needs: cut the original instance down to a
// candidate band.
type trimmer struct {
	// sumBand trims to low ≺ Σ ≺ high in one pass (exact SUM only).
	sumBand func(inst trim.Instance, low, high ranking.Bound) (trim.Instance, error)
	// cut trims to one side of a weight; bands compose two of them.
	cut   func(inst trim.Instance, w ranking.Weightv, dir trim.Dir, eps float64) (trim.Instance, error)
	lossy bool
}

// band trims orig to one partition of a round, the answers with
// low ≺ w ≺ high. side is the partition — lt (trim.Less), whose high is the
// round's pivot, or gt (trim.Greater), whose low is — and so the direction of
// the pivot's cut, which comes first where a band is two composed cuts; the
// other bound is carried over from earlier rounds and may be infinite.
func (t *trimmer) band(orig trim.Instance, low, high ranking.Bound, side trim.Dir, eps float64) (trim.Instance, error) {
	if t.sumBand != nil {
		return t.sumBand(orig, low, high)
	}
	pivot, carried, carriedDir := high, low, trim.Greater
	if side == trim.Greater {
		pivot, carried, carriedDir = low, high, trim.Less
	}
	out, err := t.cut(orig, pivot.W, side, eps)
	if err == nil && carried.IsFinite() {
		out, err = t.cut(out, carried.W, carriedDir, eps)
	}
	return out, err
}

// makeTrimmer selects the trimming construction for the ranking function,
// enforcing the dichotomy for exact SUM.
func makeTrimmer(q *query.Query, f *ranking.Func, opts Options) (*trimmer, error) {
	switch f.Agg {
	case ranking.Min, ranking.Max:
		return &trimmer{cut: func(inst trim.Instance, w ranking.Weightv, dir trim.Dir, _ float64) (trim.Instance, error) {
			return trim.MinMax(inst, f, w.K, dir)
		}}, nil
	case ranking.Lex:
		return &trimmer{cut: func(inst trim.Instance, w ranking.Weightv, dir trim.Dir, _ float64) (trim.Instance, error) {
			return trim.Lex(inst, f, w.Vec, dir)
		}}, nil
	case ranking.Sum:
		if !opts.ForceLossy {
			if _, _, _, err := jointree.BuildAdjacentPair(q, f.Vars); err == nil {
				return &trimmer{sumBand: func(inst trim.Instance, low, high ranking.Bound) (trim.Instance, error) {
					return trim.SumAdjacentBand(inst, f, low, high)
				}}, nil
			}
		}
		if opts.Epsilon <= 0 {
			return nil, ErrIntractable
		}
		lossyOpts := opts.LossyOpts
		return &trimmer{lossy: true, cut: func(inst trim.Instance, w ranking.Weightv, dir trim.Dir, eps float64) (trim.Instance, error) {
			out, _, err := trim.SumLossy(inst, f, w.K, dir, eps, lossyOpts)
			return out, err
		}}, nil
	}
	return nil, fmt.Errorf("core: unsupported aggregate %s", f.Agg)
}

// execOf returns the executable join tree of an instance: the one the trim
// derived by subset filtering when present, a fresh Build+NewExec otherwise.
func execOf(inst trim.Instance) (*jointree.Exec, error) {
	if inst.Exec != nil {
		return inst.Exec, nil
	}
	tree, err := jointree.Build(inst.Q)
	if err != nil {
		return nil, err
	}
	return jointree.NewExecWorkers(inst.Q, inst.DB, tree, inst.Workers)
}

// Count returns |Q(D)| for an acyclic query.
func Count(q *query.Query, db *relation.Database) (counting.Count, error) {
	eng, err := engine.New(q, db)
	if err != nil {
		return counting.Zero, err
	}
	return eng.Total(), nil
}

// validPhi rejects quantile fractions outside [0,1] before any preprocessing
// is paid for.
func validPhi(phi float64) error {
	if math.IsNaN(phi) || phi < 0 || phi > 1 {
		return fmt.Errorf("core: φ must be in [0,1], got %v", phi)
	}
	return nil
}

// Quantile answers a %JQ: the φ-quantile of Q(D) under the ranking function,
// per Algorithm 1. It compiles the (Q, D) pair and discards the plan; use
// QuantilePrepared to amortize preparation over many queries.
func Quantile(q0 *query.Query, db0 *relation.Database, f *ranking.Func, phi float64, opts Options) (*Answer, *RunStats, error) {
	if err := validPhi(phi); err != nil {
		return nil, nil, err
	}
	eng, err := engine.NewWorkers(q0, db0, opts.Parallelism)
	if err != nil {
		return nil, nil, err
	}
	return QuantilePrepared(eng, f, phi, opts)
}

// QuantilePrepared answers a %JQ against an already compiled engine. With
// opts.Epsilon > 0 and a SUM ranking outside the tractable class, it returns
// a deterministic (φ±ε)-quantile (Theorem 6.2).
func QuantilePrepared(eng *engine.Engine, f *ranking.Func, phi float64, opts Options) (*Answer, *RunStats, error) {
	return QuantileShards([]*engine.Engine{eng}, f, phi, opts)
}

// QuantileShards answers a %JQ over the disjoint union of the shard engines'
// answer sets. The engines must be compiled from the same query over a hash
// partition of one database (so their answer sets are disjoint and their
// counts add); internal/shard builds such a family. One iteration of the
// global pivot loop spans every live shard: per-shard pivot candidates merge
// into one global pivot by weighted median, the λ-trim broadcasts to every
// shard, and the per-shard partition counts are summed to steer the global
// index. A one-element slice is exactly the unsharded algorithm.
func QuantileShards(engs []*engine.Engine, f *ranking.Func, phi float64, opts Options) (*Answer, *RunStats, error) {
	if err := validPhi(phi); err != nil {
		return nil, nil, err
	}
	return run(engs, f, opts, func(total counting.Count) (counting.Count, error) {
		return Index(total, phi), nil
	})
}

// Select answers the selection problem (footnote 1 of the paper): the answer
// at absolute zero-based index k in the ranked order. Selection and quantile
// computation are equivalent for acyclic queries since |Q(D)| is computable
// in linear time.
func Select(q0 *query.Query, db0 *relation.Database, f *ranking.Func, k counting.Count, opts Options) (*Answer, *RunStats, error) {
	eng, err := engine.NewWorkers(q0, db0, opts.Parallelism)
	if err != nil {
		return nil, nil, err
	}
	return SelectPrepared(eng, f, k, opts)
}

// SelectPrepared is Select against an already compiled engine.
func SelectPrepared(eng *engine.Engine, f *ranking.Func, k counting.Count, opts Options) (*Answer, *RunStats, error) {
	return SelectShards([]*engine.Engine{eng}, f, k, opts)
}

// SelectShards is SelectPrepared over a family of shard engines (see
// QuantileShards for the contract).
func SelectShards(engs []*engine.Engine, f *ranking.Func, k counting.Count, opts Options) (*Answer, *RunStats, error) {
	return run(engs, f, opts, func(total counting.Count) (counting.Count, error) {
		if k.Cmp(total) >= 0 {
			return counting.Zero, fmt.Errorf("core: index %s out of range (|Q(D)| = %s)", k, total)
		}
		return k, nil
	})
}

// shardState is one shard's slice of the global pivot loop's state. The
// driver body is written against a vector of these; the unsharded path is
// the one-element vector, so sharding adds no second algorithm to keep in
// sync — and the one-shard run is bit-for-bit the pre-sharding driver.
type shardState struct {
	eng       *engine.Engine
	orig      trim.Instance
	cur       trim.Instance
	curExec   *jointree.Exec
	curCounts *yannakakis.Counts
	curCount  counting.Count
	// curSlot is the scratch counting slot curCounts lives in, -1 while cur
	// is the untrimmed instance and the counts are the engine's cached ones.
	curSlot int
	// dead marks a shard with no candidates left in the current (low, high)
	// band. Trims always narrow the band, so a dead shard can never come
	// back and is skipped by every later pass.
	dead bool
	scr  *runScratch
	// parts are this round's candidate partitions, indexed by side and
	// filled stage by stage so phase timings aggregate across shards the way
	// they did across one. A side the round did not build holds a stale one.
	parts [2]partition
}

// partition is one shard's slice of one side of a round: the trimmed
// instance, its executable tree, and its counting state with the scratch slot
// that holds it.
type partition struct {
	inst   trim.Instance
	exec   *jointree.Exec
	counts *yannakakis.Counts
	slot   int
}

// run is the shared driver body of Quantile and Select, generalized to a
// vector of shard engines. All per-(Q, D) preprocessing lives in the
// engines; a run only pays for pivoting, trimming and counting of its own
// trimmed instances — and a round builds only what its decision needs: the
// partition the index more likely falls in (lt when k is in the lower half
// of the candidates, else gt) is trimmed, derived and counted first, and when
// its count already places k the round descends without ever building the
// other. The instances are zero-rebuild: each engine's cached
// counting state feeds the first pivot, every counted instance hands its
// executable tree and counts to the next iteration instead of being rebuilt,
// filter trims derive their trees by subset filtering, λ-independent trim
// preprocessing comes from each shard plan's cache, and the per-iteration
// arrays come from each shard plan's scratch pool. Either exit enumerates
// each live shard's current tree guided by its current counts (the engine's
// shared tree and cached counts while the shard is still on its original
// instance, the descended partition's own afterwards): the counting pass
// already says which tuples carry an answer, so the walk meets no dead end and
// costs O(|D| + ℓ·|candidates|) without a full reduction being built. Nothing
// shared is ever mutated here.
//
// Termination is canonical for exact trims: whichever way a run ends —
// materialization, or the global index landing in the pivot's equal
// partition — it returns the answer at global rank k of the total
// (weight, values) order. Exact trims are strict (≺λ / ≻λ), so every
// candidate band is a union of complete weight classes and k is always
// rebased by complete classes; the rank-k member of the band is therefore
// the rank-(offset+k) member of the global order no matter how the band was
// reached. That is what makes sharded answers byte-identical to unsharded
// ones even though the pivot sequences differ.
func run(engs []*engine.Engine, f *ranking.Func, opts Options, pickIndex func(total counting.Count) (counting.Count, error)) (*Answer, *RunStats, error) {
	if len(engs) == 0 {
		return nil, nil, fmt.Errorf("core: no shard engines")
	}
	if err := f.Validate(engs[0].Source()); err != nil {
		return nil, nil, err
	}
	origVars := engs[0].Vars()
	workers := parallel.Workers(opts.Parallelism)

	shards := make([]*shardState, len(engs))
	dbSize := 0
	total := counting.Zero
	for i, eng := range engs {
		st := &shardState{
			eng:     eng,
			orig:    trim.Instance{Q: eng.Query(), DB: eng.DB(), Workers: workers, Exec: eng.Exec(), Cache: eng.TrimCache()},
			curSlot: -1,
		}
		st.cur = st.orig
		st.curExec = eng.Exec()
		st.curCounts = eng.Counts() // cached: the first pivot never recounts
		st.curCount = st.curCounts.Total
		st.dead = st.curCount.IsZero()
		dbSize += eng.DB().Size()
		total = total.Add(st.curCount)
		shards[i] = st
	}
	stats := &RunStats{Count: total}
	if len(engs) == 1 {
		stats.Decomp = engs[0].DecompStats()
	}
	if total.IsZero() {
		return nil, stats, ErrNoAnswers
	}
	trm, err := makeTrimmer(engs[0].Query(), f, opts)
	if err != nil {
		return nil, stats, err
	}
	stats.Lossy = trm.lossy

	k, err := pickIndex(total)
	if err != nil {
		return nil, stats, err
	}
	threshold := counting.FromInt(opts.threshold(dbSize))
	low, high := ranking.NegInf(), ranking.PosInf()
	curCount := total
	paperEps := 0.0

	// Scratch is checked out when a shard's first round starts, not before: a
	// run that materializes at once needs none, and an engine whose pool was
	// never used is not held by the runtime's pool registry past its last
	// reference (a cold plan compiled, asked once and dropped is then garbage
	// at the next collection, not the one after).
	defer func() {
		for _, st := range shards {
			if st.scr != nil {
				st.eng.Scratch().Put(st.scr)
			}
		}
	}()
	// now is a no-op unless phase timings were requested, so the default
	// path never reads the clock inside the loop.
	now := func() time.Time { return time.Time{} }
	if opts.CollectPhases {
		now = time.Now
		stats.Phases = &PhaseLog{}
	}
	cands := make([]*pivot.Result, len(shards))

	for iter := 0; iter < opts.maxIterations(); iter++ {
		if roundHook != nil {
			roundHook(shards)
		}
		if curCount.Cmp(threshold) <= 0 {
			m, _ := curCount.Uint64()
			scr := shards[0].scr
			if scr == nil {
				scr = new(runScratch) // no round ran
			}
			ans, err := materializeSelect(shards, f, origVars, k, int(m), scr)
			if err != nil {
				return nil, stats, err
			}
			stats.Materialized = int(m)
			return ans, stats, nil
		}
		stats.Iterations = iter + 1
		t0 := now()
		for i, st := range shards {
			cands[i] = nil
			if st.dead {
				continue
			}
			if st.scr == nil {
				st.scr = scratchFor(st.eng)
			}
			mu, err := f.AssignVars(st.cur.Q)
			if err != nil {
				return nil, stats, err
			}
			if cands[i], err = pivot.SelectPrepared(st.curExec, st.curCounts, f, mu, workers, &st.scr.pivot); err != nil {
				return nil, stats, err
			}
		}
		pv, pidx := pivot.MergeShards(cands, f)
		if pv == nil {
			return nil, stats, ErrNoAnswers // unreachable: curCount > 0
		}
		wp := pv.Weight
		phases := PhaseTimings{Pivot: now().Sub(t0)}

		epsIter := 0.0
		if trm.lossy {
			switch opts.Budget {
			case BudgetPaper:
				if paperEps == 0 {
					// ε' = ε / (2·⌈ℓ·log_{1/(1-c)} n⌉), Lemma 3.6.
					ell := float64(len(engs[0].Query().Atoms))
					n := float64(dbSize)
					iters := math.Ceil(ell * math.Log(n) / -math.Log(1-pv.C))
					if iters < 1 {
						iters = 1
					}
					paperEps = opts.Epsilon / (2 * iters)
				}
				epsIter = paperEps
			default:
				epsIter = opts.Epsilon / math.Pow(2, float64(iter+2))
			}
			if epsIter < 1e-12 {
				epsIter = 1e-12
			}
		}

		// build trims, derives and counts one side of the round across the
		// live shards and returns its answer count.
		build := func(side trim.Dir) (counting.Count, error) {
			lo, hi := low, ranking.Finite(wp)
			if side == trim.Greater {
				lo, hi = ranking.Finite(wp), high
			}
			t0 := now()
			for _, st := range shards {
				if st.dead {
					continue
				}
				inst, err := trm.band(st.orig, lo, hi, side, epsIter)
				if err != nil {
					return counting.Zero, err
				}
				st.parts[side].inst = inst
			}
			t1 := now()
			for _, st := range shards {
				if st.dead {
					continue
				}
				exec, err := execOf(st.parts[side].inst)
				if err != nil {
					return counting.Zero, err
				}
				st.parts[side].exec = exec
			}
			t2 := now()
			count, size := counting.Zero, 0
			for _, st := range shards {
				if st.dead {
					continue
				}
				p := &st.parts[side]
				p.slot = countSlot(st.curSlot, side)
				p.counts = yannakakis.CountScratch(p.exec, workers, &st.scr.counts[p.slot])
				count = count.Add(p.counts.Total)
				size += p.inst.DB.Size()
			}
			stats.MaxInstanceTuples = max(stats.MaxInstanceTuples, size)
			phases.Trim += t1.Sub(t0)
			phases.Derive += t2.Sub(t1)
			phases.Count += now().Sub(t2)
			return count, nil
		}
		// The side k more likely falls in goes first; the other is built
		// only when the first one's count does not already place k. A side
		// left unbuilt counts as empty below, which is the same decision:
		// the two conditions exclude each other.
		first := trim.Less
		if k.Cmp(curCount.Half()) >= 0 {
			first = trim.Greater
		}
		var c [2]counting.Count
		if c[first], err = build(first); err != nil {
			return nil, stats, err
		}
		inLt := func() bool { return k.Cmp(c[trim.Less]) < 0 }
		inGt := func() bool { return k.Cmp(curCount.Sub(c[trim.Greater])) >= 0 }
		if other := 1 - first; !inLt() && !inGt() {
			if c[other], err = build(other); err != nil {
				return nil, stats, err
			}
		}
		if opts.CollectPhases {
			stats.Phases.Iterations = append(stats.Phases.Iterations, phases)
		}

		// Choose the partition holding index k. The equal partition is
		// implicit: everything not in lt or gt (lossy trims only move lost
		// answers into it, Figure 5). Every live shard descends into its
		// slice of the chosen branch, handing its executable tree and
		// counting state to the next iteration — nothing is rebuilt. A
		// shard whose slice came up empty is dead from here on.
		descend := func(side trim.Dir) {
			for _, st := range shards {
				if st.dead {
					continue
				}
				p := st.parts[side]
				st.cur, st.curExec, st.curCounts, st.curCount = p.inst, p.exec, p.counts, p.counts.Total
				st.curSlot = p.slot
				st.dead = st.curCount.IsZero()
			}
		}
		switch {
		case inLt():
			descend(trim.Less)
			curCount, high = c[trim.Less], ranking.Finite(wp)
		case inGt():
			k = k.Sub(curCount.Sub(c[trim.Greater]))
			descend(trim.Greater)
			curCount, low = c[trim.Greater], ranking.Finite(wp)
		default:
			stats.PivotReturned = true
			if trm.lossy {
				// Lossy trims fold lost answers into the equal partition, so
				// there is no exact class to canonicalize over; the pivot
				// itself carries the (φ±ε) guarantee (Theorem 6.2).
				ans := projectAnswer(shards[pidx].cur.Q.Vars(), pv.Assignment, origVars)
				return &Answer{Vars: origVars, Values: ans, Weight: wp}, stats, nil
			}
			// Exact trims are strict, so the equal partition is exactly the
			// weight-λ class. Return its member at class rank k−cLt in value
			// order — the global rank-k answer — rather than whichever class
			// member the pivot pass happened to select, so the answer does
			// not depend on the pivot path (and hence not on the shard
			// count). A singleton class needs no enumeration: the pivot is
			// its only member.
			if curCount.Sub(c[trim.Less]).Sub(c[trim.Greater]).Cmp(counting.One) == 0 {
				ans := projectAnswer(shards[pidx].cur.Q.Vars(), pv.Assignment, origVars)
				return &Answer{Vars: origVars, Values: ans, Weight: wp}, stats, nil
			}
			if roundHook != nil {
				roundHook(shards)
			}
			ans, err := classSelect(shards, f, origVars, wp, k.Sub(c[trim.Less]))
			return ans, stats, err
		}
	}
	return nil, stats, ErrTooManyIterations
}

// roundHook, when set, sees the shard states as each round starts and again
// before an equal-partition exit enumerates them. Only tests set it, and it
// is an unsynchronized global: a test that sets it must not call t.Parallel
// (no test of this package does).
var roundHook func(shards []*shardState)

// enumerateLive streams the candidates of the current band: every answer of
// every live shard's current instance, projected onto origVars, walked by its
// current counts. row is reused between calls; fn returns false to stop.
func enumerateLive(shards []*shardState, origVars []query.Var, fn func(row []relation.Value) bool) {
	row := make([]relation.Value, len(origVars))
	more := true
	for _, st := range shards {
		if st.dead || !more {
			continue
		}
		proj := projection(st.curExec.Q.Vars(), origVars)
		yannakakis.Enumerate(st.curExec, st.curCounts, func(asn []relation.Value) bool {
			for i, p := range proj {
				row[i] = asn[p]
			}
			more = fn(row)
			return more
		})
	}
}

// projectAnswer maps an assignment laid out per fromVars onto toVars by name.
func projectAnswer(fromVars []query.Var, vals []relation.Value, toVars []query.Var) []relation.Value {
	out := make([]relation.Value, len(toVars))
	for i, p := range projection(fromVars, toVars) {
		out[i] = vals[p]
	}
	return out
}

// projection returns, for each of toVars, its position within fromVars.
func projection(fromVars, toVars []query.Var) []int {
	pos := make(map[query.Var]int, len(fromVars))
	for i, v := range fromVars {
		pos[v] = i
	}
	proj := make([]int, len(toVars))
	for i, v := range toVars {
		proj[i] = pos[v]
	}
	return proj
}

// materializeSelect resolves a small candidate band spread over one or more
// live shards: materialize the answers (Yannakakis, guided by the counts),
// project off helper variables, and select index k by weight with a consistent
// value tie-break. The (weight, values) order is total over the distinct
// answers — shards hold disjoint answer sets — so the selected answer depends
// neither on the enumeration order within a tree nor on how answers are
// distributed across trees; only rank k is wanted, so it is selected
// (worst-case linear) rather than sorted for. Projected answers are stored in
// one flat backing array sized up front — count is the band's answer count,
// which the loop already holds — and LEX weight vectors in one flat array kept
// in scr.
func materializeSelect(shards []*shardState, f *ranking.Func, origVars []query.Var, k counting.Count, count int, scr *runScratch) (*Answer, error) {
	w := len(origVars)
	flat := make([]relation.Value, 0, count*w)
	n := 0
	enumerateLive(shards, origVars, func(row []relation.Value) bool {
		flat = append(flat, row...)
		n++
		return w > 0 // a Boolean query has the one empty answer: the first found settles it
	})
	if w == 0 {
		n = min(n, 1)
	}
	if n == 0 {
		return nil, ErrNoAnswers
	}
	answer := func(i int) []relation.Value { return flat[i*w : i*w+w] }
	aw := ranking.NewAnswerWeigher(f, origVars)
	r := f.VecLen()
	if cap(scr.lexVecs) < n*r {
		scr.lexVecs = make([]int64, n*r)
	}
	weights := make([]ranking.Weightv, n)
	for i := 0; i < n; i++ {
		weights[i] = aw.WeightInto(scr.lexVecs[i*r:(i+1)*r:(i+1)*r], answer(i))
	}
	ki, ok := k.Uint64()
	if !ok || ki >= uint64(n) {
		// Lossy accounting can leave k at the boundary; clamp.
		ki = uint64(n - 1)
	}
	sel := selection.Nth(selection.NewIndex(n), int(ki), func(i, j int) bool {
		if c := f.Compare(weights[i], weights[j]); c != 0 {
			return c < 0
		}
		return lessValues(answer(i), answer(j))
	})
	// Copy out of the flat backings: a view would pin all n·w materialized
	// values for the Answer's lifetime, and the weight vectors are scratch.
	vals := append([]relation.Value(nil), answer(sel)...)
	return &Answer{Vars: origVars, Values: vals, Weight: weights[sel].Clone()}, nil
}

// classSelect resolves an exact-trim run that terminated in the equal
// partition with more than one member: enumerate the current candidate band
// across the live shards, keep only the answers whose weight equals the
// pivot's λ (the band is a union of complete weight classes, so these are
// exactly the global weight-λ class), and return the member at class rank k
// in value order. Linear in the band size — paid only when the global index
// lands on a tie class of several answers.
func classSelect(shards []*shardState, f *ranking.Func, origVars []query.Var, lambda ranking.Weightv, k counting.Count) (*Answer, error) {
	w := len(origVars)
	aw := ranking.NewAnswerWeigher(f, origVars)
	var flat []relation.Value
	vec := make([]int64, f.VecLen())
	enumerateLive(shards, origVars, func(row []relation.Value) bool {
		if f.Compare(aw.WeightInto(vec, row), lambda) == 0 {
			flat = append(flat, row...)
		}
		return true
	})
	n := len(flat) / max(w, 1)
	if n == 0 {
		return nil, ErrNoAnswers
	}
	answer := func(i int) []relation.Value { return flat[i*w : i*w+w] }
	ki, ok := k.Uint64()
	if !ok || ki >= uint64(n) {
		ki = uint64(n - 1)
	}
	sel := selection.Nth(selection.NewIndex(n), int(ki), func(i, j int) bool {
		return lessValues(answer(i), answer(j))
	})
	vals := append([]relation.Value(nil), answer(sel)...)
	return &Answer{Vars: origVars, Values: vals, Weight: lambda}, nil
}

// lessValues is the canonical lexicographic value order used to break weight
// ties everywhere an answer is selected by rank.
func lessValues(a, b []relation.Value) bool {
	for p := range a {
		if a[p] != b[p] {
			return a[p] < b[p]
		}
	}
	return false
}
