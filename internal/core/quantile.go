package core

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/decomp"
	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/pivot"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/selection"
	"github.com/quantilejoins/qjoin/internal/trim"
	"github.com/quantilejoins/qjoin/internal/yannakakis"
)

// PhaseTimings is the wall-clock breakdown of what a run executed of one
// pivoting iteration, collected only when Options.CollectPhases is set
// (timings are inherently non-deterministic, so the default RunStats stay
// byte-comparable across runs).
type PhaseTimings struct {
	// Pivot is the pivot-selection pass (Algorithm 2) over the candidate
	// (per shard, plus the cross-shard weighted-median merge).
	Pivot time.Duration
	// Trim is the construction of the round's trimmed instances — the one
	// partition most rounds build, both when the first did not place the
	// index — each one band trim of the original (two composed cuts for the
	// lossy SUM).
	Trim time.Duration
	// Derive is executable-tree acquisition for the trimmed instances (execOf):
	// nothing to speak of when the trim handed the tree over — an exact trim
	// derives it from the original's where its row lists are, inside Trim —
	// and Build+NewExec when it did not (PhaseLog.Rebuilt counts those).
	Derive time.Duration
	// Count is the counting pass over the trimmed instances.
	Count time.Duration
}

// RunStats reports the descent one driver run made. A run for several indices
// (SelectMany) is one descent and reports it as a whole: Iterations counts its
// rounds and Materialized adds up the bands it materialized, PivotReturned
// says some index ended in an equal partition,
// MaxInstanceTuples is the largest instance any round built, and Phases lists
// the rounds in the order they were walked. For one index these are the fields
// of the loop they have always described. They describe the descent, not the
// work: a round whose pivot or partition the plan's pivot tree supplied counts
// as the round it is, its partition at the size it was built at, so the
// statistics of a request are the same on a plan that has never been asked
// and on one that has answered it a thousand times. What the run executed is
// in Phases.
//
// For a sharded run, Count is the global answer count (shard counts add:
// the shards partition the answer set) and the remaining fields describe
// the global pivot loop — each iteration spans every live shard. The answer
// itself is byte-identical for every shard count, but the pivot sequence is
// not: Iterations, Materialized, PivotReturned and MaxInstanceTuples are
// deterministic for a fixed shard count (identical across runs), not across
// different shard counts.
type RunStats struct {
	// Iterations is the number of pivoting rounds of the descent, run or
	// remembered, whichever way the run ended; with Options.CollectPhases it
	// equals len(Phases.Iterations).
	Iterations int
	// Materialized is the candidate count resolved by final materialization —
	// the size of the leaf bands whose candidates the tail selects among; it
	// forms only the answers it returns (0 when the run terminated in the
	// equal partition). A run that finds a leaf's rank splitters in the pivot
	// tree weighs only a slice of the leaf (Phases.Weighed says how much), and
	// counts the leaf here all the same.
	Materialized int
	// PivotReturned reports termination through the equal partition.
	PivotReturned bool
	// Count is |Q(D)|.
	Count counting.Count
	// MaxInstanceTuples is the largest trimmed database of the descent, built
	// by this run or remembered from the run that built it (summed across
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

// PhaseLog is the per-iteration phase-timing log of one run: what the run
// executed, where RunStats describes the descent it walked.
type PhaseLog struct {
	// Iterations has one entry per round of the descent, in the order they
	// were walked. A round is timed for what the run executed of it: nothing
	// when its pivot and the partitions it needed came from the plan's pivot
	// tree. A band cut below the last round — for a leaf's tail — is timed
	// into that round's entry, so the entries add up to the loop and Tail is
	// what the run did below it.
	Iterations []PhaseTimings
	// Remembered counts the rounds whose pivot came from the pivot tree
	// instead of a pivot pass.
	Remembered int
	// Cuts counts the bands the run cut out of the original instance, one per
	// band and live shard; Rebuilt, those of them whose executable tree came
	// from Build+NewExec because the trim derived none — every cut of a
	// lossy run, and an exact one only when the output query's join tree is not
	// the engine's: a staircase whose segment variable changes it (see
	// trim.Instance.Exec).
	Cuts, Rebuilt int
	// Tail is the time spent below the rounds, in the run's leaves and tie
	// classes: weighing the candidates, selecting, recovering the answers.
	Tail time.Duration
	// Weighed counts the candidates those tails weighed; Recovered, the ones
	// they made tuples of — the members of the weight classes the requested
	// indices landed in.
	Weighed, Recovered int
	// Tested counts the rows the run's MIN / MAX / LEX cuts put through a
	// box's interval tests (trim.Scratch.Tested): |D| per box that scans its
	// relations, and only the rows a seeded box reaches from the seed.
	Tested int
	// Visited counts the A rows the run's exact SUM cuts handed the staircase
	// (trim.Scratch.Visited): every row of a join group with a partner, the
	// first time a band is cut, and only the groups it reaches after.
	Visited int
	// Reduced counts the rows the run's partitioned MIN / MAX / LEX cuts
	// dropped from their boxes as dangling (trim.Scratch.Reduced): rows that
	// passed a box's tests but lie on no answer of that box.
	Reduced int
}

// runScratch is the pooled per-run iteration scratch: the counting slots, the
// pivot pass's weight arrays (which the tail's weight pass reuses for its
// columns), and the tail's — the candidates' flat weights, the entries it
// selects among, the classes they fall in and their recovered members. One
// value serves one run at a time; the engine's scratch pool hands it from run
// to run so steady-state quantile answering allocates no fresh per-node
// arrays. Counting slots come in triples, not one per side: the
// counts a round descended into stay the current instance's until the next
// descent — the pivot pass reads them, and so does either exit's tail —
// so a round's two builds take the two slots of its triple that do not hold
// them (countSlot). A run for one index lives in the first triple. A descent
// for several holds a gt partition's counts aside while the lt subtree runs,
// and that subtree builds in the next triple: the stack is as deep as the
// pending siblings, and goes back to the pool with the run. Sharded runs check
// one scratch out of every shard engine's pool, so concurrent runs over the
// same shards stay race-free.
type runScratch struct {
	slots   [3]countingSlot
	deeper  [][3]countingSlot // triples of levels 1, 2, …
	pivot   pivot.Scratch
	weights []int64
	entries []selection.Entry
	pos     []int32
	classes []class
	ords    []int
	flat    []relation.Value
	at      []counting.Count
}

// countingSlot is the storage of one counting slot: the counts of the band
// counted in it, and the band itself — an exact band is cut into the slot it
// is counted in (trim.Scratch), so it lives exactly as long as its counts and
// the slot choice that keeps a round's builds off the counts the run still
// reads keeps them off its bands too.
type countingSlot struct {
	counts yannakakis.Scratch
	band   trim.Scratch
}

// slot returns counting slot i: triple i/3, member i%3.
func (s *runScratch) slot(i int) *countingSlot {
	if i < len(s.slots) {
		return &s.slots[i]
	}
	level := i/3 - 1
	for len(s.deeper) <= level {
		s.deeper = append(s.deeper, [3]countingSlot{})
	}
	return &s.deeper[level][i%3]
}

// countSlot is the counting slot a build of the given side writes in a round
// at the given level, while the current instance's counts sit in slot cur (-1:
// in none, they are the engine's own): a member of the level's triple, and the
// sides' slots differ from each other and from cur. A cur below the triple is
// the lt partition of the round that held its gt sibling aside, one level down.
func countSlot(cur, level int, side trim.Dir) int {
	base := 3 * level
	in := -1
	if cur >= base {
		in = cur - base
	}
	return base + (in+1+int(side))%3
}

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
	// exact trims to low ≺ w ≺ high in one pass (every exact family).
	exact func(inst trim.Instance, low, high ranking.Bound) (trim.Instance, error)
	// lossyCut trims to one side of a weight at ε (lossy SUM only); a band
	// composes two of them.
	lossyCut func(inst trim.Instance, w int64, dir trim.Dir, eps float64) (trim.Instance, error)
	lossy    bool
}

// band trims orig to one partition of a round, the answers with
// low ≺ w ≺ high. side is the partition — lt (trim.Less), whose high is the
// round's pivot, or gt (trim.Greater), whose low is — and so the direction of
// the pivot's cut, which comes first where a band is two composed cuts; the
// other bound is carried over from earlier rounds and may be infinite. An
// exact band is cut into into, which gives up the band it held (nil:
// allocate); a lossy one allocates.
func (t *trimmer) band(orig trim.Instance, into *trim.Scratch, low, high ranking.Bound, side trim.Dir, eps float64) (trim.Instance, error) {
	if !t.lossy {
		into.Reset()
		orig.Scratch = into
		return t.exact(orig, low, high)
	}
	pivot, carried, carriedDir := high, low, trim.Greater
	if side == trim.Greater {
		pivot, carried, carriedDir = low, high, trim.Less
	}
	out, err := t.lossyCut(orig, pivot.W.K, side, eps)
	if err == nil && carried.IsFinite() {
		out, err = t.lossyCut(out, carried.W.K, carriedDir, eps)
	}
	return out, err
}

// makeTrimmer selects the trimming construction for the ranking function over
// the engine's query, enforcing the dichotomy for exact SUM (decided through
// the engine's trim cache: see trim.Cache.Adjacent).
func makeTrimmer(eng *engine.Engine, f *ranking.Func, opts Options) (*trimmer, error) {
	switch f.Agg {
	case ranking.Min, ranking.Max, ranking.Lex:
		return &trimmer{exact: func(inst trim.Instance, low, high ranking.Bound) (trim.Instance, error) {
			return trim.Band(inst, f, low, high)
		}}, nil
	case ranking.Sum:
		if !opts.ForceLossy {
			if eng.TrimCache().Adjacent(eng.Query(), f) {
				return &trimmer{exact: func(inst trim.Instance, low, high ranking.Bound) (trim.Instance, error) {
					return trim.SumAdjacentBand(inst, f, low, high)
				}}, nil
			}
		}
		if opts.Epsilon <= 0 {
			return nil, ErrIntractable
		}
		return &trimmer{lossy: true, lossyCut: func(inst trim.Instance, w int64, dir trim.Dir, eps float64) (trim.Instance, error) {
			out, _, err := trim.SumLossy(inst, f, w, dir, eps)
			return out, err
		}}, nil
	}
	return nil, fmt.Errorf("core: unsupported aggregate %s", f.Agg)
}

// execOf returns the executable join tree of an instance: the one its trim
// derived from the original's, when it carries one — every exact band of an
// instance with an Exec does, but a staircase whose segment variable changes
// the join tree (see trim.Instance.Exec) — and a fresh Build+NewExec
// otherwise: the lossy SUM's embeddings, and that staircase.
func execOf(inst trim.Instance) (*jointree.Exec, error) {
	if inst.Exec != nil {
		return inst.Exec, nil
	}
	tree, err := jointree.Build(inst.Q)
	if err != nil {
		return nil, err
	}
	return jointree.NewExec(inst.Q, inst.DB, tree)
}

// Quantile answers a %JQ — the φ-quantile under the ranking function, per
// Algorithm 1 — over the disjoint union of the engines' answer sets. The
// engines must be compiled from the same query over a hash partition of one
// database (so their answer sets are disjoint and their counts add);
// internal/shard builds such a family, and a one-element slice is exactly the
// unsharded algorithm. One iteration of the global pivot loop spans every live
// shard: per-shard pivot candidates merge into one global pivot by weighted
// median, the λ-trim broadcasts to every shard, and the per-shard partition
// counts are summed to steer the global index. With opts.Epsilon > 0 and a SUM
// ranking outside the tractable class, it returns a deterministic
// (φ±ε)-quantile (Theorem 6.2). φ must lie in [0,1]: the public API checks it
// where it arrives (qjoin's wire.go).
func Quantile(engs []*engine.Engine, f *ranking.Func, phi float64, opts Options) (*Answer, *RunStats, error) {
	return runOne(engs, f, opts, func(_ int, total counting.Count) (counting.Count, error) {
		return Index(total, phi), nil
	})
}

// Select answers the selection problem (footnote 1 of the paper): the answer
// at absolute zero-based index k in the ranked order over the engines (see
// Quantile for the contract). Selection and quantile computation are
// equivalent for acyclic queries since |Q(D)| is computable in linear time.
func Select(engs []*engine.Engine, f *ranking.Func, k counting.Count, opts Options) (*Answer, *RunStats, error) {
	return runOne(engs, f, opts, func(_ int, total counting.Count) (counting.Count, error) {
		return inRange(k, total)
	})
}

// SelectMany is Select for several indices at once: out[i] is the
// answer at absolute index ks[i], byte for byte the answer Select
// returns for it (lossy SUM included), in the order the indices were given —
// unsorted and repeated indices are fine, and an empty request gives an empty
// result. All of them are placed by one descent: a round's pivot splits the
// candidate band into lt / eq / gt with known counts, which places every
// requested index at once, so a band is trimmed, derived and counted once
// however many indices fall in it — O(|D|·log m) loop work for m indices plus
// their m tails, where m separate runs pay m full descents. The one RunStats
// describes the whole descent (see RunStats).
func SelectMany(engs []*engine.Engine, f *ranking.Func, ks []counting.Count, opts Options) ([]*Answer, *RunStats, error) {
	out := make([]*Answer, len(ks))
	stats, err := run(engs, f, opts, out, func(i int, total counting.Count) (counting.Count, error) {
		return inRange(ks[i], total)
	})
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// inRange is the bounds check of an absolute selection index.
func inRange(k, total counting.Count) (counting.Count, error) {
	if k.Cmp(total) >= 0 {
		return counting.Zero, fmt.Errorf("core: index %s out of range (|Q(D)| = %s)", k, total)
	}
	return k, nil
}

// runOne is the driver for a single index: the one-rank case of run, with the
// rank list and the answer slot kept off the heap.
func runOne(engs []*engine.Engine, f *ranking.Func, opts Options, index func(i int, total counting.Count) (counting.Count, error)) (*Answer, *RunStats, error) {
	var out [1]*Answer
	stats, err := run(engs, f, opts, out[:], index)
	return out[0], stats, err
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
	// band. Trims always narrow the band, so a dead shard stays dead for the
	// whole subtree below the band and is skipped by every pass there. While
	// the descent is stale (descent.stale) the cur fields above are unset.
	dead bool
	scr  *runScratch
	// parts are this round's candidate partitions, indexed by side and
	// filled stage by stage so phase timings aggregate across shards the way
	// they did across one. A side the round did not build holds a stale one.
	// The third is the whole band, cut when a descent that came down through
	// remembered partitions has to read its instance after all (wholeBand).
	parts [3]partition
}

// wholeBand indexes the partition that is the current band itself, beside its
// two sides.
const wholeBand = trim.Dir(2)

// scratch is the shard's run scratch, checked out of its engine's pool when
// the run first needs one: a run that materializes at once needs none, and an
// engine whose pool was never used is not held by the runtime's pool registry
// past its last reference (a cold plan compiled, asked once and dropped is
// then garbage at the next collection, not the one after).
func (st *shardState) scratch() *runScratch {
	if st.scr == nil {
		st.scr = scratchFor(st.eng)
	}
	return st.scr
}

// descend makes a counted partition the shard's current instance, handing its
// executable tree and counting state down — nothing is rebuilt. A shard whose
// slice came up empty is dead below.
func (st *shardState) descend(p partition) {
	st.cur, st.curExec, st.curCounts, st.curCount = p.inst, p.exec, p.counts, p.counts.Total
	st.curSlot = p.slot
	st.dead = st.curCount.IsZero()
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

// heldPart is one shard's slice of a gt partition waiting for its lt sibling's
// subtree: the partition, and whether the shard was dead in the band the round
// split (its partition is then stale).
type heldPart struct {
	part partition
	dead bool
}

// rank is one requested index on its way down: k is relative to the band the
// descent is in (rebased whenever it enters a gt partition or an equal class),
// at is the position of its answer in the output.
type rank struct {
	k  counting.Count
	at int
}

// descent is what the rounds of one run share.
type descent struct {
	f    *ranking.Func
	opts Options
	trm  *trimmer
	engs []*engine.Engine
	// tree is the pivot tree the descent walks and fills, fetched when its
	// first round starts; nil before that and throughout a lossy run.
	tree *pivotTree
	// stale says the descent entered the current band through a remembered
	// partition and has cut no instance of it: the live shards hold none
	// until something has to read one (instances).
	stale     bool
	shards    []*shardState
	cands     []*pivot.Result
	origVars  []query.Var
	dbSize    int
	threshold counting.Count
	// now is a no-op unless phase timings were requested, so the default
	// path never reads the clock inside the loop.
	now   func() time.Time
	stats *RunStats
	// unlogged takes the phase timings — all zero — of a run that logs none.
	unlogged PhaseTimings
}

// phase is the phase log's entry of the last round that started: where the
// round's own work is timed, and a band cut below it for a leaf.
func (d *descent) phase() *PhaseTimings {
	if p := d.stats.Phases; p != nil && len(p.Iterations) > 0 {
		return &p.Iterations[len(p.Iterations)-1]
	}
	return &d.unlogged
}

// run is the shared driver body of Quantile, Select and SelectMany,
// generalized to a vector of shard engines and a set of requested indices
// (index(i, |Q(D)|) is the i-th; its answer lands in out[i]). All per-(Q, D)
// preprocessing lives in the engines; a run only pays for pivoting, trimming
// and counting of its own trimmed instances — and a round builds only what its
// decisions need: the partition the indices more likely fall in (lt when the
// middle one is in the lower half of the candidates, else gt) is trimmed,
// derived and counted first, and when its count already places every index
// the round descends without ever building the other. The instances are
// zero-rebuild: each engine's cached counting state feeds the first pivot,
// every counted instance hands its executable tree and counts to the round
// below it instead of being rebuilt, filter trims derive their trees by subset
// filtering, λ-independent trim preprocessing comes from each shard plan's
// cache, and the per-round arrays come from each shard plan's scratch pool.
// Either exit weighs the candidates of each live shard's current tree guided by
// its current counts (the engine's shared tree and cached counts while the
// shard is still on its original instance, the descended partition's own
// afterwards): the counting pass already says which tuples carry an answer, so
// the walk meets no dead end and costs O(|D| + ℓ·|candidates|) without a full
// reduction being built, and only the answers returned are formed
// (resolveRanks). Nothing shared is ever mutated here but the plan's pivot tree
// (pivotTree), which an exact run walks instead of running the rounds it
// holds and fills with the rounds it runs and the rank splitters of the leaves
// it weighs: the second exact request under a ranking is one cut of the slice
// of a leaf its rank falls in, and that slice's tail.
//
// Termination is canonical for exact trims: whichever way an index is
// resolved — materialization, or landing in the pivot's equal partition — it
// gets the answer at its global rank in the total (weight, values) order.
// Exact trims are strict (≺λ / ≻λ), so every candidate band is a union of
// complete weight classes and an index is always rebased by complete classes;
// the rank-k member of the band is therefore the rank-(offset+k) member of
// the global order no matter how the band was reached. That is what makes
// sharded answers byte-identical to unsharded ones even though the pivot
// sequences differ, and the answers of one shared descent byte-identical to
// those of a run per index.
func run(engs []*engine.Engine, f *ranking.Func, opts Options, out []*Answer, index func(i int, total counting.Count) (counting.Count, error)) (*RunStats, error) {
	if len(engs) == 0 {
		return nil, fmt.Errorf("core: no shard engines")
	}
	if err := f.Validate(engs[0].Source()); err != nil {
		return nil, err
	}
	shards := make([]*shardState, len(engs))
	dbSize := 0
	total := counting.Zero
	for i, eng := range engs {
		st := &shardState{
			eng:     eng,
			orig:    trim.Instance{Q: eng.Query(), DB: eng.DB(), Exec: eng.Exec(), Cache: eng.TrimCache()},
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
	if len(out) == 0 {
		return stats, nil
	}
	if total.IsZero() {
		return stats, ErrNoAnswers
	}
	trm, err := makeTrimmer(engs[0], f, opts)
	if err != nil {
		return stats, err
	}
	stats.Lossy = trm.lossy

	var one [1]rank // a single index keeps its rank list on the stack
	ranks := one[:0]
	if len(out) > 1 {
		ranks = make([]rank, 0, len(out))
	}
	for i := range out {
		k, err := index(i, total)
		if err != nil {
			return stats, err
		}
		ranks = append(ranks, rank{k: k, at: i})
	}
	slices.SortFunc(ranks, func(a, b rank) int { return a.k.Cmp(b.k) })

	defer func() {
		for _, st := range shards {
			if st.scr != nil {
				st.eng.Scratch().Put(st.scr)
			}
		}
	}()
	d := descent{
		f: f, opts: opts, trm: trm, engs: engs, shards: shards, cands: make([]*pivot.Result, len(shards)),
		origVars: engs[0].Vars(), dbSize: dbSize,
		threshold: counting.FromInt(opts.threshold(dbSize)),
		now:       func() time.Time { return time.Time{} },
		stats:     stats,
	}
	if opts.CollectPhases {
		d.now = time.Now
		stats.Phases = &PhaseLog{}
	}
	return stats, d.selectIn(0, 0, nil, ranking.NegInf(), ranking.PosInf(), total, ranks, out)
}

// selectIn resolves the indices of ranks — ascending, relative to the band —
// among the count candidates with low ≺ w ≺ high into out (a parameter, not a
// field: what a recursive method reaches through its receiver is
// heap-allocated, and the one-index run keeps its answer slot on the stack). A
// band at most the threshold is weighed once and every index selected from
// it. A larger one is one round of Algorithm 1: a pivot splits it into
// lt / eq / gt, the indices that land on eq are answered from the pivot (or one
// weighing of its class), and the others go down with their partition, lt
// before gt. The gt partition is held aside while the lt subtree runs, so at
// most one pending sibling per level is live: level counts them, and names the
// triple of counting slots the round's builds may write (countSlot). depth is
// the number of rounds above.
//
// sd is the remembered partition the band is (nil: the root band, whose round
// is the tree's root, or a band the tree has no place for — a lossy run, or a
// band below a round the tree's budget did not admit): the round on it is in
// its below slot, and a leaf's rank splitters in its leaf slot (see leaf). A
// round the tree holds is walked, not run: its pivot is read, and so is the
// count of a partition some run has built, which places the indices as the
// build would. Entering a partition that was only read leaves the descent
// stale — no shard holds an instance of the band — until instances cuts it,
// which only a pivot pass on a round the tree does not hold and the tail of a
// leaf ask for.
// Whatever the round does execute it writes into the tree. The statistics
// cannot tell the difference: a remembered partition counts with the size it
// was built at.
func (d *descent) selectIn(depth, level int, sd *pivotSide, low, high ranking.Bound, count counting.Count, ranks []rank, out []*Answer) error {
	if depth >= d.opts.maxIterations() {
		return ErrTooManyIterations
	}
	shards, stats, f, now := d.shards, d.stats, d.f, d.now
	if count.Cmp(d.threshold) <= 0 {
		m, _ := count.Uint64()
		if err := d.leaf(depth, level, sd, low, high, int(m), ranks, out); err != nil {
			return err
		}
		stats.Materialized += int(m)
		return nil
	}
	stats.Iterations++
	if stats.Phases != nil {
		stats.Phases.Iterations = append(stats.Phases.Iterations, PhaseTimings{})
	}
	var at *atomic.Pointer[pivotNode]
	switch {
	case depth == 0 && !d.trm.lossy:
		d.tree = treeFor(d.engs, f, d.dbSize)
		at = &d.tree.root
	case sd != nil:
		at = &sd.below
	}
	var nd *pivotNode
	if at != nil {
		nd = at.Load()
	}
	var pv *pivot.Result
	var pidx int
	if nd != nil {
		if stats.Phases != nil {
			stats.Phases.Remembered++
		}
	} else {
		if err := d.instances(depth, level, low, high); err != nil {
			return err
		}
		t0 := now()
		for i, st := range shards {
			d.cands[i] = nil
			if st.dead {
				continue
			}
			mu, err := f.AssignVars(st.cur.Q)
			if err != nil {
				return err
			}
			if d.cands[i], err = pivot.Select(st.curExec, st.curCounts, f, mu, &st.scratch().pivot); err != nil {
				return err
			}
		}
		if pv, pidx = pivot.MergeShards(d.cands, f); pv == nil {
			return ErrNoAnswers // unreachable: count > 0
		}
		d.phase().Pivot = now().Sub(t0)
		if at != nil {
			nd = d.tree.remember(at, pv.Weight, projectAnswer(shards[pidx].cur.Q.Vars(), pv.Assignment, d.origVars))
		}
	}
	var wp ranking.Weightv
	if nd != nil {
		wp = nd.weight
	} else {
		wp = pv.Weight
	}

	epsIter := 0.0
	if d.trm.lossy {
		// Options.Epsilon's split: ε/2^(depth+2) for each of the round's two cuts.
		epsIter = max(d.opts.Epsilon/math.Pow(2, float64(depth+2)), 1e-12)
	}

	// countOf returns the answer count of one side of the round: the tree's
	// when some run has built the side, else this run trims, derives and
	// counts it across the live shards and tells the tree. known is what the
	// tree holds of a side, read or just written; built says this run holds
	// the side's instances.
	var known [2]*pivotSide
	var built [2]bool
	countOf := func(side trim.Dir) (counting.Count, error) {
		if nd != nil {
			if sd := nd.sides[side].Load(); sd != nil {
				known[side] = sd
				stats.MaxInstanceTuples = max(stats.MaxInstanceTuples, sd.size)
				return sd.count, nil
			}
		}
		lo, hi := low, ranking.Finite(wp)
		if side == trim.Greater {
			lo, hi = ranking.Finite(wp), high
		}
		n, size, err := d.cut(side, depth, level, lo, hi, epsIter)
		if err != nil {
			return counting.Zero, err
		}
		built[side] = true
		stats.MaxInstanceTuples = max(stats.MaxInstanceTuples, size)
		if nd != nil {
			sd := &pivotSide{count: n, size: size}
			for i, st := range shards {
				if st.dead || st.parts[side].counts.Total.IsZero() {
					if sd.dead == nil {
						sd.dead = make([]bool, len(shards))
					}
					sd.dead[i] = true
				}
			}
			if !nd.sides[side].CompareAndSwap(nil, sd) {
				sd = nd.sides[side].Load()
			}
			known[side] = sd
		}
		return n, nil
	}
	// An index prefers the side of the band's middle it is on, and the side
	// the middle index prefers goes first; the other is built only when the
	// first one's count does not already place every index. A side left
	// unbuilt counts as empty below, which is the same decision: exact
	// partitions exclude each other. Lossy ones need not — both are trimmed
	// from the original at this round's ε, finer than the ε the band was cut
	// at, and can keep more answers at the band's outer bounds than they lose
	// at the pivot (TestSelectManyLossyOverlap holds such an instance) — so
	// there an index is placed by the side it prefers, which therefore has to
	// be built.
	half := count.Half()
	prefers := func(k counting.Count) trim.Dir {
		if k.Cmp(half) >= 0 {
			return trim.Greater
		}
		return trim.Less
	}
	var c [2]counting.Count
	// place is the partition holding band index k — equal when neither side
	// does — decided exactly as a run for k alone decides it.
	const equal = trim.Dir(2)
	place := func(k counting.Count) trim.Dir {
		inLt := k.Cmp(c[trim.Less]) < 0
		inGt := k.Cmp(count.Sub(c[trim.Greater])) >= 0
		switch {
		case inLt && inGt:
			return prefers(k)
		case inLt:
			return trim.Less
		case inGt:
			return trim.Greater
		}
		return equal
	}
	first := prefers(ranks[len(ranks)/2].k)
	var err error
	if c[first], err = countOf(first); err != nil {
		return err
	}
	unplaced := func(r rank) bool {
		return place(r.k) != first || (d.trm.lossy && prefers(r.k) != first)
	}
	if slices.ContainsFunc(ranks, unplaced) {
		if c[1-first], err = countOf(1 - first); err != nil {
			return err
		}
	}
	// The indices are ascending, so the three groups are a prefix, a middle
	// and a suffix of them.
	nLt := 0
	for nLt < len(ranks) && place(ranks[nLt].k) == trim.Less {
		nLt++
	}
	nEq := nLt
	for nEq < len(ranks) && place(ranks[nEq].k) == equal {
		nEq++
	}
	lt, eq, gt := ranks[:nLt], ranks[nLt:nEq], ranks[nEq:]

	// The equal partition is implicit: everything not in lt or gt (lossy trims
	// only move lost answers into it, Figure 5).
	if len(eq) > 0 {
		stats.PivotReturned = true
		// Lossy trims fold lost answers into the equal partition, so there is
		// no exact class to canonicalize over; the pivot itself carries the
		// (φ±ε) guarantee (Theorem 6.2). Exact trims are strict, so the equal
		// partition is exactly the weight-λ class: an index gets its member at
		// class rank k−cLt in value order — its global rank — rather than
		// whichever class member the pivot pass happened to select, so the
		// answer does not depend on the pivot path (and hence not on the shard
		// count). A singleton class needs no tail: the pivot is its only
		// member. The answers own their weights (the tree keeps wp).
		if d.trm.lossy || count.Sub(c[trim.Less]).Sub(c[trim.Greater]).Cmp(counting.One) == 0 {
			for _, r := range eq {
				var vals []relation.Value
				if nd != nil {
					vals = slices.Clone(nd.answer)
				} else {
					vals = projectAnswer(shards[pidx].cur.Q.Vars(), pv.Assignment, d.origVars)
				}
				out[r.at] = &Answer{Vars: d.origVars, Values: vals, Weight: wp.Clone()}
			}
		} else if err := d.classExit(depth, level, wp, low, high, count, c, eq, out); err != nil {
			return err
		}
	}

	// Every live shard descends into its slice of a partition the round built.
	// One the tree supplied has no slices: the shards it says have candidates
	// stay live, holding nothing.
	enter := func(side trim.Dir) *pivotSide {
		d.stale = !built[side]
		for i, st := range shards {
			switch {
			case d.stale:
				dead := known[side].dead
				*st = shardState{eng: st.eng, orig: st.orig, curSlot: -1, dead: dead != nil && dead[i], scr: st.scr}
			case !st.dead:
				st.descend(st.parts[side])
			}
		}
		return known[side]
	}
	// With indices on both sides a gt partition the round built waits for the
	// lt subtree, whose rounds overwrite parts and dead: it is held here, and
	// its counts stay in this level's slots while the subtree builds one level
	// up. One the tree supplied holds nothing.
	var held []heldPart
	if len(lt) > 0 && len(gt) > 0 && built[trim.Greater] {
		held = make([]heldPart, len(shards))
		for i, st := range shards {
			held[i] = heldPart{part: st.parts[trim.Greater], dead: st.dead}
		}
	}
	if len(lt) > 0 {
		below := level
		if held != nil {
			below++
		}
		if err := d.selectIn(depth+1, below, enter(trim.Less), low, ranking.Finite(wp), c[trim.Less], lt, out); err != nil {
			return err
		}
	}
	if len(gt) == 0 {
		return nil
	}
	for i, h := range held {
		shards[i].parts[trim.Greater], shards[i].dead = h.part, h.dead
	}
	skipped := count.Sub(c[trim.Greater])
	for i := range gt {
		gt[i].k = gt[i].k.Sub(skipped)
	}
	return d.selectIn(depth+1, level, enter(trim.Greater), ranking.Finite(wp), high, c[trim.Greater], gt, out)
}

// leaf resolves the indices of ranks among the n ≤ threshold candidates of the
// band low ≺ w ≺ high: it makes the band's instances real and weighs them
// (tail). A band below a remembered side keeps its rank splitters there: the
// first tail that weighs it whole records them (unless it holds 2³¹
// candidates or more, past the splitters' 32-bit counts), and a later run
// that comes down stale — holding no instance of the band — cuts only the
// narrowest slice between two splitters that holds every index, with the
// indices rebased onto it. The slice is a union of complete weight classes, so
// its rank-k member is the band's rank-(offset+k) member: the answers are the
// ones the whole band gives, and only the phase log sees the difference. Such
// a run is the plan queried again under the ranking, so it asks each shard's
// trim cache for the weight orders that let a narrow slice's boxes start from
// their seeds instead of scanning every relation, and the inverses that let
// them climb to a parent through the rows they reach
// (trim.Cache.WeightOrders; built once per plan).
func (d *descent) leaf(depth, level int, sd *pivotSide, low, high ranking.Bound, n int, ranks []rank, out []*Answer) error {
	var sp, rec *splitters
	if sd != nil {
		if sp = sd.leaf.Load(); sp == nil && n <= math.MaxInt32 {
			rec = &splitters{}
		}
	}
	if d.stale && sp != nil {
		var off int
		low, high, off, n = sp.slice(low, high, n, ranks, d.f.VecLen())
		for i := range ranks {
			ranks[i].k = ranks[i].k.Sub(counting.FromInt(off))
		}
		for _, st := range d.shards {
			st.orig.Cache.WeightOrders(st.orig, d.f)
		}
	}
	if err := d.instances(depth, level, low, high); err != nil {
		return err
	}
	if err := d.tail(n, ranks, out, rec); err != nil {
		return err
	}
	if rec != nil {
		sd.leaf.CompareAndSwap(nil, rec)
	}
	return nil
}

// classExit resolves the indices of eq, which landed in the equal partition
// of a round that split the band low ≺ w ≺ high of count candidates into
// c[lt], the weight-λ class and c[gt]: the class is a band of its own
// (classBand), cut and weighed like a leaf, with the indices rebased past the
// lt partition. A band that is nothing but the class is the current one. The
// shards get their liveness in the round's band back for the partitions below.
func (d *descent) classExit(depth, level int, lambda ranking.Weightv, low, high ranking.Bound, count counting.Count, c [2]counting.Count, eq []rank, out []*Answer) error {
	for i := range eq {
		eq[i].k = eq[i].k.Sub(c[trim.Less])
	}
	n, _ := count.Sub(c[trim.Less]).Sub(c[trim.Greater]).Uint64()
	if c[trim.Less].IsZero() && c[trim.Greater].IsZero() {
		if err := d.instances(depth, level, low, high); err != nil {
			return err
		}
		return d.tail(int(n), eq, out, nil)
	}
	dead := make([]bool, len(d.shards))
	for i, st := range d.shards {
		dead[i] = st.dead
	}
	lo, hi := classBand(lambda, low, high)
	if err := d.cutInto(depth, level, lo, hi); err != nil {
		return err
	}
	if roundHook != nil {
		roundHook(d.shards)
	}
	err := d.tail(int(n), eq, out, nil)
	for i, st := range d.shards {
		st.dead = dead[i]
	}
	return err
}

// tail resolves the indices of ranks from the current band's instances
// (resolveRanks), timed and counted into the phase log when there is one. A
// run whose first shard ran no pass — it materializes at round 0 — takes a
// scratch of its own and checks nothing out of the pool.
func (d *descent) tail(count int, ranks []rank, out []*Answer, rec *splitters) error {
	scr := d.shards[0].scr
	if scr == nil {
		scr = new(runScratch)
	}
	t0 := d.now()
	weighed, recovered, err := resolveRanks(d.shards, d.f, d.origVars, ranks, count, scr, out, rec)
	if p := d.stats.Phases; p != nil {
		p.Tail += d.now().Sub(t0)
		p.Weighed += weighed
		p.Recovered += recovered
	}
	return err
}

// instances makes the band's instances real before something reads them: a
// descent that came down through remembered partitions (stale) has cut nothing
// of the band yet and cuts it now (cutInto).
func (d *descent) instances(depth, level int, low, high ranking.Bound) error {
	if d.stale {
		if err := d.cutInto(depth, level, low, high); err != nil {
			return err
		}
	}
	if roundHook != nil {
		roundHook(d.shards)
	}
	return nil
}

// cutInto cuts the band low ≺ w ≺ high out of the original instance — once,
// for the shards that have candidates in the band the descent is in — into the
// slot of the level's triple that a round's two builds leave free, and makes
// it each such shard's current instance.
func (d *descent) cutInto(depth, level int, low, high ranking.Bound) error {
	if _, _, err := d.cut(wholeBand, depth, level, low, high, 0); err != nil {
		return err
	}
	for _, st := range d.shards {
		if !st.dead {
			st.descend(st.parts[wholeBand])
		}
	}
	d.stale = false
	return nil
}

// classBand is the band that holds exactly the weight class of w, which lies
// strictly inside low ≺ w ≺ high: strictly between the weights next to w
// (adjacent), or the band's own bound on a side where w is the least or the
// greatest weight there is.
func classBand(w ranking.Weightv, low, high ranking.Bound) (ranking.Bound, ranking.Bound) {
	if v, ok := adjacent(w, -1); ok {
		low = ranking.Finite(v)
	}
	if v, ok := adjacent(w, 1); ok {
		high = ranking.Finite(v)
	}
	return low, high
}

// adjacent returns the weight next to w in the order of the weights — below it
// for by = −1, above it for by = 1: the last position that is not at the end
// of int64 in that direction moves by one and the positions after it wrap to
// the other end (a scalar weight is one position) — and false when w is the
// end itself.
func adjacent(w ranking.Weightv, by int64) (ranking.Weightv, bool) {
	v := w.Clone()
	pos := v.Vec
	if len(pos) == 0 {
		pos = []int64{v.K}
	}
	end, wrap := int64(math.MaxInt64), int64(math.MinInt64)
	if by < 0 {
		end, wrap = wrap, end
	}
	for i := len(pos) - 1; i >= 0; i-- {
		if pos[i] != end {
			pos[i] += by
			if len(v.Vec) == 0 {
				v.K = pos[0]
			}
			return v, true
		}
		pos[i] = wrap
	}
	return v, false
}

// cut trims the band low ≺ w ≺ high out of every live shard's original
// instance into the shard's parts[as], derives the executable trees and counts
// them, a stage at a time across the shards, timed into the current phase
// entry. as is a side of the round that splits at one of the bounds, or
// wholeBand (exact trims only: every exact band is one trim whichever way it
// is reached). The counting slot is picked first, and an exact band is cut
// into it. It returns the band's answer count and its instance size.
func (d *descent) cut(as trim.Dir, depth, level int, low, high ranking.Bound, eps float64) (counting.Count, int, error) {
	shards, now := d.shards, d.now
	t0 := now()
	for _, st := range shards {
		if st.dead {
			continue
		}
		p := &st.parts[as]
		p.slot = countSlot(st.curSlot, level, as)
		inst, err := d.trm.band(st.orig, &st.scratch().slot(p.slot).band, low, high, as, eps)
		if err != nil {
			return counting.Zero, 0, err
		}
		p.inst = inst
	}
	t1 := now()
	for _, st := range shards {
		if st.dead {
			continue
		}
		exec, err := execOf(st.parts[as].inst)
		if err != nil {
			return counting.Zero, 0, err
		}
		if p := d.stats.Phases; p != nil {
			p.Cuts++
			if st.parts[as].inst.Exec == nil {
				p.Rebuilt++
			}
			if !d.trm.lossy {
				band := &st.scratch().slot(st.parts[as].slot).band
				p.Tested += band.Tested()
				p.Visited += band.Visited()
				p.Reduced += band.Reduced()
			}
		}
		st.parts[as].exec = exec
	}
	t2 := now()
	size := 0
	n := counting.Zero
	for _, st := range shards {
		if st.dead {
			continue
		}
		p := &st.parts[as]
		p.counts = yannakakis.CountScratch(p.exec, &st.scratch().slot(p.slot).counts)
		n = n.Add(p.counts.Total)
		size += p.inst.DB.Size()
	}
	ph := d.phase()
	ph.Trim += t1.Sub(t0)
	ph.Derive += t2.Sub(t1)
	ph.Count += now().Sub(t2)
	if bandHook != nil {
		bandHook(low, high, n, depth, level)
	}
	return n, size, nil
}

// roundHook, when set, sees the shard states as each round starts and again
// before an equal-partition exit weighs them; bandHook sees every band a
// round builds, with its answer count, the round's depth and the number of gt
// partitions held aside above it. Only tests set them, and they are
// unsynchronized globals: a test that sets one must not call t.Parallel (no
// test of this package does).
var (
	roundHook func(shards []*shardState)
	bandHook  func(low, high ranking.Bound, n counting.Count, depth, held int)
)

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
	proj := make([]int, len(toVars))
	for i, v := range toVars {
		proj[i] = slices.Index(fromVars, v)
	}
	return proj
}

// class is one weight class that requested indices landed in: its members —
// entries whose Item is the member's ordinal among the candidates — its weight
// in the flat layout, and the indices, k−off their ranks within the class.
type class struct {
	members []selection.Entry
	weight  []int64
	off     uint64
	ranks   []rank
}

// resolveRanks is the tail of both exits (doc.go, "The tail"): it resolves the
// indices of ranks — ascending, relative to the band — in the current band of
// count candidates: a leaf, small enough to materialize, or the weight class an
// equal partition stands for, cut as a band of its own. Every candidate of
// every live shard is weighed (pivot.Weigh, into the pivot pass's flat layout),
// shard after shard and each shard's in Enumerate's order, so that a candidate
// is known by its ordinal; the weight class holding each index is selected
// (worst-case linear per distinct class, the middle index first and the others
// in the halves it leaves); and only the members of those classes are recovered
// as tuples, in one positional walk per shard, where the same selection runs
// over each class by value. The answer of an index is the member of the band at
// that rank in the (weight, values) order, which is total over the distinct
// answers — shards hold disjoint answer sets — so it depends neither on the
// enumeration order within a tree nor on how the answers are spread over the
// trees. Every answer owns its values and its weight. With rec set the same
// selection also finds the band's rank splitters and records them there. It
// reports the candidates weighed and the tuples recovered.
func resolveRanks(shards []*shardState, f *ranking.Func, origVars []query.Var, ranks []rank, count int, scr *runScratch, out []*Answer, rec *splitters) (weighed, recovered int, err error) {
	r, w := f.VecLen(), len(origVars)
	stride := max(r, 1)
	ws := slices.Grow(scr.weights[:0], count*stride)
	starts := make([]int, len(shards)+1) // shard i's candidates are the ordinals starts[i]…starts[i+1]-1
	for i, st := range shards {
		if starts[i+1] = starts[i]; st.dead {
			continue
		}
		mu, err := f.AssignVars(st.cur.Q)
		if err != nil {
			return 0, 0, err
		}
		var n int
		ws, n = scr.pivot.Weigh(st.curExec, st.curCounts, f, mu, ws)
		weighed += n
		starts[i+1] = weighed
	}
	scr.weights = ws
	if weighed == 0 {
		return 0, 0, ErrNoAnswers
	}
	if cap(scr.entries) < weighed {
		scr.entries = make([]selection.Entry, weighed)
	}
	es := scr.entries[:weighed]
	for i := range es {
		es[i] = selection.Entry{Key: ws[i*stride], Item: i}
	}
	if rec != nil {
		ranks = rec.among(ranks, weighed)
	}
	classes := scr.classes[:0]
	selectEach(es, selection.Vectors{At: ws, R: r}, 0, ranks, func(members []selection.Entry, off uint64, ranks []rank) {
		weight := ws[members[0].Item*stride:][:stride]
		if rec != nil {
			ranks = rec.take(len(members), off, weight, ranks)
		}
		if len(ranks) > 0 {
			classes = append(classes, class{members, weight, off, ranks})
		}
	})

	// Recover the members of every class, ascending by ordinal: one positional
	// walk (yannakakis.AnswersAt) per shard that holds one, projected onto the
	// source variables into one flat backing, row i the tuple of ords[i].
	ords := scr.ords[:0]
	for _, c := range classes {
		for _, e := range c.members {
			ords = append(ords, e.Item)
		}
	}
	slices.Sort(ords)
	flat := slices.Grow(scr.flat[:0], len(ords)*w)[:len(ords)*w]
	at := slices.Grow(scr.at[:0], len(ords))[:len(ords)] // each ordinal within its shard
	scr.ords, scr.flat, scr.at = ords, flat, at
	for s, lo := 0, 0; lo < len(ords); s++ {
		hi := lo
		for ; hi < len(ords) && ords[hi] < starts[s+1]; hi++ {
			at[hi] = counting.FromInt(ords[hi] - starts[s])
		}
		if hi == lo {
			continue
		}
		st, rows := shards[s], flat[lo*w:hi*w]
		proj := projection(st.curExec.Q.Vars(), origVars)
		yannakakis.AnswersAt(st.curExec, st.curCounts, at[lo:hi], func(i int, asn []relation.Value) {
			for j, p := range proj {
				rows[i*w+j] = asn[p]
			}
		})
		lo = hi
	}
	if cap(scr.pos) < weighed {
		scr.pos = make([]int32, weighed)
	}
	pos := scr.pos[:weighed] // ordinal → its row of flat, set for ords alone
	for at, o := range ords {
		pos[o] = int32(at)
	}
	for _, c := range classes {
		for i, e := range c.members {
			at := int(pos[e.Item])
			c.members[i] = selection.Entry{Key: flat[at*w], Item: at}
		}
		selectEach(c.members, selection.Vectors{At: flat, R: w}, c.off, c.ranks, func(one []selection.Entry, _ uint64, ranks []rank) {
			// Answers are distinct, so a class by value is one tuple. Copy out
			// of the flat backings: a view would pin every recovered member
			// for the Answer's lifetime, and the weights are scratch.
			i := one[0].Item
			for _, rk := range ranks {
				out[rk.at] = &Answer{Vars: origVars, Values: slices.Clone(flat[i*w : (i+1)*w]), Weight: weightOf(c.weight, r)}
			}
		})
	}
	clear(classes) // they hold the caller's ranks
	scr.classes = classes[:0]
	return weighed, len(ords), nil
}

// weightOf boxes one weight of the flat layout — r positions for LEX, one
// number otherwise — with a vector of its own.
func weightOf(w []int64, r int) ranking.Weightv {
	if r == 0 {
		return ranking.Weightv{K: w[0]}
	}
	return ranking.Weightv{Vec: slices.Clone(w)}
}

// selectEach finds, for every rank of ranks (ascending, repeats allowed), the
// class of equal entries holding sorted position k−off of es, and hands found
// each distinct one with its offset (off plus the entries before it) and the
// ranks that fell in it. A k at or past the end takes the last position (lossy
// accounting can leave an index at the boundary). The middle rank's class is
// selected first and splits the entries for the ranks on either side of it, so
// m ranks cost O(n·log m) comparisons, and one rank one selection.
func selectEach(es []selection.Entry, vecs selection.Vectors, off uint64, ranks []rank, found func(class []selection.Entry, off uint64, ranks []rank)) {
	if len(ranks) == 0 {
		return
	}
	pos := func(r rank) int {
		if k, ok := r.k.Uint64(); ok && k-off < uint64(len(es)) {
			return int(k - off)
		}
		return len(es) - 1
	}
	mid := len(ranks) / 2
	lo, hi := selection.SelectClass(es, vecs, counting.FromInt(pos(ranks[mid])))
	first, last := mid, mid+1
	for first > 0 && pos(ranks[first-1]) >= lo {
		first--
	}
	for last < len(ranks) && pos(ranks[last]) < hi {
		last++
	}
	found(es[lo:hi], off+uint64(lo), ranks[first:last])
	selectEach(es[:lo], vecs, off, ranks[:first], found)
	selectEach(es[hi:], vecs, off+uint64(hi), ranks[last:], found)
}
