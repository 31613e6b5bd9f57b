// Package qjoin computes quantiles over the answers of join queries without
// materializing the join, implementing "Efficient Computation of Quantiles
// over Joins" (Tziavelis, Carmeli, Gatterbauer, Kimelfeld, Riedewald,
// PODS 2023).
//
// A Quantile Join Query (%JQ) asks for the answer at relative position
// φ ∈ [0,1] — e.g. the median at φ = 0.5 — in the list of join answers
// ordered by a ranking function. The answer list can be polynomially larger
// than the database, so the point of the algorithms here is to run in time
// quasilinear in the database size |D| regardless of |Q(D)|:
//
//   - MIN and MAX rankings: exact quantiles for every acyclic join query in
//     O(n log n) (Theorem 5.3).
//   - Lexicographic rankings: exact quantiles in O(n log n) (Section 5.2).
//   - SUM rankings over a variable subset U_w: exact quantiles in
//     O(n log² n) whenever the query is on the positive side of the
//     dichotomy of Theorem 5.6 (U_w has no independent triple and no long
//     chordless path); ClassifySum reports the verdict.
//   - SUM rankings beyond that class: deterministic (φ±ε)-approximation in
//     Õ(n/ε²) (Theorem 6.2) and a randomized sampling approximation
//     (Section 3.1).
//
// # Quickstart
//
//	db := qjoin.NewDB()
//	db.MustAdd("R", 2, [][]int64{{1, 10}, {2, 20}})
//	db.MustAdd("S", 2, [][]int64{{10, 7}, {20, 9}})
//	q := qjoin.NewQuery(
//		qjoin.NewAtom("R", "x", "y"),
//		qjoin.NewAtom("S", "y", "z"),
//	)
//	median, err := qjoin.Median(q, db, qjoin.Sum("x", "z"))
//
// Weights default to the attribute values themselves; set Ranking.Weight to
// override. All weights are int64 (scale fixed-point reals as needed).
//
// # Prepare once, query many
//
// The point of the paper is that preprocessing — validation, input
// deduplication, normalization (self-joins and repeated variables rewritten
// away), join-tree construction, the executable tree's join-group indexes,
// answer counting — is quasilinear while the per-query work on top is cheap. Prepare makes that split explicit: it compiles a
// (Query, DB) pair into a Prepared plan once, and every quantile, selection,
// sampling, enumeration or counting query afterwards reuses the compiled
// artifacts: one executable tree and its counts, which every reader walks —
// quantiles, plain and ranked enumeration, and the lazily built direct-access
// index that sampling reads:
//
//	p, err := qjoin.Prepare(q, db)
//	if err != nil { ... }
//	n := p.Count()                                  // cached, free
//	med, err := p.Median(qjoin.Sum("x", "z"))
//	qs, err := p.Quantiles(f, []float64{0.25, 0.5, 0.75, 0.9, 0.99})
//
// Every free function in this package (Quantile, Count, TopK, ...) is a
// thin wrapper that prepares a plan and discards it, so one-shot calls keep
// working unchanged; answers are identical either way.
//
// What Prepare builds is one normalized, deduplicated database and an
// executable tree over it whose nodes are that database's relations — not
// copies of them. Relations are sets, so each input relation is deduplicated
// once; the query is then put in normal form (one relation per atom, no
// variable twice in an atom: a self-join occurrence becomes a view of its
// relation, an atom such as R(x,y,x) a fresh relation of the rows that agree,
// projected), after which an atom's columns are its node's variables and the
// node reads the relation as it is. A relation found duplicate-free is not
// copied: the engine's relation is a header of its own over the input's
// columns. One with duplicate rows is gathered by the first Prepare over it
// and remembered by the relation until it is next written to, so every plan
// over one database reads the same set. The database handed to Prepare is
// therefore read-only from then on — DB.Apply or a new DB makes a changed
// one; rows appended to an input relation never show through a plan, values
// overwritten in place would.
//
// Prepared is the only plan type. It holds a vector of engines — one from
// Prepare (an acyclic query, or a cyclic one compiled through its hypertree
// decomposition), N from PrepareSharded — and every method is written once
// against that vector: Algorithm 1 steers by answer counts, and counts add
// over disjoint partitions of Q(D), so one engine is the base case of N.
// Plan is another name for *Prepared, the one serving code holds plans under.
//
// A Prepared plan is safe for concurrent readers: all its methods may be
// called from multiple goroutines simultaneously. Methods taking a
// *rand.Rand require a per-goroutine generator, and a *RankedStream is a
// single-consumer cursor (create one stream per goroutine instead).
//
// # Incremental updates
//
// When the database changes, a plan absorbs the delta instead of being
// recompiled. Build a Delta with NewDelta/Insert/Delete and call
// Prepared.Update; the change propagates through every layer of the
// compiled artifact — refcounts, deduplicated relations (each rewritten
// once: the tree nodes reading it take the new relation), join-group
// indexes, counting state — in time proportional to the touched data:
//
//	d := qjoin.NewDelta().Insert("R", []int64{1, 10}).Delete("S", []int64{20, 9})
//	p2, err := p.Update(d)
//
// Update is a copy-on-write swap: the receiver is never mutated (concurrent
// readers and concurrent Updates of it stay safe), and the returned plan
// shares every structure the delta did not touch. The counts are maintained
// along with the tree, so every reader of the derived plan — an exact
// quantile, TopK, ranked enumeration — walks the derived tree by them; the
// lazily built direct-access index is invalidated by any change to the answer
// set and rebuilt from them on the first sample. A delta that only changes raw
// multiplicities (duplicate inserts, deletes of duplicate occurrences)
// invalidates nothing. Relations are multisets at the input level: a tuple
// leaves the answer side only when its last occurrence is deleted, and
// deleting an absent tuple fails atomically with ErrDeleteAbsent. Answers
// of an updated plan are byte-identical — RunStats included — to a fresh
// Prepare on the mutated database (DB.Apply produces exactly that
// database).
//
// # Parallel execution
//
// The hot passes — input deduplication, join-group index construction, the Yannakakis counting and reduction passes, pivot
// selection, and the per-round trim constructions of Algorithm 1 — run on a
// shared data-parallel runtime (a bounded worker pool with chunked
// index-range scheduling). Options.Parallelism sets the worker count:
//
//	p, err := qjoin.Prepare(q, db, qjoin.Options{Parallelism: 8})
//	med, err := p.Median(f) // plan defaults apply to every query
//
// 0 (the default) selects GOMAXPROCS; 1 takes the exact sequential code
// path. The determinism contract: answers, run statistics and every
// compiled artifact are byte-identical for every Parallelism value — all
// parallel merges are ordered and nothing depends on goroutine scheduling —
// so the knob only trades wall-clock time for cores. Parallelism is a no-op
// on tiny inputs: chunked loops fall back to the sequential path below a
// fixed chunk-size threshold, so small relations never pay goroutine
// overhead. Custom Ranking.Weight functions must be safe for concurrent
// calls when the resolved worker count exceeds 1 (the default identity
// weights always are).
//
// # Columnar storage
//
// Relations are stored column-major: one flat int64 column vector per
// attribute, not a slice of per-row slices. The hot passes — interning,
// per-edge gid construction, counting, pivot weight evaluation, the trim
// constructions — are sequential scans over those vectors. Three
// consequences are part of the package contract:
//
// Values are int64 everywhere. String data enters through a per-database
// string dictionary that interns strings to dense ids in first-appearance
// order. The dictionary is append-only and shared, not copied, by every
// derived database (clones, trims, incremental updates): an id once
// assigned never changes and is never reused, so ids in answers remain
// decodable for as long as any database derived from the original is
// alive. The dictionary's lifetime is the lifetime of that family of
// databases — it is never rebuilt or compacted behind a caller's back.
//
// A derivation that changes rows copies columns; one that changes none
// shares them. A derived relation — subset filtering in the pivot loop's
// trims, the surviving rows of an incremental update, row gathers — owns
// freshly gathered column vectors, written once (the tree node and the
// database hold the same relation). A relation that is another one's rows
// unchanged — a deduplication that dropped nothing, a self-join occurrence, a
// relation a trim does not constrain — is a view over the same columns. A
// published relation is immutable either way, so concurrent readers of an old
// plan never observe a derivation.
//
// Update follows the same copy semantics: Prepared.Update writes the
// touched relations' surviving rows into fresh columns and shares every
// untouched structure with the receiver. The cost of a delta is
// proportional to the touched relations' sizes, not to |D|, and the
// receiver remains fully usable (and byte-identical in its answers)
// afterwards.
//
// # The pivot loop
//
// The per-iteration cost of Algorithm 1 is proportional to the surviving
// rows, not to a rebuild of the trimmed database, and a round does only the
// work its decision needs (CHANGES.md has the history of each mechanism and
// its measurements):
//
// One-sided rounds. A round trims, derives and counts one partition first —
// lt when index k lies in the lower half of the candidates, else gt — and
// descends immediately when that count already places k (k < |lt|, resp.
// k ≥ |cur| − |gt|). The other partition is built only otherwise, before
// the usual three-way choice between lt, the pivot's tie class and gt.
// Pivots, decisions and answers are exactly those of a round that builds
// both sides; RunStats.Iterations counts every round on every exit (it
// equals len(Phases.Iterations)), a PhaseTimings entry sums both builds
// when a round had two, and MaxInstanceTuples is the largest instance of
// the descent — built by this run, or built by an earlier one and
// remembered (below) at the size it had.
//
// One descent for many ranks. A round's pivot splits the whole candidate
// band into lt / tie class / gt with known counts, so it places every
// requested rank at once: Quantiles, the server's exact op=quantiles and the
// sketch tier's anchor grid (core.SelectMany) sort their ranks and send them
// down one descent, the ranks below the pivot into lt, those above into gt
// (held aside until the lt subtree is done), those on it answered from the
// pivot or one weighing of its class. A band is trimmed, derived and
// counted once however many ranks fall in it, and a band under the threshold
// is weighed once for all of them: m ranks cost O(|D|·log m) loop work
// plus their m tails, where a run per rank costs m full descents. A single
// quantile is the m = 1 case of the same code, and each answer is byte for
// byte the one its own run returns; RunStats then describe the whole
// descent (rounds and materialized candidates add up over it).
//
// A descent is run once. The pivot of a candidate band is a function of the
// instance, the ranking and the band — not of the rank asked for — and every
// exact band is one trim of the original instance, so two exact requests on
// one plan under one ranking walk the same rounds wherever their descents
// overlap, which is at least the root. The plan therefore keeps, per ranking,
// a pivot tree (internal/core): a node is one round — the pivot's weight and
// answer and, per partition some run has built, its answer count, its size and
// which shards it left without candidates; no instance, executable tree or
// count array is kept, a few hundred bytes a node. A run walks the tree beside
// its bands: a remembered round skips the pivot pass, a remembered partition's
// count places the ranks without the partition being built, and a band is cut
// out of the original instance only where an instance is read — the pivot
// pass of a round the tree does not hold, a leaf's tail, the tail of a tie
// class with several members. Every round a run does
// execute is written into the tree (first writer wins, nodes are immutable,
// no run waits for another). The first exact answer per (plan, ranking) pays
// the descent; later ones one band cut and their tail. Single ranks, rank
// grids and sketch builds walk and fill the same tree. It is bounded by
// construction — one node per 256 input tuples, at least 64, past which
// deeper rounds simply run; as many rankings as the trim cache keeps — and
// follows the trim cache's ownership: an engine derived by a set-changing
// delta starts without one (on a routed plan a delta to any shard starts the
// vector's tree over), a multiplicity-only delta carries it, a restored plan
// starts empty, and ε-lossy runs, whose partitions overlap and whose ε depends
// on the depth, never touch one. RunStats describe the descent and are
// byte-identical whether a round was run or remembered; what this run executed
// is in Phases (PhaseLog.Remembered; a remembered round's timings are zero).
//
// The cut. A band cut out of the original instance is four steps, and only
// the first reads a value. Scan: every relation's ranked columns are tested
// against the band — interval tests per box for MIN, MAX and LEX, two binary
// searches per row over the partner's sorted sums for SUM — and what survives
// is a list of source row indexes, with the identifier (box number, dyadic
// segment id) each copy will carry. Gather: each output relation is one gather
// per column through its list, plus the identifier column. Derive by integers:
// the output's executable tree follows from the lists and the original tree's
// per-row group ids, without a key being projected, hashed or interned
// (jointree.DeriveGathered; DeriveSubset for a band of one box, which is a row
// filter). On an edge that does not carry the identifier on both ends group
// ids are the original's, read through the lists; on one that does the new
// group is the pair (original group, identifier) — numbered box by box through
// one stamp array over the original's groups for the boxes, and simply the
// segment id for the staircase, whose ids are dense, belong to one group each
// and are first used in ascending order on either side. The result is the
// tree Build + NewExecWorkers would give on the output, field for field (up to
// retained empty groups where ids are stable), so answers and RunStats cannot
// tell. Count: the counting pass over that tree. The derivation applies when
// the output query's join tree is the original's with the identifier added,
// which an identifier on every atom always leaves so and one on two atoms
// nearly always; otherwise, and for the ε-lossy SUM's sketch embeddings, the
// tree is built afresh (PhaseLog.Cuts and Rebuilt count both; qjq -stats
// prints them). The staircase numbers a group's segments in a table over the
// implicit segment tree of its sorted side, stamped so that no group clears
// it: the cut touches no hash table at all.
//
// The tail. A run ends in a band of at most |D| candidates (or in a tie class
// of several members), and nothing of that band is ever held as tuples but
// the answers returned. Weigh: a pass over each live shard's current tree,
// guided by its counts, visits the candidates in Enumerate's order on
// Enumerate's odometer (yannakakis.Walk) and writes their weights — not their
// values — into one flat array, the pivot pass's layout: per pre-order depth
// it carries the weight of the tuples bound so far (for LEX the one vector,
// each position written by the node that owns it under μ) and weighs the last
// node's candidates in one loop (pivot.Weigh). A candidate is then known by
// its ordinal: shard after shard, each shard's in walk order. Select: the
// weight class holding each requested rank is selected among (weight, ordinal)
// entries by the kernel of the weighted median (selection.SelectClass), the
// middle rank first and the others in the halves it leaves. Recover: only the
// members of the selected classes become tuples, in one positional walk per
// shard (yannakakis.AnswersAt: the same odometer passing over every tuple
// whose count says no wanted ordinal lies under it — a mixed-radix decoding of
// the ordinal over the join groups' counts), projected onto the source
// variables; inside a class of several members the same kernel selects by
// value. The answer is still the rank-k member of the (weight, values) order:
// the band is a union of complete weight classes, so the class at position k
// of the weights is the class of the rank-k answer, position k minus the
// answers before the class is its rank inside, and the members' value order
// is the tie-break — no step depends on the order the walk visits the
// candidates in, which only names them. A tie class reached through the equal
// partition is the same code with the class's weight known: the weights are
// looked at and dropped, the members' ordinals kept. Selection is worst-case
// linear; beside it the tail sorts the ordinals of the classes it recovers
// (c·log c for c members) and recovery costs O(|D| + ℓ·c) plus the live group
// members it steps over, never more than the walk up to the last member: a
// band that is one giant tie class costs what materializing it costs.
// PhaseLog.Tail, Weighed and Recovered report it (Options.CollectPhases).
// Every answer owns its values and its weight; Answer.Vars is the plan's.
//
// One-pass band trim. Every exact family cuts the candidate band
// low ≺ w ≺ high out of the original instance in a single trim. For SUM, per
// A-row, two binary searches over the sorted B side bound the admissible
// range, which is covered by its canonical dyadic segments; the one-sided trim
// is the band with the other bound at ±∞ — for ≺ λ byte-identical to the
// prefix construction — so one cached preparation per ranking serves every
// round of every quantile. For MIN, MAX and LEX a one-sided cut is a list of
// disjoint boxes — per ranked variable a closed weight interval, Algorithm 3's
// partitions — and the band is the pairwise intersections of its two cuts'
// boxes: every relation is scanned once per box and gathered once, under one
// identifier column (a band of one box is a row filter). Only the ε-lossy SUM
// composes two one-sided trims, pivot bound first.
//
// Deterministic linear selection. Weighted medians (Algorithm 2) and the
// tail's selection of a rank's weight class run introselect: a cheap
// position-based pivot (median-of-3, ninther from 128 items), with
// median-of-medians taking over for the rest of a call as soon as one
// partition round fails to shrink the range by at least 1/8. Nothing is
// randomized, every call is worst-case linear, and the pivot rule can only
// change which member of a tie class a median returns — never a pivot
// weight, and never an exact answer (tie classes are resolved in canonical
// value order). There is one kernel (internal/selection): it partitions
// (weight, item) entries held by value, 16 bytes each, and compares them
// inline; what else an item carries — the rest of a LEX vector, a
// multiplicity — lies behind it in flat arrays (a node's weights are one
// array of numbers, its counts another). The weighted median and the tail,
// whose entries count once and whose second pass orders a class by value, are
// its two entry points.
//
// Interned integer row keys. Every hash structure over tuples — input
// dedup, node materialization, join-group indexes, the trim constructions'
// group maps — keys rows through an interner that maps flat value tuples to
// dense uint32 ids (first-appearance order). An interner is owned by the
// structure that built it and lives exactly as long as that structure; a
// derived structure (an updated or subset-filtered executable tree) shares
// its parent's interner read-only and records additions in a copy-on-write
// overlay, so group ids are stable across derivations and the parent stays
// safe for concurrent readers. Interners are never mutated after their
// owner is published. A group index whose ids were numbered from a band's
// identifier column has none: nothing in the loop looks a group up by key.
//
// Derived executable trees. Every exact trim derives its output's executable
// tree from its input's (the cut, above) instead of rebuilding from raw
// relations. Where group ids are stable — everywhere in a pure-filter trim
// (MAX ≺ λ, MIN ≻ λ, single-node SUM) — dead groups are retained empty and
// behave exactly like missing keys; node relations are byte-identical to a
// fresh build's, so answers and RunStats are unchanged. A derivation
// does NOT invalidate the parent tree, its interners, or its per-edge
// gid arrays — they are shared — and it does not carry over any counting
// state: counts are always recomputed (or delta-maintained) per instance.
// The plan's direct-access index belongs to the engine, not to derived
// instances, and the loop neither reads nor builds it: both of its exits
// weigh their candidates by walking the current tree guided by its counts
// (cnt(t) > 0 is exactly "t carries an answer"), at O(|D| + ℓ·|candidates|)
// on original and trimmed instances alike.
//
// Pooled iteration scratch and cached trim preparation. Counting arrays,
// pivot weight buffers (LEX weight vectors as one flat array per node) and
// the tail's weights and entries are drawn from a plan-owned pool, and the bound-independent half of the
// staircase trim (grouping and sorting both adjacent sides) is computed
// once per ranking per plan and reused by every iteration of every
// quantile. Options.CollectPhases
// records a per-iteration pivot/trim/derive/count wall-clock breakdown in
// RunStats.Phases (off by default so RunStats stay byte-comparable): one entry
// per round of the descent, timed for what this run executed of it, how many
// rounds came from the pivot tree, and the tail's time and counts.
//
// # Sharded datasets
//
// PrepareSharded hash-partitions the input on a join key into N shard
// engines (compiled concurrently) and answers through a merged global pivot
// loop: per-iteration counts are summed across shards, the global pivot is
// a weighted median over per-shard pivot candidates, and the λ-trim is
// broadcast. It returns a *Prepared like Prepare does — one that is routed,
// i.e. knows the key its engines partition on. The contract:
//
//   - Byte-identity. Every selection answer — Quantile, Quantiles, Median,
//     ApproxQuantile, Count — is byte-identical at every shard count,
//     including shards=1 versus Prepare. Sharding is an operational choice,
//     never a semantic one. The one tie-break caveat is TopK: its k weights
//     are identical at every shard count, but among answers of exactly
//     equal weight the sharded merge orders by value, which may differ from
//     the unsharded stream's enumeration order. Each shard count is itself
//     fully deterministic.
//   - RunStats. Statistics are identical across runs and worker counts at
//     a fixed shard count (and for shards=1 versus unsharded) — whether a
//     run executed its rounds or walked the ones the plan remembers — but
//     not comparable across different shard counts: the merged loop may
//     converge in a different number of iterations.
//   - Partitioning. The key is a join variable occurring in the most atoms
//     (first appearance breaks ties; Key reports it). Atoms containing the
//     key split by hashing that column with ShardOf — a fixed, process-
//     stable integer hash — and atoms without it share one replica across
//     shards. Self-joins are rewritten before partitioning, so each
//     occurrence routes by its own column. The per-database string
//     dictionary is shared by all shards, never copied. Queries with no
//     join variable fail with ErrNoShardKey; run those through Prepare.
//   - Updates route. On a routed plan Update hash-routes each delta op to
//     the shards owning its rows and rebuilds only those engines
//     (copy-on-write, concurrent, atomic on error — ErrDeleteAbsent leaves
//     the receiver intact). Touched reports the routing without updating.
//   - Accessors on an unrouted plan. A plan from Prepare reports Shards()
//     = 1, Key() = "" and Touched(d) = [0] for any non-empty delta.
//   - Single-engine diagnostics. SampleQuantile (and Answer with
//     ModeSample), SampleAnswers, BaselineQuantile and RankedEnumerate
//     answer only on an unrouted plan; a routed plan — PrepareSharded at
//     any shard count, 1 included — returns an *ArgError. Every other
//     method behaves identically on both.
//   - Plan names the same type; UpdatePlan and LoadPlanBytes are Update and
//     LoadPreparedBytes under that name.
//
// # Cyclic queries
//
// Prepare accepts cyclic queries — triangles, length-k cycles, cliques — by
// routing them through a generalized hypertree decomposition
// (internal/decomp). The contract:
//
//   - Rewrite, then reuse. The atom list is partitioned into bags of at
//     most decomp.MaxDecompWidth (4) atoms; each bag is materialized by
//     joining its covering atoms on the parallel runtime, and the acyclic
//     query over the bag relations runs the regular pipeline — pivoting,
//     trims, counting, sketches, snapshots, enumeration — unchanged.
//     Answers are exact and byte-identical to a brute-force join of the
//     original query, at every φ and Parallelism value.
//   - Determinism. The decomposition is a pure function of the query shape
//     (widths tried in ascending order over canonical set-partitions), so
//     the same query always compiles to the same bags, on every process.
//   - Cost. Bag materialization at Prepare time is the one
//     super-quasilinear cost the rewrite cannot avoid (a quasilinear cyclic
//     join would contradict the Hyperclique hypothesis).
//     RunStats.Decomp reports width, bag count, bag sizes and
//     materialization wall time; it is nil for acyclic queries.
//   - Width cap. A cyclic query with no decomposition of width ≤ 4 (the
//     Petersen graph is the canonical example) fails Prepare with a typed
//     *ArgError naming the query shape.
//   - Tractability is judged post-rewrite. The SUM dichotomy and every
//     other classification run on the rewritten bag query; an intractable
//     SUM over the bag shape returns ErrIntractable exactly as for a native
//     acyclic query, and the approximate surfaces keep working.
//   - Updates re-materialize locally. Prepared.Update applies the delta to
//     the pre-decomposition database and rebuilds only the bags whose
//     relations were touched, sharing the rest with the receiver
//     (RunStats.Decomp.RematerializedBags counts the rebuilds; Redecomposed
//     flags a delta that touched every bag). Multiplicity-only deltas keep
//     the compiled artifact entirely.
//   - Sharding excluded. PrepareSharded fails cyclic queries fast with the
//     typed ErrCyclicSharded; use Prepare (the qjserve plan cache does this
//     fallback itself).
//
// # Approximate-first answering
//
// Answer is the mode-aware entry point that unifies the answering tiers
// behind one request type. QuantileRequest selects a tier through Mode:
//
//   - ModeExact (the zero value) runs the exact pivot loop; Quantile,
//     QuantileStats and ApproxQuantile are deprecated wrappers over it and
//     stay byte-identical.
//   - ModeApprox answers from a mergeable weighted quantile summary
//     (internal/sketch) built lazily per (plan, ranking): a grid of anchor
//     answers, each carrying certified rank bounds. A warm sketch answers
//     any φ by anchor lookup, at cost independent of |D|.
//   - ModeAuto serves from the sketch only when the requested Eps is at
//     least the anchor's certified error at that φ, and otherwise falls
//     back to the exact loop, byte-identical to the ModeExact answer.
//   - ModeSample is the randomized sampling estimator (unrouted plans
//     only); it has no wire form.
//
// The request is validated once, before any tier runs: an unknown Mode, a
// Phi outside [0,1], and an Eps that is NaN or outside [0,1) are *ArgErrors
// on mode, phi and eps in every mode. Eps 0 means exact (or, under
// ModeApprox, the default sketch resolution).
//
// Every Answer reports which tier produced it (Answer.Source: exact,
// sketch or sample) and the certified rank-error fraction of that answer
// (Answer.ErrorBound; 0 means exact). A plan keeps one summary per engine
// plus their cached merge (the merge of one part is that part, so a
// one-engine plan serves its summary unmerged). Update carries sketches
// into the new plan copy-on-write, marking stale exactly the parts whose
// engine's answers the delta changed; the next approx answer — or an
// explicit WarmSketches, which the qjserve plan cache calls during delta
// migration — re-certifies the stale parts instead of rebuilding the grid,
// so a shard-local update re-certifies only the touched part.
//
// The refresh is proportional to the delta: Update lists, once for all
// rankings, the answers the changed engine gained and lost, and each stale
// anchor's rank window shifts by the listed answers below it — exact
// arithmetic, equal to a recount for rankings with exact trims. The recount
// itself, two trim-and-count passes over the instance per anchor, is the
// full pass, and it runs only where the shift has no input: a part's first
// refresh after a build or a restore (its windows are not class windows
// yet), an engine behind a hypertree decomposition (bags are rematerialized,
// no row-level record), and a delta listing more answers than the engine
// has tuples (Updates chained without a warm-up accumulate under the same
// cap). The choice is made from what the code observes; SketchRefreshes
// counts which refresh ran. ParseMode and Mode.String are the wire form of
// the mode argument, shared by qjq -mode and the server's /query mode field.
//
// # Durability
//
// A compiled plan can be persisted and restored without recompiling.
// Prepared.Snapshot writes the plan as a versioned, checksummed binary
// stream — the string dictionary, the raw columnar relations, the compiled
// engine artifact(s), and any warm sketch summaries — and LoadPrepared /
// LoadPreparedBytes read it back. An engine section holds the source and
// normalized queries, the deduplicated database, per tree edge the group
// index (with its interner tables) and the parent-group array, and the
// counting state; a node's relation is the database's, found again by name,
// and a relation over columns already in the stream is written as a view of
// them, so each column set is stored once and a restored plan shares what the
// saved one shared. The
// stream's kind follows whether the plan is routed (a routed plan records
// its shard count and one engine section and summary per shard); the loaders
// accept either kind. The contract:
//
//   - Byte-identity. A restored plan answers every query — RunStats
//     included — byte-identically to the plan that was saved, at every
//     Parallelism value, and remains fully updatable: snapshot → Update →
//     snapshot chains are equivalent to the never-persisted plan.
//   - Cost. Restoring skips validation, join-tree construction,
//     deduplication, materialization and counting; it is bounded in CI at
//     20% of a fresh Prepare on the same data (measured ~13% on one core;
//     with more cores the checksum pass overlaps with decoding).
//   - Integrity. Every section carries a CRC-32C trailer verified before
//     any state is adopted. Failures are typed — ErrNotSnapshot,
//     ErrSnapshotVersion, ErrSnapshotChecksum, ErrSnapshotTruncated,
//     ErrSnapshotCorrupt — and a load either returns a fully valid plan or
//     an error, never a partially restored one.
//   - Versioning. The format version (2 since node relations left the engine
//     section) is bumped on any layout change and readers accept exactly
//     their own version. Snapshots are a cache of
//     compiled state, not an archival format: the cross-version migration
//     path is re-Prepare from the raw data.
//   - Lazily rebuilt state. The direct-access index is not serialized; a
//     restored plan builds it from the restored counts on its first sample,
//     exactly like a freshly prepared one. Every other reader needs only what
//     the snapshot carries: the executable tree — group indexes and every
//     edge's parent-gid array, which a loader refuses a section without —
//     and its counts.
//
// SnapshotDataset/LoadDatasetBytes persist a raw database with its serving
// metadata (name, generation, shard layout) but no compiled plan — the
// form qjserve's -data-dir durability and blue/green snapshot streaming
// use, with a per-dataset write-ahead log of deltas (internal/snap.WAL)
// replayed on recovery through DB.Apply. The log is kept a valid prefix at
// all times: a failed append truncates its partial frame back out (a
// rejected delta is never resurrected by replay), and reopening a log for
// append truncates any tail torn by a crash before new records land, so
// replay always reaches every acknowledged record. Snapshot saves commit
// by rename followed by a directory fsync — durable against power loss,
// not just process death — and on failure leave the previous snapshot and
// log untouched.
//
// # Serving and plan sharing
//
// The qjserve daemon (cmd/qjserve, built on internal/server) holds plans in
// a cache shared by many concurrent HTTP requests. The sharing rules it
// relies on are part of this package's contract:
//
//   - One *Prepared may serve any number of concurrent readers, and any
//     number of distinct Ranking values: a plan depends only on the
//     (Query, DB) pair, so queries under different rankings share it.
//   - What a plan memoizes per ranking — the SUM trim preparation, the
//     sketch summary — is keyed by the ranking's value (Ranking.Key:
//     aggregate and variable list), so a caller that builds an equal
//     Ranking per query, as the server does from each request, finds it
//     warm. Only a Ranking with a custom Weight function is keyed by its
//     pointer: reuse the instance to reuse its state.
//   - Update may run concurrently with reads of the receiver and returns a
//     new plan; old and new plans are independently usable, so a cache can
//     migrate entries to the post-delta plan while in-flight requests
//     finish on the pre-delta one. Answers of the migrated plan are
//     byte-identical to a fresh Prepare on the mutated database.
//
// Queries and rankings have canonical textual forms for the wire:
// ParseQuery/FormatQuery, ParseRanking/FormatRanking and the QuerySpec
// JSON codec round-trip losslessly (rankings with custom Weight functions
// have no wire form). A request is checked in one place: Request.Resolve
// applies the wire protocol's rules — op defaulting, which ops take a mode,
// when eps reaches the plan, the φ, φ-grid, k and workers domains — and
// returns the Operation that Prepared.Run executes; every rejection is an
// *ArgError naming the offending field, which qjserve maps to a 400. cmd/qjq
// checks its flags against the same domains (ValidateEpsilon, ValidateDelta,
// ValidateWorkers, ValidateShards, ParseMode, ParsePhis).
//
// The implementation is a faithful, fully self-contained reproduction: GYO
// join trees, Yannakakis evaluation, linear-time c-pivot selection by
// message passing (Algorithm 2), the four trimming constructions of
// Sections 5 and 6, and the divide-and-conquer driver of Algorithm 1.
// cmd/qjbench reproduces the paper's figures and theorems (E01–E12); bench/
// is the repository benchmark.
package qjoin
