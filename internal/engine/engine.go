// Package engine owns the compiled artifact of a (Query, Database) pair.
//
// The paper's preprocessing — validation, input deduplication (relations are
// sets, Section 2.1), normalization (query.Normalize: self-joins and repeated
// variables rewritten away, Section 2.2), GYO join-tree construction, and the
// join-group indexes of the executable tree (Section 2.4) — is quasilinear but
// far from free, and every driver needs it. An Engine runs that pipeline
// exactly once and hands the immutable result to any number of subsequent
// queries: quantiles at many φ's, selection, sampling, enumeration, counting.
//
// The data is held once: the database is one deduplicated column set per
// relation — the raw input's own columns when it had no duplicate row, shared
// by every self-join occurrence — and the executable tree's nodes read those
// relations, not copies of them. The raw input is therefore read-only from
// NewWorkers on (appending rows to it is harmless; changing a stored value is
// not).
//
// Beyond the eager artifacts (normalized query, deduplicated database, join
// tree, executable tree), an Engine lazily builds two more, each once, under
// a small mutex of its own:
//
//   - the counting state of Section 2.4: per-tuple and per-group subtree
//     counts and |Q(D)|. Every reader of answers starts from it: the first
//     pivot of a quantile, the materialization Algorithm 1 ends with, plain
//     and ranked enumeration (cnt(t) > 0 says which tuples carry an answer,
//     so every walk of the tree skips the rest) and direct access; and
//   - the direct-access index of Section 3.1 (random access and uniform
//     sampling over the answer set), one prefix sum per tuple over those
//     counts.
//
// The executable tree and its counts are the only structures any reader of
// answers uses; nothing builds a second tree.
//
// Concurrency: after New returns, every method of Engine is safe for
// concurrent use. The shared executable tree is never mutated — the
// per-iteration trimmed instances of Algorithm 1 are derived trees of their
// own.
package engine

import (
	"errors"
	"sync"

	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/decomp"
	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/parallel"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/trim"
	"github.com/quantilejoins/qjoin/internal/yannakakis"
)

// Sentinel errors shared by every driver (re-exported by internal/core and
// the public qjoin package, so identity comparisons work across layers).
var (
	// ErrNoAnswers is returned when Q(D) is empty.
	ErrNoAnswers = errors.New("qjoin: query has no answers")
	// ErrCyclic is returned for cyclic queries that additionally fail to
	// decompose (see internal/decomp). Plain cyclic queries no longer hit
	// it: they route through a hypertree decomposition and are answered
	// exactly; only decomposition failures (*decomp.WidthError) and this
	// sentinel's historical role in sharding remain.
	ErrCyclic = errors.New("qjoin: query is cyclic")
)

// Engine is the compiled, reusable form of a (Query, Database) pair.
//
// Engines are immutable once returned: Update never modifies the receiver,
// it derives a new Engine sharing every untouched structure (copy-on-write),
// so readers of the old artifact are never disturbed.
type Engine struct {
	src      *query.Query       // the original query, as the user wrote it
	origVars []query.Var        // src.Vars(): the canonical answer layout
	q        *query.Query       // src in normal form (query.Normalize)
	db       *relation.Database // deduplicated, normalized database
	db0      *relation.Database // raw input database (nil on derived engines)
	tree     *jointree.Tree
	exec     *jointree.Exec // shared read-only executable tree
	pos      []int          // positions of origVars within q.Vars()
	workers  int            // resolved worker count for compile-time passes

	// Cyclic sources route through a hypertree decomposition: q/db above
	// then hold the acyclic bag query and the materialized bag relations,
	// while decQ/ddb keep the normalized source query and its deduplicated
	// database for incremental bag re-materialization. All
	// four decomposition fields are nil for acyclic sources; decStats may
	// additionally be nil on snapshot-restored engines (ddb too — both are
	// rebuilt lazily when first needed).
	dec      *decomp.Decomposition
	decQ     *query.Query
	ddb      *relation.Database
	decStats *decomp.Stats

	// The lazy structures are guarded by one small mutex each (not a
	// sync.Once: Update peeks at what is already built to carry caches
	// forward onto derived engines, and a Once cannot be inspected without
	// racing its builder). Building happens under the lock, so concurrent
	// first users serialize exactly as they would on a Once.
	countsMu sync.Mutex
	counts   *yannakakis.Counts // full counting state; Total plus the per-tuple/per-group counts Update's delta counting needs

	setsMu sync.Mutex
	sets   map[string]*relation.Multiset // raw tuple multiplicities per source relation; built on first Update

	accessMu sync.Mutex
	access   *yannakakis.Direct

	// trimCache amortizes λ-independent trim preprocessing (grouped and
	// staircase-sorted adjacent pairs) across pivoting iterations AND across
	// queries on this plan, and holds what the driver remembers of its exact
	// descents (core's pivot trees). It is keyed by ranking identity and valid
	// only for this engine's exact (q, db); engines derived by Update with a
	// changed set view start fresh, the others carry it — which also makes its
	// identity the stamp of "same set view" a pivot tree over several shard
	// engines checks.
	trimCache *trim.Cache

	// scratch pools the per-run iteration scratch (counting arrays, pivot
	// weight buffers) so repeated queries on one plan stop reallocating them.
	// Race-safe: each concurrent run checks out its own scratch value.
	scratch sync.Pool
}

// TrimCache returns the plan-owned cache of trim preprocessing and remembered
// descents: the same *trim.Cache for every engine derived from this one
// without a change to its set view, a fresh one otherwise.
func (e *Engine) TrimCache() *trim.Cache { return e.trimCache }

// Scratch returns the plan-owned pool of per-run iteration scratch. Callers
// Get a value, use it for one run, and Put it back; the pool's values are
// managed by the driver (the engine only owns their lifetime).
func (e *Engine) Scratch() *sync.Pool { return &e.scratch }

// NewWorkers compiles a query against a database: validate, deduplicate the
// input relations, normalize, build the join tree and the executable tree
// over it. Everything here is quasilinear in |D| and is paid exactly once per
// (Q, D) pair; the answer count and the other derived structures are built
// lazily on first use and then cached. db0 is read, never written, and stays
// shared with the engine (see the package comment).
// parallelism is the worker count of the compile-time passes (deduplication,
// group indexes, counting): 0 selects GOMAXPROCS, 1 the exact sequential
// path.
// The compiled artifact is byte-identical for every value — all parallel
// merges are ordered — so the knob only trades wall-clock time for cores.
func NewWorkers(src *query.Query, db0 *relation.Database, parallelism int) (*Engine, error) {
	if err := src.Validate(db0); err != nil {
		return nil, err
	}
	workers := parallel.Workers(parallelism)
	q, db := normalize(src, db0, workers)
	tree, err := jointree.Build(q)
	var dec *decomp.Decomposition
	var decQ *query.Query
	var ddb *relation.Database
	var decStats *decomp.Stats
	if err != nil {
		// Cyclic: rewrite into an acyclic query over materialized
		// hypertree-decomposition bags and compile that instead. The
		// bag query mentions every source variable, so the projection
		// onto the original layout below works unchanged.
		d, derr := decomp.Decompose(q, decomp.MaxDecompWidth)
		if derr != nil {
			return nil, derr
		}
		bagDB, st := d.Materialize(q, db, workers)
		dec, decQ, ddb, decStats = d, q, db, st
		q, db = d.Query(), bagDB
		if tree, err = jointree.Build(q); err != nil {
			return nil, err
		}
	}
	exec, err := jointree.NewExecWorkers(q, db, tree, workers)
	if err != nil {
		return nil, err
	}
	origVars := src.Vars()
	idx := q.VarIndex()
	pos := make([]int, len(origVars))
	for i, v := range origVars {
		pos[i] = idx[v]
	}
	return &Engine{
		src:       src,
		origVars:  origVars,
		q:         q,
		db:        db,
		db0:       db0,
		tree:      tree,
		exec:      exec,
		pos:       pos,
		workers:   workers,
		dec:       dec,
		decQ:      decQ,
		ddb:       ddb,
		decStats:  decStats,
		trimCache: trim.NewCache(),
	}, nil
}

// Source returns the original query, exactly as passed to New.
func (e *Engine) Source() *query.Query { return e.src }

// Query returns the normal-form rewrite the drivers run on (the bag query of
// a cyclic source).
func (e *Engine) Query() *query.Query { return e.q }

// DB returns the deduplicated, normalized database the executable tree's
// nodes read.
func (e *Engine) DB() *relation.Database { return e.db }

// Tree returns the join tree.
func (e *Engine) Tree() *jointree.Tree { return e.tree }

// DecompStats returns the hypertree-decomposition statistics of a cyclic
// source — width, bag count, bag sizes, materialization cost — or nil for an
// acyclic one. The returned struct is a private copy. Engines restored from
// a snapshot recompute the size fields from the restored bag relations and
// report zero MaterializeNanos (no bag was joined on this process).
func (e *Engine) DecompStats() *decomp.Stats {
	if e.dec == nil {
		return nil
	}
	st := e.decStats
	if st == nil {
		fresh := &decomp.Stats{Width: e.dec.Width, Bags: len(e.dec.Bags)}
		for _, name := range e.dec.BagNames {
			n := e.db.Get(name).Len()
			fresh.TotalBagRows += n
			if n > fresh.MaxBagRows {
				fresh.MaxBagRows = n
			}
		}
		st = fresh
	}
	c := *st
	return &c
}

// Exec returns the shared executable join tree. It must be treated as
// read-only.
func (e *Engine) Exec() *jointree.Exec { return e.exec }

// Counts returns the full counting state of the shared executable tree —
// per-tuple and per-group subtree counts plus the total — computing it on
// first use (one linear message-passing pass) and caching the result.
// Update's delta counting starts from this state; engines derived by Update
// carry their maintained state here, so the pass is never repeated.
func (e *Engine) Counts() *yannakakis.Counts {
	e.countsMu.Lock()
	defer e.countsMu.Unlock()
	if e.counts == nil {
		e.counts = yannakakis.CountWorkers(e.exec, e.workers)
	}
	return e.counts
}

// peekCounts returns the counting state only if already built.
func (e *Engine) peekCounts() *yannakakis.Counts {
	e.countsMu.Lock()
	defer e.countsMu.Unlock()
	return e.counts
}

// Total returns |Q(D)|, counting on first use and caching the result — the
// pass every reader of answers needs anyway.
func (e *Engine) Total() counting.Count {
	return e.Counts().Total
}

// Vars returns the original query's variables — the canonical answer layout.
func (e *Engine) Vars() []query.Var { return e.origVars }

// Width returns the arity of assignments over the rewritten query, i.e. the
// buffer length readers of Exec's answers (enumeration, ranked enumeration,
// Access) must allocate.
func (e *Engine) Width() int { return len(e.pos) }

// Pos returns, for each original variable, its position in the rewritten
// query's Vars() layout. The slice is shared and must not be mutated.
func (e *Engine) Pos() []int { return e.pos }

// Project maps an assignment laid out per Query().Vars() onto the original
// variable layout. dst must have length len(Vars()).
func (e *Engine) Project(asn []relation.Value, dst []relation.Value) {
	for i, p := range e.pos {
		dst[i] = asn[p]
	}
}

// Access returns the direct-access index of Section 3.1 over the answer set,
// building it on first use from the cached counts (one linear pass, then
// cached). Safe for concurrent use; Sample callers must not share one
// *rand.Rand across goroutines.
func (e *Engine) Access() *yannakakis.Direct {
	e.accessMu.Lock()
	defer e.accessMu.Unlock()
	if e.access == nil {
		e.access = yannakakis.NewDirect(e.exec, e.Counts())
	}
	return e.access
}

// peekAccess returns the direct-access index only if already built.
func (e *Engine) peekAccess() *yannakakis.Direct {
	e.accessMu.Lock()
	defer e.accessMu.Unlock()
	return e.access
}

// normalize returns the query and database an engine runs on: every input
// relation deduplicated once (relations are sets; everything the trims derive
// from these stays marked distinct, so nothing downstream hashes for
// duplicates again), then the query normalized over them, so self-join
// occurrences share their relation's deduplicated columns and a
// repeated-variable atom's relation is cut from distinct rows.
func normalize(src *query.Query, db0 *relation.Database, workers int) (*query.Query, *relation.Database) {
	return query.Normalize(src, dedupeDatabase(db0, workers))
}

// dedupeDatabase returns a database whose relations are duplicate-free and
// marked distinct. Relations already known distinct are shared, and so are the
// columns of one found duplicate-free; one with duplicate rows is gathered by
// the first compile over it and remembered by the relation, so the plans of
// one input share that set too.
//
// Deduplication is append-only: it collapses raw multiplicities to a set and
// forgets them, so nothing at this level can answer "is it safe to remove
// this tuple?". Deletions must instead flow through Engine.Update, which
// replays them against the per-relation Multiset refcounts and rejects a
// delete of an absent tuple with ErrDeleteAbsent — silently dropping a row
// here (or re-running this pass on a mutated input) would desynchronize the
// refcounts from the set view.
func dedupeDatabase(db *relation.Database, workers int) *relation.Database {
	out := relation.NewDatabase()
	for _, name := range db.Names() {
		out.Add(db.Get(name).DedupedWorkers(workers))
	}
	return out
}
