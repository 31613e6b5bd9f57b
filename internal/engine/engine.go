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
// New on (appending rows to it is harmless; changing a stored value is not).
//
// Beyond the eager artifacts (normalized query, deduplicated database, join
// tree, executable tree), an Engine lazily builds, once and under a small
// mutex, the counting state of Section 2.4: per-tuple and per-group subtree
// counts and |Q(D)|. Every reader of answers starts from it: the first pivot
// of a quantile, the materialization Algorithm 1 ends with, plain and ranked
// enumeration (cnt(t) > 0 says which tuples carry an answer, so every walk of
// the tree skips the rest) and positional access — the uniform ordinals of
// Section 3.1's sampling, decoded by the count-guided walk.
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

// New compiles a query against a database: validate, deduplicate the input
// relations, normalize, build the join tree and the executable tree over it.
// Everything here is quasilinear in |D| and is paid exactly once per (Q, D)
// pair; the answer count and the other derived structures are built lazily on
// first use and then cached. db0 is read, never written, and stays shared
// with the engine (see the package comment).
func New(src *query.Query, db0 *relation.Database) (*Engine, error) {
	if err := src.Validate(db0); err != nil {
		return nil, err
	}
	q, db := normalize(src, db0)
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
		bagDB, st := d.MaterializeBags(q, db)
		dec, decQ, ddb, decStats = d, q, db, st
		q, db = d.Query(), bagDB
		if tree, err = jointree.Build(q); err != nil {
			return nil, err
		}
	}
	exec, err := jointree.NewExec(q, db, tree)
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
		dec:       dec,
		decQ:      decQ,
		ddb:       ddb,
		decStats:  decStats,
		trimCache: trim.NewCache(),
	}, nil
}

// NewWorkers is New; parallelism is unread. Kept for the bench module, which
// calls it by this name.
func NewWorkers(src *query.Query, db0 *relation.Database, _ int) (*Engine, error) {
	return New(src, db0)
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
		e.counts = yannakakis.Count(e.exec)
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
// positional access) must allocate.
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

// normalize returns the query and database an engine runs on: every input
// relation deduplicated once (relations are sets; everything the trims derive
// from these stays marked distinct, so nothing downstream hashes for
// duplicates again), then the query normalized over them, so self-join
// occurrences share their relation's deduplicated columns and a
// repeated-variable atom's relation is cut from distinct rows.
func normalize(src *query.Query, db0 *relation.Database) (*query.Query, *relation.Database) {
	return query.Normalize(src, dedupeDatabase(db0))
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
func dedupeDatabase(db *relation.Database) *relation.Database {
	out := relation.NewDatabase()
	for _, name := range db.Names() {
		out.Add(db.Get(name).Deduped())
	}
	return out
}
