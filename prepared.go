package qjoin

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/quantilejoins/qjoin/internal/anyk"
	"github.com/quantilejoins/qjoin/internal/core"
	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/decomp"
	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/shard"
	"github.com/quantilejoins/qjoin/internal/yannakakis"
)

// Prepared is the compiled, reusable form of a (Query, DB) pair — the only
// plan type. It holds a vector of engines, each the validated query, its
// normal form, one deduplicated database, the join tree, the executable tree
// whose nodes read that database's relations, and its cached counts — the one
// tree and the one counting state every reader of answers uses, sampling
// included. Prepare compiles one engine (acyclic, or a cyclic query's
// hypertree decomposition); PrepareSharded compiles N over a hash partition
// of the join key. Every query runs the paper's pivot loop across the whole
// vector — Algorithm 1 steers by answer counts alone and counts add over
// disjoint partitions, so one engine is simply the base case of N and answers
// are byte-identical at every shard count.
//
// The paper's central point is that this preprocessing is quasilinear while
// the per-query work on top of it is cheap; Prepared makes the split
// explicit. Build one with Prepare and answer any number of quantile,
// selection, sampling, enumeration and counting queries against it — every
// one-shot free function in this package is a thin wrapper that prepares
// and discards a plan.
//
// A plan from PrepareSharded is routed: it knows its partitioning Key, and
// Update rebuilds only the shards a delta's key hashes land in. Four
// single-engine diagnostics — Answer with ModeSample, SampleAnswers,
// BaselineQuantile, RankedEnumerate — answer only on an unrouted plan and
// return an *ArgError on a routed one, at any shard count.
//
// # Concurrency
//
// A Prepared plan is safe for concurrent readers: Quantile, QuantileStats,
// Quantiles, Answer, Median, SelectAt, Count, TopK, Enumerate,
// BaselineQuantile, RankedEnumerate and SampleAnswers may all be called from
// multiple goroutines at once, alongside Update and WarmSketches. The lazily
// built counts are built once under a mutex. Two caveats:
//
//   - Methods taking a *rand.Rand use the caller's generator; do not share
//     one *rand.Rand across goroutines.
//   - A *RankedStream returned by RankedEnumerate is a single cursor and is
//     NOT safe for concurrent use — but any number of independent streams
//     may be created and consumed concurrently.
type Prepared struct {
	q    *Query
	db   *DB            // the compiled-against database; nil on updated plans until DB() materializes it
	sh   *shard.Sharded // the engine vector: routed from PrepareSharded, shard.Single from Prepare
	opts Options

	// Plans derived by Update materialize their database lazily: the base
	// plan's database plus the chain of applied deltas, folded on first
	// DB() call. Queries never need the raw database — they run on the
	// engine — so updates stay O(|delta|). Update reuses an already
	// materialized database as the next base and folds the chain past a
	// fixed length, so neither memory nor DB() cost grows with the number
	// of chained updates. dbMu guards db/baseDB/deltas (a mutex, not a
	// sync.Once, so Update can peek at the materialized state).
	dbMu   sync.Mutex
	baseDB *DB
	deltas []*Delta

	// Sketch state for the approximate tier (see approx.go): per ranking, one
	// summary per engine plus their cached merge, built lazily on first
	// ModeApprox/ModeAuto use — never by Prepare or Update — and carried
	// across Update with the rebuilt engines' parts marked stale. The map is
	// keyed by ranking identity (Ranking.Key), so a summary loaded from a
	// snapshot or carried across Update is found by whatever equal Ranking
	// value callers later pass. skMu guards the map; the entries themselves
	// are immutable.
	skMu     sync.Mutex
	sketches map[ranking.Key]*sketchEntry

	// How this plan refreshed stale summary parts; see SketchRefreshes.
	shifted, recertified, rebuilt atomic.Int64
}

// Prepare compiles a query against a database. The work done here —
// validation, input deduplication, normalization, join-tree construction, the
// executable tree's group indexes and answer counting — is quasilinear in the
// database size and is paid exactly once, no matter how many queries the plan
// later answers. The plan shares the database's columns instead of copying
// them: db is read-only from here on (see DB.AddRelation). Cyclic queries compile too: they
// route through a hypertree decomposition (each bag of atoms is joined into
// one materialized relation, and the acyclic query over the bags answers
// identically), at a one-time materialization cost that QuantileStats
// reports in RunStats.Decomp. Prepare fails on queries that do not match
// the database schema and, with a typed *ArgError, on cyclic queries whose
// decomposition would exceed the width cap.
//
// An optional Options value becomes the plan's defaults: every later query
// that passes no per-call Options runs with it (a per-call Options value
// overrides the defaults wholesale). The compile runs on the calling
// goroutine.
func Prepare(q *Query, db *DB, opts ...Options) (*Prepared, error) {
	o, err := oneOpt(opts)
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(q, db.inner)
	if err != nil {
		return nil, mapCompileErr(err)
	}
	return &Prepared{q: q, db: db, sh: shard.Single(eng), opts: o}, nil
}

// mapCompileErr converts typed compile failures into their public surface:
// a decomposition width-cap failure becomes an *ArgError on the query field,
// so every front end rejects the request as a bad argument (HTTP 400) naming
// the query shape, rather than a server fault.
func mapCompileErr(err error) error {
	var we *decomp.WidthError
	if errors.As(err, &we) {
		return argErrorf("query", "cyclic query %s has no hypertree decomposition of width ≤ %d (%d atoms)",
			we.Shape, we.MaxWidth, we.Atoms)
	}
	return err
}

// opt resolves per-call options against the plan defaults: a per-call
// Options value replaces them wholesale.
func (p *Prepared) opt(opts []Options) (Options, error) {
	if len(opts) == 0 {
		return p.opts, nil
	}
	return oneOpt(opts)
}

// Query returns the query this plan was compiled from.
func (p *Prepared) Query() *Query { return p.q }

// DB returns the database this plan answers over. On a plan derived by
// Update it reflects every applied delta; the mutated database is
// materialized on first call and cached.
func (p *Prepared) DB() *DB {
	p.dbMu.Lock()
	defer p.dbMu.Unlock()
	if p.db == nil {
		p.db = p.materializeDB()
		p.baseDB, p.deltas = nil, nil // chain folded into db; drop it
	}
	return p.db
}

// Vars returns the answer layout: the query's variables in first-appearance
// order.
func (p *Prepared) Vars() []Var { return p.sh.Vars() }

// Count returns the cached |Q(D)|. Unlike the free Count function this
// never fails and costs nothing: the counts were taken at Prepare time, and
// shards hold disjoint slices of the answer set, so their counts add.
func (p *Prepared) Count() *big.Int { return p.sh.Total().Big() }

// oneEngine returns the engine of an unrouted plan, for the diagnostics that
// answer on a single engine; a routed plan rejects them with an *ArgError.
func (p *Prepared) oneEngine(what string) (*engine.Engine, error) {
	if p.sh.Routed() {
		return nil, argErrorf("mode", "%s is not supported on sharded plans", what)
	}
	return p.sh.Engines()[0], nil
}

// Quantile returns the φ-quantile of Q(D) under the ranking function (see
// the free Quantile function for the exactness contract).
//
// Deprecated: equivalent to Answer with QuantileRequest{Phi: phi,
// Mode: ModeExact}, which additionally reports Source and ErrorBound.
func (p *Prepared) Quantile(f *Ranking, phi float64, opts ...Options) (*Answer, error) {
	return p.Answer(f, QuantileRequest{Phi: phi, Mode: ModeExact}, opts...)
}

// QuantileStats is Quantile returning the driver's run statistics.
//
// Deprecated: equivalent to AnswerStats with QuantileRequest{Phi: phi,
// Mode: ModeExact}.
func (p *Prepared) QuantileStats(f *Ranking, phi float64, opts ...Options) (*Answer, *RunStats, error) {
	return p.AnswerStats(f, QuantileRequest{Phi: phi, Mode: ModeExact}, opts...)
}

// Median returns the 0.5-quantile.
func (p *Prepared) Median(f *Ranking, opts ...Options) (*Answer, error) {
	return p.Quantile(f, 0.5, opts...)
}

// Quantiles answers several φ's against this single plan, exactly, in one
// shared descent of the pivot loop: a round's pivot places every requested φ
// at once, so the grid costs O(|D|·log m) trim, derive and count work for m
// φ's plus their m tails — not m runs from the full instance, and none of the
// per-(Q, D) preprocessing, which the plan already holds. out[i] answers
// phis[i], byte for byte what Quantile returns for it; the φ's may come
// unsorted and repeated, and an empty grid gives an empty result. Every φ is
// validated before any work is done: a bad one anywhere in the grid fails the
// call with an *ArgError naming it.
func (p *Prepared) Quantiles(f *Ranking, phis []float64, opts ...Options) ([]*Answer, error) {
	if err := validatePhis(phis); err != nil {
		return nil, err
	}
	if len(phis) == 0 {
		return []*Answer{}, nil
	}
	o, err := p.opt(opts)
	if err != nil {
		return nil, err
	}
	total := p.sh.Total()
	ks := make([]counting.Count, len(phis))
	for i, phi := range phis {
		ks[i] = core.Index(total, phi)
	}
	out, stats, err := core.SelectMany(p.sh.Engines(), f, ks, o)
	if err != nil {
		return nil, fmt.Errorf("qjoin: quantiles: %w", err) // the grid fails as one
	}
	for _, a := range out {
		tagExact(a, stats, o)
	}
	return out, nil
}

// Run executes a resolved wire operation (Request.Resolve) under op.Rank and
// returns its answers in request order; op.Query is not consulted — the plan
// was compiled from it. A count has no φ and so no answers: read Count. An
// exact grid of several φ's is one shared descent (Quantiles); every other φ
// goes through Answer with the operation's mode and ε.
func (p *Prepared) Run(op Operation) ([]*Answer, error) {
	if op.Op == "topk" {
		return p.TopK(op.Rank, op.K)
	}
	if len(op.Phis) > 1 && op.Mode == ModeExact {
		return p.Quantiles(op.Rank, op.Phis)
	}
	out := make([]*Answer, 0, len(op.Phis))
	for _, phi := range op.Phis {
		a, err := p.Answer(op.Rank, QuantileRequest{Phi: phi, Eps: op.Eps, Mode: op.Mode})
		if err != nil {
			return nil, fmt.Errorf("φ=%v: %w", phi, err)
		}
		out = append(out, a)
	}
	return out, nil
}

// SelectAt answers the selection problem: the answer at absolute zero-based
// index k of the global ranked order.
func (p *Prepared) SelectAt(f *Ranking, k *big.Int, opts ...Options) (*Answer, error) {
	if k == nil {
		return nil, argErrorf("k", "nil index")
	}
	kc, ok := counting.FromBig(k)
	if !ok {
		return nil, fmt.Errorf("qjoin: index out of the supported 128-bit range")
	}
	o, err := p.opt(opts)
	if err != nil {
		return nil, err
	}
	a, stats, err := core.Select(p.sh.Engines(), f, kc, o)
	if err != nil {
		return nil, err
	}
	tagExact(a, stats, o)
	return a, nil
}

// SampleAnswers draws k uniform samples from Q(D) (with replacement) using
// rng: uniform ordinals decoded by the count-guided walk (Section 3.1). It
// returns the variable layout and one row per sample. The plan keeps no
// sampling index: every call passes once over the counts of the join tree's
// root, then costs O(ℓ·log |D|) per draw, so draw many samples per call
// rather than one.
func (p *Prepared) SampleAnswers(k int, rng *rand.Rand) ([]Var, [][]Value, error) {
	if k < 0 {
		return nil, nil, argErrorf("k", "%d is negative", k)
	}
	eng, err := p.oneEngine("sampling")
	if err != nil {
		return nil, nil, err
	}
	return core.SampleAnswers(eng, k, rng)
}

// RankedEnumerate starts a ranked enumeration of Q(D) under the ranking
// function over the plan's executable tree, guided by its cached counts. Each
// Next has logarithmic delay. The returned stream is a single cursor (not goroutine-safe), but
// independent streams may run concurrently over the same plan.
func (p *Prepared) RankedEnumerate(f *Ranking) (*RankedStream, error) {
	eng, err := p.oneEngine("ranked enumeration")
	if err != nil {
		return nil, err
	}
	return rankedStreamFor(eng, f)
}

// rankedStreamFor builds a ranked enumeration stream over one engine; the
// TopK merge opens one per engine.
func rankedStreamFor(eng *engine.Engine, f *Ranking) (*RankedStream, error) {
	en, err := anyk.New(eng.Exec(), eng.Counts(), f)
	if err != nil {
		return nil, err
	}
	return &RankedStream{
		en:   en,
		vars: eng.Vars(),
		pos:  eng.Pos(),
		buf:  make([]Value, eng.Width()),
	}, nil
}

// TopK returns the k lowest-weight answers in weight order (fewer if
// |Q(D)| < k): a streaming merge of the per-engine ranked enumerations.
// Among equal weights the merge breaks ties by value, so the output is
// deterministic for a fixed shard count; a one-engine plan may order equal
// weights differently (its single stream has no tie to break).
func (p *Prepared) TopK(f *Ranking, k int) ([]*Answer, error) {
	if err := validateTopK(k); err != nil {
		return nil, err
	}
	type cursor struct {
		a *Answer
		s *RankedStream
	}
	engs := p.sh.Engines()
	heads := make([]cursor, 0, len(engs))
	for _, eng := range engs {
		s, err := rankedStreamFor(eng, f)
		if err != nil {
			return nil, err
		}
		if a, ok := s.Next(); ok {
			heads = append(heads, cursor{a, s})
		}
	}
	// k arrives from the network: it bounds the loop, never an allocation.
	out := make([]*Answer, 0, min(k, 16))
	for len(out) < k && len(heads) > 0 {
		best := 0
		for j := 1; j < len(heads); j++ {
			a, b := heads[j].a, heads[best].a
			if c := f.Compare(a.Weight, b.Weight); c < 0 || (c == 0 && slices.Compare(a.Values, b.Values) < 0) {
				best = j
			}
		}
		out = append(out, heads[best].a)
		if a, ok := heads[best].s.Next(); ok {
			heads[best].a = a
		} else {
			heads = append(heads[:best], heads[best+1:]...)
		}
	}
	return out, nil
}

// Enumerate streams every answer (in no particular order); fn may return
// false to stop. The slice passed to fn must not be retained.
func (p *Prepared) Enumerate(fn func(vars []Var, vals []Value) bool) error {
	vars := p.Vars()
	buf := make([]Value, len(vars))
	more := true
	for _, eng := range p.sh.Engines() {
		if !more {
			break
		}
		yannakakis.Enumerate(eng.Exec(), eng.Counts(), func(asn []Value) bool {
			eng.Project(asn, buf)
			more = fn(vars, buf)
			return more
		})
	}
	return nil
}

// BaselineQuantile materializes Q(D) and selects — the direct method the
// paper improves upon. Time and memory are linear in |Q(D)| per call.
func (p *Prepared) BaselineQuantile(f *Ranking, phi float64) (*Answer, error) {
	if err := validatePhi(phi); err != nil {
		return nil, err
	}
	eng, err := p.oneEngine("the materializing baseline")
	if err != nil {
		return nil, err
	}
	return core.BaselineQuantile(eng, f, phi)
}
