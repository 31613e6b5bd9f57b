package qjoin

import (
	"fmt"
	"math/big"
	"math/rand"

	"github.com/quantilejoins/qjoin/internal/anyk"
	"github.com/quantilejoins/qjoin/internal/core"
	"github.com/quantilejoins/qjoin/internal/hypergraph"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
)

// Value is a database constant.
type Value = relation.Value

// Var is a query variable.
type Var = query.Var

// Atom is one relational atom of a join query.
type Atom = query.Atom

// Query is a join query (a conjunction of atoms over shared variables).
type Query = query.Query

// Ranking is a ranking function (w, ⪯): an aggregate over per-variable
// weights. Construct with Sum, Min, Max or Lex; set the Weight field to
// override the default identity weights.
type Ranking = ranking.Func

// Weight is a value of a ranking's weight domain.
type Weight = ranking.Weightv

// Answer is a query answer together with its weight.
type Answer = core.Answer

// Options tunes the quantile driver; the zero value requests exact
// computation with default thresholds.
type Options = core.Options

// RunStats reports what a driver run did.
type RunStats = core.RunStats

// PhaseLog is the per-iteration phase-timing log collected when
// Options.CollectPhases is set.
type PhaseLog = core.PhaseLog

// PhaseTimings is one iteration's wall-clock breakdown (pivot / trim /
// derive / count).
type PhaseTimings = core.PhaseTimings

// SumClassification is the dichotomy verdict of Theorem 5.6.
type SumClassification = core.SumClassification

// EpsilonBudget selects the error-splitting strategy for approximate SUM.
type EpsilonBudget = core.EpsilonBudget

// Budget strategies for approximate SUM quantiles.
const (
	BudgetGeometric = core.BudgetGeometric
	BudgetPaper     = core.BudgetPaper
)

// Driver errors.
var (
	ErrNoAnswers = core.ErrNoAnswers
	// ErrCyclic survives for compatibility: since the hypertree
	// decomposition subsystem, plain cyclic queries compile and answer
	// exactly (see Prepare), so drivers no longer return it; only
	// errors.Is checks against historical snapshots rely on it.
	ErrCyclic      = core.ErrCyclic
	ErrIntractable = core.ErrIntractable
)

// Ranking constructors.
var (
	// Sum ranks answers by the sum of the listed variables' weights.
	Sum = ranking.NewSum
	// Min ranks answers by the minimum weight among the listed variables.
	Min = ranking.NewMin
	// Max ranks answers by the maximum weight among the listed variables.
	Max = ranking.NewMax
	// Lex ranks answers lexicographically, most significant variable first.
	Lex = ranking.NewLex
)

// NewQuery builds a join query from atoms.
func NewQuery(atoms ...Atom) *Query { return query.New(atoms...) }

// NewAtom builds an atom R(vars...).
func NewAtom(rel string, vars ...Var) Atom { return Atom{Rel: rel, Vars: vars} }

// DB is an in-memory database: a named collection of relations.
type DB struct {
	inner *relation.Database
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{inner: relation.NewDatabase()} }

// Add inserts a relation with the given rows, which are copied. Every row
// must have the declared arity. Adding a name twice replaces the previous
// relation. A database is read-only once a plan has been prepared over it
// (see AddRelation); Apply derives a changed one.
func (d *DB) Add(name string, arity int, rows [][]Value) error {
	for i, r := range rows {
		if len(r) != arity {
			return fmt.Errorf("qjoin: relation %s row %d has %d values, want %d", name, i, len(r), arity)
		}
	}
	d.inner.Add(relation.FromRows(name, arity, rows))
	return nil
}

// MustAdd is Add, panicking on error. Convenient in examples and tests.
func (d *DB) MustAdd(name string, arity int, rows [][]Value) *DB {
	if err := d.Add(name, arity, rows); err != nil {
		panic(err)
	}
	return d
}

// AddRelation inserts an already-built relation (used by generators). The
// relation is shared, not copied, and Prepare shares it on: a plan's engine
// reads a duplicate-free relation's columns in place. Treat it as read-only
// from here on. Rows appended later never show through a plan already
// prepared (unless the relation was handed over marked distinct: the engine
// then holds the relation itself); a value overwritten in place would.
func (d *DB) AddRelation(r *relation.Relation) { d.inner.Add(r) }

// Size returns the total number of tuples, the paper's n = |D|.
func (d *DB) Size() int { return d.inner.Size() }

// Relations returns the relation names in insertion order.
func (d *DB) Relations() []string { return d.inner.Names() }

// Unwrap exposes the underlying database to the internal packages (used by
// the benchmark harness; not part of the stable API).
func (d *DB) Unwrap() *relation.Database { return d.inner }

// WrapDB adapts an internal database (from the workload generators).
func WrapDB(inner *relation.Database) *DB { return &DB{inner: inner} }

// IsAcyclic reports α-acyclicity of the query's hypergraph. Acyclic queries
// run the quasilinear pipeline directly; cyclic ones route through a
// hypertree decomposition (see the Prepare docs) — answered exactly, but
// with a bag-materialization cost that quasilinear preprocessing cannot
// avoid (deciding cyclic non-emptiness in quasilinear time would contradict
// the Hyperclique hypothesis). PrepareSharded rejects cyclic queries with
// ErrCyclicSharded.
func IsAcyclic(q *Query) bool {
	h, _ := hypergraph.FromQuery(q)
	return h.IsAcyclic()
}

// Count returns |Q(D)| in linear time (Section 2.4).
func Count(q *Query, db *DB) (*big.Int, error) {
	p, err := Prepare(q, db)
	if err != nil {
		return nil, err
	}
	return p.Count(), nil
}

// Quantile returns the φ-quantile of Q(D) under the ranking function.
// With a zero Options value the computation is exact and fails with
// ErrIntractable on the negative side of the SUM dichotomy; set
// Options.Epsilon for the deterministic approximation.
//
// Quantile prepares a plan and discards it. When several quantiles — or any
// mix of queries — run over the same (Q, D) pair, Prepare once and query
// the Prepared plan instead.
func Quantile(q *Query, db *DB, f *Ranking, phi float64, opts ...Options) (*Answer, error) {
	a, _, err := QuantileStats(q, db, f, phi, opts...)
	return a, err
}

// QuantileStats is Quantile returning the driver's run statistics.
func QuantileStats(q *Query, db *DB, f *Ranking, phi float64, opts ...Options) (*Answer, *RunStats, error) {
	p, err := Prepare(q, db, opts...)
	if err != nil {
		return nil, nil, err
	}
	return p.QuantileStats(f, phi, opts...)
}

// Median returns the 0.5-quantile.
func Median(q *Query, db *DB, f *Ranking, opts ...Options) (*Answer, error) {
	return Quantile(q, db, f, 0.5, opts...)
}

// SelectAt answers the selection problem: the answer at absolute zero-based
// index k of the ranked order.
func SelectAt(q *Query, db *DB, f *Ranking, k *big.Int, opts ...Options) (*Answer, error) {
	p, err := Prepare(q, db)
	if err != nil {
		return nil, err
	}
	return p.SelectAt(f, k, opts...)
}

// ApproxQuantile returns a deterministic (φ±ε)-quantile (Theorem 6.2). It
// works for every acyclic query under SUM, including the exactly-intractable
// ones.
func ApproxQuantile(q *Query, db *DB, f *Ranking, phi, eps float64, opts ...Options) (*Answer, error) {
	o := oneOpt(opts)
	o.Epsilon = eps
	p, err := Prepare(q, db, o)
	if err != nil {
		return nil, err
	}
	return p.ApproxQuantile(f, phi, eps, o)
}

// SampleQuantile returns a randomized (φ±ε)-quantile with success
// probability at least 1-δ, by uniform answer sampling (Section 3.1):
// uniform ordinals decoded by the count-guided walk. It is Answer with
// ModeSample.
func SampleQuantile(q *Query, db *DB, f *Ranking, phi, eps, delta float64, rng *rand.Rand) (*Answer, error) {
	p, err := Prepare(q, db)
	if err != nil {
		return nil, err
	}
	return p.Answer(f, QuantileRequest{Phi: phi, Eps: eps, Delta: delta, Mode: ModeSample, Rand: rng})
}

// Quantiles computes several quantiles in one call. The (Q, D) pair is
// prepared once and the φ's share one descent of the pivot loop against that
// plan (see Prepared.Quantiles): O(|D|·log m) loop work for m φ's plus their m
// tails, each answer the one Quantile returns for its φ.
func Quantiles(q *Query, db *DB, f *Ranking, phis []float64, opts ...Options) ([]*Answer, error) {
	p, err := Prepare(q, db)
	if err != nil {
		return nil, err
	}
	return p.Quantiles(f, phis, opts...)
}

// SampleAnswers draws k uniform samples from Q(D) (with replacement):
// uniform ordinals decoded by the count-guided walk (Section 3.1). It
// returns the variable layout and one row per sample.
func SampleAnswers(q *Query, db *DB, k int, rng *rand.Rand) ([]Var, [][]Value, error) {
	p, err := Prepare(q, db)
	if err != nil {
		return nil, nil, err
	}
	return p.SampleAnswers(k, rng)
}

// RankedStream enumerates answers in non-decreasing weight order (any-k
// ranked enumeration, the companion problem of the paper's references
// [15, 23]).
type RankedStream struct {
	en   *anyk.Enumerator
	vars []Var
	pos  []int
	buf  []Value
}

// RankedEnumerate prepares a ranked enumeration of Q(D) under the ranking
// function. Preprocessing is linear; each Next has logarithmic delay.
func RankedEnumerate(q *Query, db *DB, f *Ranking) (*RankedStream, error) {
	p, err := Prepare(q, db)
	if err != nil {
		return nil, err
	}
	return p.RankedEnumerate(f)
}

// Next returns the next answer in weight order, or (nil, false) when
// exhausted.
func (s *RankedStream) Next() (*Answer, bool) {
	w, err := s.en.Next(s.buf)
	if err != nil {
		return nil, false
	}
	vals := make([]Value, len(s.vars))
	for i, p := range s.pos {
		vals[i] = s.buf[p]
	}
	return &Answer{Vars: s.vars, Values: vals, Weight: w}, true
}

// TopK returns the k lowest-weight answers in order (fewer if |Q(D)| < k).
func TopK(q *Query, db *DB, f *Ranking, k int) ([]*Answer, error) {
	p, err := Prepare(q, db)
	if err != nil {
		return nil, err
	}
	return p.TopK(f, k)
}

// BaselineQuantile materializes Q(D) and selects — the direct method the
// paper improves upon. Time and memory are linear in |Q(D)|.
func BaselineQuantile(q *Query, db *DB, f *Ranking, phi float64) (*Answer, error) {
	p, err := Prepare(q, db)
	if err != nil {
		return nil, err
	}
	return p.BaselineQuantile(f, phi)
}

// Enumerate streams every answer (in no particular order); fn may return
// false to stop. The slice passed to fn must not be retained.
func Enumerate(q *Query, db *DB, fn func(vars []Var, vals []Value) bool) error {
	p, err := Prepare(q, db)
	if err != nil {
		return err
	}
	return p.Enumerate(fn)
}

// ClassifySum evaluates the partial-SUM dichotomy (Theorem 5.6).
func ClassifySum(q *Query, uw ...Var) SumClassification {
	return core.ClassifySum(q, uw)
}

// ClassifyRanking reports whether the exact algorithms apply to (q, f), with
// a one-line reason referencing the paper.
func ClassifyRanking(q *Query, f *Ranking) (tractable bool, why string) {
	return core.ClassifyRanking(q, f)
}

func oneOpt(opts []Options) Options {
	if len(opts) == 0 {
		return Options{}
	}
	if len(opts) > 1 {
		panic("qjoin: pass at most one Options value")
	}
	return opts[0]
}
