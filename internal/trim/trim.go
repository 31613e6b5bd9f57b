// Package trim implements the trim subroutine of the pivoting framework
// (Definition 3.2, exact; Definition 3.5, lossy): given a join query, a
// database, and an inequality over the ranking function's aggregate, it
// rewrites query and database so that the new instance represents exactly
// (or, for lossy trims, at least a (1-ε) fraction of) the answers satisfying
// the inequality — without materializing them.
//
// Four constructions are provided, one per tractable ranking family:
//
//   - MIN/MAX (Section 5.1, Algorithm 3): partition-identifier construction.
//   - LEX (Section 5.2): prefix-equality partitions. Both are Band: the
//     partitions of the band's two sides as boxes of weight intervals,
//     intersected and cut in one pass. Given the instance's Exec, each box
//     keeps only the rows on an answer of the box (a semijoin reduction of
//     its row lists before anything is gathered), and given a Cache that
//     holds weight orders (Cache.WeightOrders), a narrow box starts from the
//     rows of its narrowest interval and reaches the rest through the join
//     tree instead of scanning every relation: a cut costs the rows it
//     reaches, not |D| per box.
//   - Partial SUM on two adjacent join-tree nodes (Section 5.3, after
//     Tziavelis et al. [22]): dyadic factorization of the staircase join,
//     for a band low ≺ Σ ≺ high in one pass (either bound may be infinite),
//     each A row's admissible range found by a merge over its join group —
//     or, for a group whose extreme sums settle every pair, without one.
//   - Lossy SUM for arbitrary acyclic queries (Section 6, Algorithm 4):
//     sketched message passing embedded back into the database.
//
// All trims take and return an Instance whose query is in normal form
// (query.Normalize: one relation per atom, no variable twice in an atom —
// requireNormalized rejects anything else) and keep it acyclic and in that
// form, so they can be composed — Algorithm 1 cuts every candidate band out of the original
// instance: with one band trim for the exact families, with two one-sided
// trims for the lossy SUM.
package trim

import (
	"fmt"
	"sync"

	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
)

// Dir selects the side of the inequality being trimmed.
type Dir int

// Trim directions: Less keeps answers with weight ≺ λ, Greater keeps weight ≻ λ.
const (
	Less Dir = iota
	Greater
)

// String names the direction.
func (d Dir) String() string {
	if d == Less {
		return "<"
	}
	return ">"
}

// Instance bundles a query with a database. Trims consume and produce
// instances; they never mutate their input.
type Instance struct {
	Q  *query.Query
	DB *relation.Database
	// Workers is unread. Kept for the bench module's probes, which set it.
	Workers int
	// Exec is the optional executable tree of (Q, DB), attached by the
	// driver. Every exact trim scans its relations (rel), not DB's — where the
	// tree deduplicated a relation they are not the same rows — and hands its
	// output the Exec that follows from it by integer work proportional to the
	// output, so the driver rebuilds no tree and no row is copied twice.
	// Pure-filter trims (a MIN / MAX / LEX band of one box — MAX ≺ λ, MIN ≻ λ,
	// one ranked variable — and single-node SUM) test each row once and derive
	// by subset filtering (jointree.DeriveSubset); the output's DB holds the
	// derived relations. Partitioned trims (a band of several boxes, the
	// staircase) know the source row and the identifier of every row they emit
	// and derive from those (jointree.DeriveGathered). The tree must be
	// Build(Q)'s, as every engine's is. A band of several boxes puts its
	// identifier on every atom, which keeps that tree, so it always derives.
	// The staircase puts its own on the ranking's pair, which can change it (a
	// pair the tree does not have adjacent, or one that makes another atom the
	// root); its preparation decides that once (sumAdjPrep.derives), and such
	// an output carries no Exec: the driver builds its tree afresh, as it does
	// for the lossy SUM's sketch embeddings, which never carry one. A band of
	// several boxes also reduces its row lists through this tree before it
	// gathers (jointree.ReduceRows), so it copies only the rows on an answer
	// of their box, and seeds its narrow boxes through it from the Cache's
	// weight orders; without an Exec it copies every row its interval tests
	// pass. Read-only.
	Exec *jointree.Exec
	// Cache amortizes trim preprocessing across pivoting iterations (and, on
	// a prepared plan, across quantile calls). Only the driver's reused
	// original instance carries one, and every SUM band is cut from that
	// instance — a cache is keyed by the identity of (Q, DB, ranking), so it
	// must never be attached to an instance whose data can differ. Trims do
	// not propagate it to their outputs.
	Cache *Cache
	// Scratch, when set, is the storage an exact trim cuts its output into
	// (see Scratch); nil allocates it. Trims do not propagate it either.
	Scratch *Scratch
}

// Scratch is the storage one band is cut into: an arena that every array the
// band is made of is carved from — the row lists a partitioned trim gathers
// through and the group marks it reduces them with, the gathered columns and
// the identifier column, the derived tree's gid arrays and tuple lists — and
// the staircase's emission plan. A band cut into a scratch lives exactly as
// long as the arena's carve: the
// driver keeps one beside each counting slot, and resets it when the slot
// takes its next band. Not safe for concurrent cuts.
type Scratch struct {
	arena relation.Arena
	emit  emitPlan
	// words is the bit set seeded boxes order the rows they reach by; it is
	// all zero between boxes.
	words []uint64
	// tested counts the rows the band's boxes put through their interval
	// tests; seeded, the boxes whose rows came from a weight order.
	tested, seeded int
}

// Reset recycles the band last cut into the scratch: nothing of it may be read
// after.
func (s *Scratch) Reset() {
	if s != nil {
		s.tested, s.seeded = 0, 0
	}
	s.carve().Reset()
}

// Tested returns the number of rows the band last cut into the scratch put
// through a box's interval tests: every row of every relation a box scans,
// and the rows a seeded box reaches from its seed (partitionBoxes).
func (s *Scratch) Tested() int {
	if s == nil {
		return 0
	}
	return s.tested
}

// count adds n tested rows, of a seeded box or a scanned one.
func (s *Scratch) count(n int, seeded bool) {
	if s != nil {
		s.tested += n
		if seeded {
			s.seeded++
		}
	}
}

// carve is the scratch's arena, nil (allocate) for a nil scratch.
func (s *Scratch) carve() *relation.Arena {
	if s == nil {
		return nil
	}
	return &s.arena
}

// emitPlan returns the scratch's emission plan, a fresh one for a nil scratch.
func (s *Scratch) emitPlan() *emitPlan {
	if s == nil {
		return new(emitPlan)
	}
	return &s.emit
}

// Cache holds trim preprocessing keyed by ranking identity (ranking.Key: by
// value for default-weight rankings, so a service that builds a fresh ranking
// per request still hits it), and the weight orders of the instance's tree,
// keyed by variable: they depend on the default weights alone, so every
// ranking over a variable shares its order, and each records the relation or
// group index it was built from, so none is read over another — as each
// inverse of an edge their boxes climb records the edge's parent-gid array
// (see WeightOrders). Beside them sits what the pivot loop remembers about
// its descents under each ranking (Remembered: core's pivot tree, opaque
// here), because that has the cache's owner and the cache's validity: both are
// functions of the exact (Q, DB) and nothing else, an engine derived with a
// changed set view starts with a fresh Cache and so with neither, and one
// derived without (a multiplicity-only delta) carries both. Safe for
// concurrent use; see Instance.Cache for the ownership contract.
type Cache struct {
	mu     sync.Mutex
	sumAdj map[ranking.Key]*sumAdjPrep
	// remembered has a lock of its own: a preparation is built under mu, and
	// a run that only wants its tree must not wait for one.
	remMu      sync.Mutex
	remembered map[ranking.Key]any
	// orders holds the weight orders by variable (WeightOrders), and climbs
	// the inverses of the edges their boxes climb by child node, behind a
	// lock of their own as well.
	ordMu                    sync.Mutex
	orders                   map[query.Var]*weightOrder
	climbs                   map[int]*parentRows
	ordersBuilt, climbsBuilt int
}

// NewCache returns an empty trim-preprocessing cache.
func NewCache() *Cache { return &Cache{} }

// cacheMaxEntries bounds the prep cache and the remembered descents, each on
// its own: distinct rankings on one plan are normally a handful, but
// pointer-keyed custom-weight rankings built per call would otherwise
// accumulate one O(|D|) preparation each. On overflow the whole map is
// dropped — the next call simply rebuilds its prep, or descends afresh.
const cacheMaxEntries = 64

// Remembered returns what the driver keeps under the ranking, after keep has
// seen it: keep(old) runs under the cache's lock with the stored value (nil
// when there is none) and returns the value to store — old itself to leave
// things as they are, nil to store nothing — so it should do no more than look.
func (c *Cache) Remembered(key ranking.Key, keep func(old any) any) any {
	c.remMu.Lock()
	defer c.remMu.Unlock()
	old := c.remembered[key]
	v := keep(old)
	if v != old && v != nil {
		if c.remembered == nil || (old == nil && len(c.remembered) >= cacheMaxEntries) {
			c.remembered = make(map[ranking.Key]any)
		}
		c.remembered[key] = v
	}
	return v
}

// Answers of trimmed instances relate to the original query by dropping the
// helper variables trims introduce; helper variables are prefixed so callers
// can identify them.
const helperPrefix = "·"

// freshHelperVar returns an unused helper variable.
func freshHelperVar(q *query.Query, base string) query.Var {
	return query.FreshVar(q, helperPrefix+base)
}

// requireNormalized guards the precondition every construction here shares:
// one relation per atom, and an atom's columns are distinct variables — a
// repeated variable is an equality between two columns that no trim tests.
func requireNormalized(q *query.Query) error {
	if !q.IsNormalized() {
		return fmt.Errorf("trim: query %s has a self-join or a repeated variable; rewrite it with query.Normalize first", q)
	}
	return nil
}

// rel returns the relation of atom i that a trim scans: the Exec's, when the
// instance carries one, so that row indexes are the tree's.
func (inst Instance) rel(i int) *relation.Relation {
	if inst.Exec != nil {
		return inst.Exec.Rels[i] // node ids are atom indexes (jointree.FromParent)
	}
	return inst.DB.Get(inst.Q.Atoms[i].Rel)
}

// subsetOf returns the instance of the rows a filter trim keeps: keep[i][r]
// says whether row r of inst.rel(i) survives, and a nil keep[i] keeps atom i's
// relation whole, shared with the input. With an Exec the rows are filtered
// once, by the subset derivation, and the output's database holds the derived
// tree's relations.
func subsetOf(inst Instance, keep [][]bool) Instance {
	out := Instance{Q: inst.Q.Clone(), DB: relation.NewDatabase()}
	if inst.Exec != nil {
		out.Exec = inst.Exec.DeriveSubsetIn(out.Q, out.DB, keep, inst.Scratch.carve())
		for _, r := range out.Exec.Rels {
			out.DB.Add(r)
		}
		return out
	}
	for i := range inst.Q.Atoms {
		r := inst.rel(i)
		if k := keep[i]; k != nil {
			r = r.Filter(func(row int) bool { return k[row] })
		}
		out.DB.Add(r)
	}
	return out
}
