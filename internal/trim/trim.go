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
//   - LEX (Section 5.2): prefix-equality partitions.
//   - Partial SUM on two adjacent join-tree nodes (Section 5.3, after
//     Tziavelis et al. [22]): dyadic factorization of the staircase join,
//     for a band low ≺ Σ ≺ high in one pass (either bound may be infinite).
//   - Lossy SUM for arbitrary acyclic queries (Section 6, Algorithm 4):
//     sketched message passing embedded back into the database.
//
// All trims take and return an Instance and keep the query acyclic, so they
// can be composed — Algorithm 1 cuts every candidate band out of the original
// instance: with the SUM band trim directly, with two one-sided trims for the
// other families.
package trim

import (
	"fmt"
	"sync"

	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/parallel"
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
	// Workers caps the worker count the trim constructions hand to the
	// parallel runtime; values <= 1 (including the zero value) run the
	// exact sequential code path. Trims propagate it to their outputs, so
	// the driver sets it once on the original instance. Custom ranking
	// Weight functions must be safe for concurrent calls when Workers > 1.
	Workers int
	// Exec is the optional executable tree of (Q, DB), attached by the
	// driver. Pure-filter trims (MAX ≺ λ, MIN ≻ λ, single-node SUM) derive
	// their output's Exec from it by subset filtering — integer work
	// proportional to the surviving rows — so the driver never rebuilds the
	// tree from raw relations for those outputs. Trims that change the query
	// shape (partition identifiers, staircase segments, sketch embeddings)
	// ignore it. Read-only.
	Exec *jointree.Exec
	// Cache amortizes trim preprocessing across pivoting iterations (and, on
	// a prepared plan, across quantile calls). Only the driver's reused
	// original instance carries one, and every SUM band is cut from that
	// instance — a cache is keyed by the identity of (Q, DB, ranking), so it
	// must never be attached to an instance whose data can differ. Trims do
	// not propagate it to their outputs.
	Cache *Cache
}

// Cache holds trim preprocessing keyed by ranking identity (ranking.Key: by
// value for default-weight rankings, so a service that builds a fresh ranking
// per request still hits it). Safe for concurrent use; see Instance.Cache for
// the ownership contract.
type Cache struct {
	mu     sync.Mutex
	sumAdj map[ranking.Key]*sumAdjPrep
}

// NewCache returns an empty trim-preprocessing cache.
func NewCache() *Cache { return &Cache{} }

// cacheMaxEntries bounds the prep cache: distinct rankings on one plan are
// normally a handful, but pointer-keyed custom-weight rankings built per
// call would otherwise accumulate one O(|D|) preparation each. On overflow
// the whole map is dropped — the next call simply rebuilds its prep.
const cacheMaxEntries = 64

// workers resolves the instance's worker count for the parallel runtime.
func (inst Instance) workers() int {
	if inst.Workers <= 1 {
		return 1
	}
	return inst.Workers
}

// Answers of trimmed instances relate to the original query by dropping the
// helper variables trims introduce; helper variables are prefixed so callers
// can identify them.
const helperPrefix = "·"

// freshHelperVar returns an unused helper variable.
func freshHelperVar(q *query.Query, base string) query.Var {
	return query.FreshVar(q, helperPrefix+base)
}

// requireSelfJoinFree guards constructions that assume one relation per atom.
func requireSelfJoinFree(q *query.Query) error {
	if q.HasSelfJoins() {
		return fmt.Errorf("trim: query has self-joins; eliminate them first (query.EliminateSelfJoins)")
	}
	return nil
}

// varCond is a per-variable weight predicate used by the partition-identifier
// construction shared by MIN/MAX and LEX.
type varCond struct {
	v    query.Var
	pred func(w int64) bool
}

// applyPartitions implements the shared mechanics of Algorithm 3: the answer
// space is split into disjoint partitions, each described by a conjunction of
// unary weight predicates; every relation is copied once per partition with
// its conditions applied, a partition-identifier column is appended, and the
// fresh identifier variable is added to every atom so answers never mix
// partitions.
func applyPartitions(inst Instance, f *ranking.Func, partitions [][]varCond) (Instance, error) {
	if err := requireSelfJoinFree(inst.Q); err != nil {
		return Instance{}, err
	}
	q2 := inst.Q.Clone()
	xp := freshHelperVar(q2, "p")
	for i := range q2.Atoms {
		q2.Atoms[i].Vars = append(q2.Atoms[i].Vars, xp)
	}
	db2 := relation.NewDatabase()
	for _, atom := range inst.Q.Atoms {
		src := inst.DB.Get(atom.Rel)
		srcCols := src.Cols()
		// Column positions of each condition variable in this atom (a
		// repeated variable imposes the condition once; columns agree).
		// Per partition, the chunked scans collect surviving row indexes
		// (concatenated in chunk order — exactly the sequential emission
		// order); one column gather then materializes the partition's rows
		// with the identifier column appended.
		var parts []*relation.Relation
		for pi, conds := range partitions {
			var local []varCond
			var cols []int
			for _, c := range conds {
				for j, v := range atom.Vars {
					if v == c.v {
						local = append(local, c)
						cols = append(cols, j)
						break
					}
				}
			}
			pid := relation.Value(pi + 1)
			idxParts := parallel.MapRanges(inst.workers(), src.Len(), func(lo, hi int) []int {
				var rows []int
				for ti := lo; ti < hi; ti++ {
					ok := true
					for k, c := range local {
						if !c.pred(f.W(c.v, srcCols[cols[k]][ti])) {
							ok = false
							break
						}
					}
					if ok {
						rows = append(rows, ti)
					}
				}
				return rows
			})
			total := 0
			for _, p := range idxParts {
				total += len(p)
			}
			rows := make([]int, 0, total)
			for _, p := range idxParts {
				rows = append(rows, p...)
			}
			pids := make([]relation.Value, len(rows))
			for k := range pids {
				pids[k] = pid
			}
			parts = append(parts, src.GatherRowsPlus(atom.Rel, rows, pids))
		}
		// Disjoint partitions never duplicate a (row, pid) pair.
		out := relation.Concat(atom.Rel, src.Arity()+1, src.IsDistinct(), parts)
		db2.Add(out)
	}
	return Instance{Q: q2, DB: db2, Workers: inst.Workers}, nil
}

// filterByVarPred keeps only tuples whose every occurrence of a ranked
// variable satisfies the predicate. Used for the filter side of MIN/MAX.
// When the input instance carries an Exec, the output carries one too,
// derived by subset filtering instead of a rebuild.
func filterByVarPred(inst Instance, f *ranking.Func, pred func(v query.Var, w int64) bool) (Instance, error) {
	if err := requireSelfJoinFree(inst.Q); err != nil {
		return Instance{}, err
	}
	ranked := make(map[query.Var]bool, len(f.Vars))
	for _, v := range f.Vars {
		ranked[v] = true
	}
	db2 := relation.NewDatabase()
	touched := false
	for _, atom := range inst.Q.Atoms {
		src := inst.DB.Get(atom.Rel)
		var cols []int
		var vars []query.Var
		for j, v := range atom.Vars {
			if ranked[v] {
				cols = append(cols, j)
				vars = append(vars, v)
			}
		}
		if len(cols) == 0 {
			db2.Add(src) // relations are read-only; untouched ones are shared
			continue
		}
		touched = true
		srcCols := src.Cols()
		out := src.FilterWorkers(inst.workers(), func(i int) bool {
			for k, c := range cols {
				if !pred(vars[k], f.W(vars[k], srcCols[c][i])) {
					return false
				}
			}
			return true
		})
		db2.Add(out)
	}
	out := Instance{Q: inst.Q.Clone(), DB: db2, Workers: inst.Workers}
	if e := inst.Exec; e != nil && touched {
		// Node-level survivors: a node row dies exactly when its source rows
		// do (the predicate reads only projected values), so the subset
		// derivation reproduces a fresh build on (Q, db2) byte for byte.
		keep := make([][]bool, len(e.T.Nodes))
		for _, n := range e.T.Nodes {
			var cols []int
			var vars []query.Var
			for j, v := range n.Vars {
				if ranked[v] {
					cols = append(cols, j)
					vars = append(vars, v)
				}
			}
			if len(cols) == 0 {
				continue
			}
			rel := e.NodeRelation(n.ID)
			relCols := rel.Cols()
			k := make([]bool, rel.Len())
			parallel.For(inst.workers(), rel.Len(), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					ok := true
					for c, col := range cols {
						if !pred(vars[c], f.W(vars[c], relCols[col][i])) {
							ok = false
							break
						}
					}
					k[i] = ok
				}
			})
			keep[n.ID] = k
		}
		out.Exec = e.DeriveSubset(out.Q, db2, keep, inst.workers())
	} else if e != nil {
		out.Exec = e.DeriveSubset(out.Q, db2, make([][]bool, len(e.T.Nodes)), inst.workers())
	}
	return out, nil
}
