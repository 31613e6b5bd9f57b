package engine

import (
	"fmt"

	"github.com/quantilejoins/qjoin/internal/decomp"
	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/parallel"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/trim"
	"github.com/quantilejoins/qjoin/internal/yannakakis"
)

// Restore reassembles an Engine from snapshot-decoded parts, skipping every
// pass NewWorkers would run: no validation, no dedup hashing, no
// normalization, no group-index build, no counting. The caller supplies
//
//   - src: the original query as the user wrote it,
//   - q:   its normal form (src itself when nothing needed rewriting) —
//     decoded, not re-derived, so the rewritten relation names match the
//     decoded database exactly,
//   - db0: the raw input database the engine was built over. Multiset
//     refcounts are not serialized; they are rebuilt lazily from db0 on the
//     first Update, which is exact because the set view plus raw
//     multiplicities fully determine them,
//   - db:  the deduplicated, normalized database,
//   - exec/counts: the executable tree and its counting state.
//
// The cheap derived fields (origVars, answer-layout positions, tree order)
// are recomputed — they are pure functions of the queries. The lazy
// structures (direct access, trim cache) start empty, as on a fresh engine.
//
// Cyclic sources are detected (their decoded q is the acyclic bag rewrite,
// not src's own shape) and the hypertree decomposition is recomputed — it is
// a pure function of the query shape, so it must reproduce the decoded bag
// query exactly; a mismatch fails the restore. The deduplicated source
// database and the materialization stats are not serialized: the first
// Update rebuilds the former from db0, and DecompStats re-derives bag sizes
// from the restored bag relations.
//
// Correctness otherwise rests on the parts being mutually consistent —
// produced by one engine's snapshot at one generation. Restore trusts its
// caller on that; the snapshot layer's checksums and structural validation
// are the gate.
func Restore(src, q *query.Query, db0, db *relation.Database, tree *jointree.Tree, exec *jointree.Exec, counts *yannakakis.Counts, parallelism int) (*Engine, error) {
	origVars := src.Vars()
	idx := q.VarIndex()
	pos := make([]int, len(origVars))
	for i, v := range origVars {
		pos[i] = idx[v]
	}
	e := &Engine{
		src:       src,
		origVars:  origVars,
		q:         q,
		db:        db,
		db0:       db0,
		tree:      tree,
		exec:      exec,
		pos:       pos,
		workers:   parallel.Workers(parallelism),
		trimCache: trim.NewCache(),
	}
	// Acyclicity only depends on the variable structure, so self-joins
	// need no renaming for this check.
	if _, err := jointree.Build(src); err != nil {
		q1, _ := query.Normalize(src, db0)
		d, derr := decomp.Decompose(q1, decomp.MaxDecompWidth)
		if derr != nil {
			return nil, fmt.Errorf("qjoin: snapshot restore: cyclic source no longer decomposes: %w", derr)
		}
		if !sameQueryShape(d.Query(), q) {
			return nil, fmt.Errorf("qjoin: snapshot restore: recomputed bag query %s does not match encoded %s", d.Query(), q)
		}
		e.dec = d
		e.decQ = q1
	}
	e.counts = counts
	return e, nil
}

// sameQueryShape reports whether two queries have identical atoms.
func sameQueryShape(a, b *query.Query) bool {
	if len(a.Atoms) != len(b.Atoms) {
		return false
	}
	for i, atom := range a.Atoms {
		other := b.Atoms[i]
		if atom.Rel != other.Rel || len(atom.Vars) != len(other.Vars) {
			return false
		}
		for j, v := range atom.Vars {
			if v != other.Vars[j] {
				return false
			}
		}
	}
	return true
}
