// Subset derivation of an executable join tree. The pivot loop's filter
// trims (MAX ≺ λ / MIN ≻ λ, and single-node SUM) shrink every relation
// monotonically: each output relation is a pure row-subset of its input.
// DeriveSubset exploits that: instead of re-deduplicating and re-hashing the
// trimmed database through Build+NewExecWorkers, it filters the parent Exec's
// relations — the one place a filter trim's rows are copied — remaps its group
// indexes and compresses its per-edge gid arrays, all integer work
// proportional to the surviving rows. It is the monotone-shrinkage analogue of
// ApplyDelta's copy-on-write derivation for general deltas.
package jointree

import (
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/relation"
)

// DeriveSubset derives the executable tree of a row-subset instance.
// keep[node][i] reports whether row i of node's relation survives; a nil
// keep[node] keeps the node untouched (its relation, group index and — when
// the parent is untouched too — gid array are shared, not copied). q is the
// subset instance's query (it must have the same join structure — typically a
// Clone of e.Q — since the tree is shared) and db becomes the derived Exec's
// DB as given: a caller that goes on to use it puts the derived Rels there
// (trim.subsetOf does), which is what makes them the instance's relations.
//
// Group ids are stable: the derived indexes share the parent's key interner,
// and groups whose tuples all died are retained empty (consumers treat them
// like missing keys). The derived relations hold the surviving rows in their
// old relative order, so a fresh NewExecWorkers over them would build the same
// tree up to that numbering, and answers are unchanged versus the rebuild
// path. The parent Exec is not modified and stays safe for concurrent
// readers.
func (e *Exec) DeriveSubset(q *query.Query, db *relation.Database, keep [][]bool, workers int) *Exec {
	nNodes := len(e.T.Nodes)
	out := &Exec{
		Q:            q,
		T:            e.T,
		DB:           db,
		Rels:         make([]*relation.Relation, nNodes),
		Groups:       make([]*GroupIndex, nNodes),
		keyPosChild:  e.keyPosChild,
		keyPosParent: e.keyPosParent,
		parentGid:    make([][]int32, nNodes),
	}
	// Old→new row index per node (nil = untouched, identity).
	remaps := make([][]int32, nNodes)
	for _, n := range e.T.Nodes {
		id := n.ID
		k := keep[id]
		if k == nil {
			out.Rels[id] = e.Rels[id]
			continue
		}
		rel := e.Rels[id]
		remap := make([]int32, rel.Len())
		next := int32(0)
		for i := range remap {
			if k[i] {
				remap[i] = next
				next++
			} else {
				remap[i] = -1
			}
		}
		remaps[id] = remap
		out.Rels[id] = filterRows(rel, k, int(next))
	}
	// Group indexes: shared interner, remapped tuple lists, compressed
	// RowGid; per-edge gid arrays compressed by the parent's survivors.
	for _, n := range e.T.Nodes {
		id := n.ID
		if n.Parent < 0 {
			continue
		}
		g := e.Groups[id]
		remap := remaps[id]
		if remap == nil {
			out.Groups[id] = g
		} else {
			// Compress RowGid through the remap (gids are stable), then
			// flat-pack the tuple lists from it — no per-group allocation.
			// Dead groups come out empty, which consumers treat like missing
			// keys.
			newLen := out.Rels[id].Len()
			ng := &GroupIndex{
				keys:   g.keys,
				Tuples: make([][]int, len(g.Tuples)),
				RowGid: make([]int32, newLen),
			}
			for oi, ni := range remap {
				if ni >= 0 {
					ng.RowGid[ni] = g.RowGid[oi]
				}
			}
			counts := make([]int32, len(g.Tuples))
			for _, gid := range ng.RowGid {
				counts[gid]++
			}
			flat := make([]int, newLen)
			off := 0
			for gi := range ng.Tuples {
				c := int(counts[gi])
				ng.Tuples[gi] = flat[off : off : off+c]
				off += c
			}
			for ni, gid := range ng.RowGid {
				ng.Tuples[gid] = append(ng.Tuples[gid], ni)
			}
			out.Groups[id] = ng
		}

		old := e.parentGid[id]
		premap := remaps[n.Parent]
		switch {
		case old == nil:
			// Base never materialized this edge; lookups fall back.
		case premap == nil:
			out.parentGid[id] = old // gids stable, parent rows unchanged
		default:
			arr := make([]int32, out.Rels[n.Parent].Len())
			for oi, ni := range premap {
				if ni >= 0 {
					arr[ni] = old[oi]
				}
			}
			out.parentGid[id] = arr
		}
	}
	return out
}

// filterRows returns the rows of rel marked true in keep, in order, copied
// segment-wise.
func filterRows(rel *relation.Relation, keep []bool, kept int) *relation.Relation {
	out := relation.NewWithCapacity(rel.Name(), rel.Arity(), kept)
	n := rel.Len()
	runStart := -1
	for i := 0; i <= n; i++ {
		if i < n && keep[i] {
			if runStart < 0 {
				runStart = i
			}
			continue
		}
		if runStart >= 0 {
			out.AppendRows(rel, runStart, i)
			runStart = -1
		}
	}
	if rel.IsDistinct() {
		out.MarkDistinct()
	}
	return out
}
