// Incremental maintenance of an executable join tree. ApplyDelta derives a
// new Exec from an existing one plus set-level relation changes, rewriting
// each changed relation once — the database and the nodes that read it take
// the same new relation: survivors keep their relative order and insertions
// append, so the derived relations are byte-identical to the ones a fresh
// deduplication of the mutated input would produce. Group indexes are maintained in place of a rebuild —
// tuple lists are remapped (deletions) or extended (insertions), group ids
// are stable, and groups emptied by deletions are retained (consumers treat
// them exactly like missing keys). The derived Exec shares every untouched
// structure with its base; neither Exec is ever mutated after construction,
// so base and derivation stay safe for concurrent readers.
package jointree

import (
	"fmt"

	"github.com/quantilejoins/qjoin/internal/relation"
)

// RelDelta is the net, set-level change to one deduplicated relation:
// rows leaving the set and rows entering it. Entering rows are in canonical
// append order — the order a fresh deduplication of the mutated raw input
// would first encounter them.
type RelDelta struct {
	RemovedRows [][]relation.Value // rows leaving the set
	AddedRows   [][]relation.Value // rows entering the set, in append order
}

// Empty reports whether the delta changes nothing at the set level.
func (d RelDelta) Empty() bool { return len(d.RemovedRows) == 0 && len(d.AddedRows) == 0 }

// NodeChange records how ApplyDelta transformed one node's relation — the
// exact inputs the delta-counting pass needs.
type NodeChange struct {
	// Node is the join-tree node id.
	Node int
	// Remap maps old tuple indexes to new ones, -1 for removed rows; nil
	// when the change was append-only and old indexes are unchanged.
	Remap []int
	// RemovedIdx are the old indexes of the tuples that left the node
	// relation, ascending; RemovedGids their join groups in the node's index
	// (group ids are stable across the derivation), nil for the root.
	RemovedIdx  []int
	RemovedGids []int32
	// AddedIdx are the new indexes of the appended tuples, ascending.
	AddedIdx []int
	// OldLen and NewLen are the node relation sizes before and after.
	OldLen, NewLen int
}

// ApplyDelta derives an executable tree reflecting the given per-relation
// set deltas (keyed by relation name in e.DB). The base Exec — which must not
// be a reduced one: its nodes read e.DB's relations — is not modified. It
// returns the derived Exec and one NodeChange per touched node, in tree-node
// order.
func (e *Exec) ApplyDelta(deltas map[string]RelDelta, workers int) (*Exec, []NodeChange, error) {
	_ = workers // per-node delta work is O(|relation|) scans at worst; chunking buys nothing on small deltas
	newDB := e.DB.View()
	// Per touched relation, one key scan locates the removed rows; the nodes
	// reading the relation reuse the indexes, so no further hashing of the
	// full relation happens anywhere on the update path.
	removedIdx := make(map[string][]int, len(deltas))
	for _, name := range e.DB.Names() {
		if d, ok := deltas[name]; ok && !d.Empty() {
			rel, idx := d.ApplyTo(e.DB.Get(name))
			newDB.Add(rel)
			removedIdx[name] = idx
		}
	}
	out := &Exec{
		Q:            e.Q,
		T:            e.T,
		DB:           newDB,
		Rels:         append([]*relation.Relation(nil), e.Rels...),
		Groups:       append([]*GroupIndex(nil), e.Groups...),
		keyPosChild:  e.keyPosChild,
		keyPosParent: e.keyPosParent,
		parentGid:    append([][]int32(nil), e.parentGid...),
	}
	var changes []NodeChange
	for _, n := range e.T.Nodes {
		name := e.Q.Atoms[n.Atom].Rel
		d, ok := deltas[name]
		if !ok || d.Empty() {
			continue
		}
		if e.DB.Get(name) == nil {
			return nil, nil, fmt.Errorf("jointree: delta for unknown relation %q", name)
		}
		changes = append(changes, out.applyNodeDelta(n, newDB.Get(name), len(d.AddedRows), removedIdx[name]))
	}
	out.refreshParentGids(e, changes)
	return out, changes, nil
}

// refreshParentGids maintains the per-edge parent-row→group-id arrays of a
// derived Exec: edges whose parent relation or child index did not change
// keep sharing the base array; for touched edges, surviving parent rows keep
// their (stable) gids through the remap, appended parent rows resolve
// against the derived child index, and — when the delta created new join
// groups — previously groupless rows are re-probed, since their key may now
// exist.
func (x *Exec) refreshParentGids(base *Exec, changes []NodeChange) {
	byNode := make(map[int]*NodeChange, len(changes))
	for i := range changes {
		byNode[changes[i].Node] = &changes[i]
	}
	for _, n := range x.T.Nodes {
		if n.Parent < 0 {
			continue
		}
		pch, cch := byNode[n.Parent], byNode[n.ID]
		if pch == nil && cch == nil {
			continue
		}
		old := x.parentGid[n.ID]
		newGroups := cch != nil &&
			x.Groups[n.ID].NumGroups() > base.Groups[n.ID].NumGroups()
		if pch == nil && !newGroups {
			continue // child only lost tuples; gids and array are unchanged
		}
		prel := x.Rels[n.Parent]
		arr := make([]int32, prel.Len())
		if pch != nil && pch.Remap != nil {
			for oi, ni := range pch.Remap {
				if ni >= 0 {
					arr[ni] = old[oi]
				}
			}
		} else {
			copy(arr, old)
		}
		keys := x.Groups[n.ID].keys
		pos := x.keyPosParent[n.ID]
		pcols := prel.Cols()
		var buf [maxKeyWidth]relation.Value
		resolve := func(i int) int32 {
			key := relation.GatherAt(buf[:0], pcols, pos, i)
			if id, ok := keys.Lookup(key); ok {
				return int32(id)
			}
			return -1
		}
		if pch != nil {
			for _, ni := range pch.AddedIdx {
				arr[ni] = resolve(ni)
			}
		}
		if newGroups {
			for i := range arr {
				if arr[i] < 0 {
					arr[i] = resolve(i)
				}
			}
		}
		x.parentGid[n.ID] = arr
	}
}

// locateRows returns the ascending indexes of r's rows equal to one of rows —
// the one full key scan each touched relation pays per update.
func locateRows(r *relation.Relation, rows [][]relation.Value) []int {
	var enc relation.KeyEncoder
	removed := make(map[string]struct{}, len(rows))
	for _, row := range rows {
		removed[string(enc.Row(row))] = struct{}{}
	}
	var idx []int
	cols := r.Cols()
	n := r.Len()
	for i := 0; i < n; i++ {
		if _, dead := removed[string(enc.RowAt(cols, i))]; dead {
			idx = append(idx, i)
		}
	}
	return idx
}

// ApplyTo rewrites one deduplicated relation: removed rows are dropped with
// survivor order preserved (segment-wise bulk copy), added rows append. The
// result is exactly what deduplicating the mutated raw relation would
// produce; r is not modified. Also returned: the ascending indexes, in r, of
// the rows removed.
func (d RelDelta) ApplyTo(r *relation.Relation) (*relation.Relation, []int) {
	var out *relation.Relation
	var removedIdx []int
	if len(d.RemovedRows) > 0 {
		removedIdx = locateRows(r, d.RemovedRows)
	}
	if len(removedIdx) > 0 {
		out = r.WithoutRows(removedIdx, len(d.AddedRows))
	} else {
		out = r.CloneCap(len(d.AddedRows))
	}
	for _, row := range d.AddedRows {
		out.AppendRow(row)
	}
	return out.MarkDistinct(), removedIdx
}

// remapFrom builds the old→new index map implied by removing the sorted
// indexes — plain arithmetic, no hashing.
func remapFrom(oldLen int, sortedIdx []int) []int {
	remap := make([]int, oldLen)
	next, j := 0, 0
	for i := 0; i < oldLen; i++ {
		if j < len(sortedIdx) && sortedIdx[j] == i {
			remap[i] = -1
			j++
			continue
		}
		remap[i] = next
		next++
	}
	return remap
}

// applyNodeDelta hands one node of the derived Exec its rewritten relation —
// the old one minus the rows at removedIdx, plus added appended rows — and
// derives its group index.
func (x *Exec) applyNodeDelta(n *Node, newRel *relation.Relation, added int, removedIdx []int) NodeChange {
	old := x.Rels[n.ID]
	ch := NodeChange{Node: n.ID, RemovedIdx: removedIdx, OldLen: old.Len(), NewLen: newRel.Len()}
	if len(removedIdx) > 0 {
		if n.Parent >= 0 {
			ch.RemovedGids = make([]int32, len(removedIdx))
			for j, i := range removedIdx {
				ch.RemovedGids[j] = x.Groups[n.ID].RowGid[i]
			}
		}
		ch.Remap = remapFrom(ch.OldLen, removedIdx)
	}
	for i := ch.NewLen - added; i < ch.NewLen; i++ {
		ch.AddedIdx = append(ch.AddedIdx, i)
	}
	x.Rels[n.ID] = newRel
	if n.Parent >= 0 {
		x.Groups[n.ID] = x.Groups[n.ID].derive(ch.Remap, newRel, ch.AddedIdx, x.keyPosChild[n.ID])
	}
	return ch
}

// derive returns a group index over the rewritten relation: tuple lists are
// remapped (deletions) or copy-on-write extended (insertions), keeping every
// list in ascending tuple order. The base key interner is shared through an
// overlay derivation; groups first seen here extend it with the next dense
// ids, and flatten folds the overlay into a fresh root once it outgrows
// sparseness.
func (g *GroupIndex) derive(remap []int, rel *relation.Relation, addedIdx []int, pos []int) *GroupIndex {
	out := &GroupIndex{keys: g.keys.Derive(), RowGid: make([]int32, rel.Len())}
	if remap != nil {
		out.Tuples = make([][]int, len(g.Tuples))
		for gid, list := range g.Tuples {
			var nl []int
			for _, ti := range list {
				if ni := remap[ti]; ni >= 0 {
					nl = append(nl, ni)
					out.RowGid[ni] = int32(gid)
				}
			}
			out.Tuples[gid] = nl
		}
	} else {
		out.Tuples = append([][]int(nil), g.Tuples...)
		copy(out.RowGid, g.RowGid)
	}
	// fresh marks inner lists owned by this derivation (safe to append to);
	// on the remap path every list is fresh already.
	var fresh map[int]bool
	if remap == nil {
		fresh = make(map[int]bool, len(addedIdx))
	}
	relCols := rel.Cols()
	var buf [maxKeyWidth]relation.Value
	for _, ni := range addedIdx {
		key := relation.GatherAt(buf[:0], relCols, pos, ni)
		id, isNew := out.keys.Intern(key)
		gid := int(id)
		switch {
		case isNew:
			out.Tuples = append(out.Tuples, []int{ni})
			if fresh != nil {
				fresh[gid] = true
			}
		case fresh != nil && !fresh[gid]:
			// The inner list is shared with the base index: copy-on-append.
			list := out.Tuples[gid]
			nl := make([]int, len(list), len(list)+1)
			copy(nl, list)
			out.Tuples[gid] = append(nl, ni)
			fresh[gid] = true
		default:
			out.Tuples[gid] = append(out.Tuples[gid], ni)
		}
		out.RowGid[ni] = int32(id)
	}
	out.flatten()
	return out
}

// flatten folds a grown interner overlay into a fresh root so that chains of
// derivations keep both the two-probe lookup bound and the O(|delta|)
// derivation cost.
func (g *GroupIndex) flatten() {
	own := g.keys.OverlayLen()
	if own <= (g.keys.Len()-own)/4+16 {
		return
	}
	g.keys = g.keys.Flatten()
}
