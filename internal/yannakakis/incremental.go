package yannakakis

import (
	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/parallel"
)

// UpdateCounts derives the counting state of a mutated executable tree from
// the previous state without a full counting pass. Per touched node it
// remaps the per-tuple counts through the node's index remap, recomputes
// counts only for appended tuples and for tuples whose key hits a join group
// whose subtree sum changed, and folds the per-group sum adjustments upward
// — so work propagates only along root-to-leaf paths whose group sums
// actually changed, while untouched nodes keep sharing the old arrays.
//
// e must be the derived Exec the changes describe (children's group sums are
// consumed through it), and old the counting state of the Exec the delta was
// applied to. The result equals CountWorkers(e, ·) exactly: per-tuple
// counts, per-group sums (over e's group-id layout) and the total.
func UpdateCounts(old *Counts, e *jointree.Exec, changes []jointree.NodeChange, workers int) *Counts {
	nc := make(map[int]*jointree.NodeChange, len(changes))
	for i := range changes {
		nc[changes[i].Node] = &changes[i]
	}
	out := &Counts{
		Tuple: append([][]counting.Count(nil), old.Tuple...),
		Group: append([][]counting.Count(nil), old.Group...),
		Total: old.Total,
	}
	// dirty[node] masks NEW tuple indexes whose count must be recomputed.
	dirty := make(map[int][]bool)
	totSub, totAdd := counting.Zero, counting.Zero
	rootTouched := false

	for _, id := range e.T.BottomUp {
		n := e.T.Nodes[id]
		ch := nc[id]
		mask := dirty[id]
		if ch == nil && mask == nil {
			continue
		}
		rel := e.Rels[id]
		newLen := rel.Len()
		oldT := out.Tuple[id]
		var newT []counting.Count
		if ch != nil && ch.Remap != nil {
			newT = make([]counting.Count, newLen)
			for oi, ni := range ch.Remap {
				if ni >= 0 {
					newT[ni] = oldT[oi]
				}
			}
		} else {
			newT = make([]counting.Count, newLen)
			copy(newT, oldT)
		}
		if ch != nil && len(ch.AddedIdx) > 0 {
			if mask == nil {
				mask = make([]bool, newLen)
			}
			for _, ni := range ch.AddedIdx {
				mask[ni] = true
			}
		}

		// Group-sum adjustments toward the parent, keyed by group id (group
		// ids are the interned key ids, stable across derivations). Sub
		// aggregates old contributions leaving the sum, Add new ones entering
		// it; both are sums of disjoint per-tuple counts that were (resp.
		// become) part of the group sum, so the final oldSum−Sub+Add never
		// underflows.
		type acc struct {
			sub, add counting.Count
		}
		var accs map[int]*acc
		isRoot := n.Parent < 0
		if !isRoot {
			accs = make(map[int]*acc)
		}
		contribute := func(gid int, oldV, newV counting.Count) {
			if oldV.Cmp(newV) == 0 {
				return
			}
			if isRoot {
				totSub = totSub.Add(oldV)
				totAdd = totAdd.Add(newV)
				return
			}
			a := accs[gid]
			if a == nil {
				a = &acc{}
				accs[gid] = a
			}
			a.sub = a.sub.Add(oldV)
			a.add = a.add.Add(newV)
		}
		if isRoot {
			rootTouched = true
		}

		rowGid := []int32(nil)
		if !isRoot {
			rowGid = e.Groups[id].RowGid
		}
		// Removed tuples leave their old counts' contribution behind.
		if ch != nil {
			for j, oi := range ch.RemovedIdx {
				oldV := oldT[oi]
				if oldV.IsZero() {
					continue
				}
				if isRoot {
					totSub = totSub.Add(oldV)
					continue
				}
				contribute(int(ch.RemovedGids[j]), oldV, counting.Zero)
			}
		}
		// Recompute appended and dirty tuples against the children's
		// already-updated group sums (children precede parents bottom-up).
		if mask != nil {
			for i := 0; i < newLen; i++ {
				if !mask[i] {
					continue
				}
				oldV := newT[i]
				v := counting.One
				dead := false
				for _, c := range n.Children {
					gid, ok := e.ParentGroup(c, i)
					if !ok || out.Group[c][gid].IsZero() {
						dead = true
						break
					}
					v = v.Mul(out.Group[c][gid])
				}
				if dead {
					v = counting.Zero
				}
				newT[i] = v
				if isRoot {
					if oldV.Cmp(v) != 0 {
						totSub = totSub.Add(oldV)
						totAdd = totAdd.Add(v)
					}
					continue
				}
				contribute(int(rowGid[i]), oldV, v)
			}
		}
		out.Tuple[id] = newT

		if isRoot {
			continue
		}
		// Rewrite the group sums (extended for groups created by the delta)
		// and propagate: parent tuples whose gid hits a changed sum go dirty.
		oldG := out.Group[id]
		ng := e.Groups[id].NumGroups()
		newG := make([]counting.Count, ng)
		copy(newG, oldG)
		changedGids := make([]bool, ng)
		anyChanged := false
		for gid, a := range accs {
			oldSum := newG[gid]
			newSum := oldSum.Sub(a.sub).Add(a.add)
			if newSum.Cmp(oldSum) != 0 {
				newG[gid] = newSum
				changedGids[gid] = true
				anyChanged = true
			}
		}
		out.Group[id] = newG
		if !anyChanged {
			continue
		}
		parent := n.Parent
		prel := e.Rels[parent]
		pmask := dirty[parent]
		if pmask == nil {
			pmask = make([]bool, prel.Len())
			dirty[parent] = pmask
		}
		parallel.For(workers, prel.Len(), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if gid, ok := e.ParentGroup(id, i); ok && changedGids[gid] {
					pmask[i] = true
				}
			}
		})
	}
	if rootTouched {
		out.Total = old.Total.Sub(totSub).Add(totAdd)
	}
	return out
}
