package testutil

import (
	"slices"
	"testing"

	"github.com/quantilejoins/qjoin/internal/jointree"
)

// FullReduction returns the Yannakakis full reduction of e as an Exec of its
// own, e untouched: the reference that count-guided readers of e (Enumerate,
// ranked enumeration) are held to. The copy shares e's relations, group
// indexes and gid arrays until FullReduceWorkers replaces whole entries of its
// own per-node slices.
func FullReduction(e *jointree.Exec) *jointree.Exec {
	red := *e
	red.Rels = slices.Clone(e.Rels)
	red.Groups = slices.Clone(e.Groups)
	red.FullReduceWorkers(1)
	return &red
}

// SameExec holds a derived executable tree (jointree.DeriveSubset,
// DeriveGathered) to fresh, Build + NewExecWorkers on the derived instance,
// field by field: the tree's shape and variables, every node relation, and per
// edge RowGid, Tuples and the parent-gid array. An index numbered from
// identifiers (no key interner) must carry the fresh build's numbering exactly.
// One with stable gids may number its groups otherwise and retain empty ones:
// there the groups with tuples must correspond one to one, list for list, and
// a parent row resolves to the corresponding group, or to an empty one or none
// where the fresh build finds none.
func SameExec(t testing.TB, name string, derived, fresh *jointree.Exec) {
	t.Helper()
	for _, n := range fresh.T.Nodes {
		id := n.ID
		d := derived.T.Nodes[id]
		if derived.T.Root != fresh.T.Root || d.Parent != n.Parent || !slices.Equal(d.Vars, n.Vars) || !slices.Equal(d.SharedWithParent, n.SharedWithParent) {
			t.Fatalf("%s: node %d: derived tree node %+v, a fresh build's %+v", name, id, *d, *n)
		}
		if !derived.Rels[id].Equal(fresh.Rels[id]) {
			t.Fatalf("%s: node %d: derived relation differs from a fresh build's", name, id)
		}
		if n.Parent < 0 {
			continue
		}
		dg, fg := derived.Groups[id], fresh.Groups[id]
		dp, fp := derived.ParentGids(id), fresh.ParentGids(id)
		if len(dg.RowGid) != len(fg.RowGid) || len(dp) != len(fp) {
			t.Fatalf("%s: node %d: %d row gids and %d parent gids, a fresh build has %d and %d", name, id, len(dg.RowGid), len(dp), len(fg.RowGid), len(fp))
		}
		rows := 0
		for gid, list := range dg.Tuples {
			rows += len(list)
			for k, ti := range list {
				if int(dg.RowGid[ti]) != gid || k > 0 && list[k-1] >= ti {
					t.Fatalf("%s: node %d: group %d lists %v, RowGid[%d] = %d", name, id, gid, list, ti, dg.RowGid[ti])
				}
			}
		}
		if rows != len(dg.RowGid) {
			t.Fatalf("%s: node %d: Tuples hold %d rows of %d", name, id, rows, len(dg.RowGid))
		}
		if dg.Keys() == nil {
			if !slices.Equal(dg.RowGid, fg.RowGid) || len(dg.Tuples) != len(fg.Tuples) || !slices.Equal(dp, fp) {
				t.Fatalf("%s: node %d: gids numbered from identifiers differ from a fresh build's\nRowGid %v\nfresh  %v\nparent %v\nfresh  %v",
					name, id, dg.RowGid, fg.RowGid, dp, fp)
			}
			continue
		}
		toDerived := make([]int32, len(fg.Tuples))
		for gid, list := range fg.Tuples {
			toDerived[gid] = dg.RowGid[list[0]]
			if !slices.Equal(dg.Tuples[toDerived[gid]], list) {
				t.Fatalf("%s: node %d: fresh group %d is %v, derived group %d is %v", name, id, gid, list, toDerived[gid], dg.Tuples[toDerived[gid]])
			}
		}
		for i, g := range fp {
			switch {
			case g >= 0 && dp[i] != toDerived[g]:
				t.Fatalf("%s: node %d: parent row %d resolves to group %d, a fresh build's %d is derived group %d", name, id, i, dp[i], g, toDerived[g])
			case g < 0 && dp[i] >= 0 && len(dg.Tuples[dp[i]]) > 0:
				t.Fatalf("%s: node %d: parent row %d resolves to %v, a fresh build finds no group", name, id, i, dg.Tuples[dp[i]])
			}
		}
	}
}
