package jointree

import (
	"math/rand"
	"testing"

	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/relation"
)

// subsetInstance builds a random 3-path instance plus a value-threshold
// filter: rows whose first column is below the cutoff survive.
func subsetInstance(t *testing.T, seed int64, cutoff relation.Value) (*query.Query, *relation.Database, *Exec, [][]bool, *relation.Database) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	q := &query.Query{Atoms: []query.Atom{
		{Rel: "R", Vars: []query.Var{"x", "y"}},
		{Rel: "S", Vars: []query.Var{"y", "z"}},
		{Rel: "T", Vars: []query.Var{"z", "w"}},
	}}
	db := relation.NewDatabase()
	for _, name := range []string{"R", "S", "T"} {
		r := relation.New(name, 2)
		for i := 0; i < 400; i++ {
			r.Append(relation.Value(rng.Intn(40)), relation.Value(rng.Intn(40)))
		}
		db.Add(r.Deduped())
	}
	tree, err := Build(q)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExec(q, db, tree)
	if err != nil {
		t.Fatal(err)
	}
	// The filter: relation S keeps rows with first value < cutoff; R and T are
	// untouched (nil keep: the share path).
	db2 := relation.NewDatabase()
	db2.Add(db.Get("R"))
	sCol := db.Get("S").Col(0)
	db2.Add(db.Get("S").Filter(func(i int) bool { return sCol[i] < cutoff }))
	db2.Add(db.Get("T"))
	keep := make([][]bool, len(e.T.Nodes))
	for _, n := range e.T.Nodes {
		if q.Atoms[n.Atom].Rel != "S" {
			continue
		}
		rel := e.Rels[n.ID]
		k := make([]bool, rel.Len())
		// Node vars are (y, z) in atom order; column 0 carries y = source
		// column 0, matching the source-level filter.
		relCol := rel.Col(0)
		for i := range k {
			k[i] = relCol[i] < cutoff
		}
		keep[n.ID] = k
	}
	return q, db, e, keep, db2
}

// TestDeriveSubsetMatchesFreshBuild checks the load-bearing contract of the
// subset derivation: node relations are byte-identical to a fresh
// Build+NewExec on the filtered database, and — although group ids may
// differ (the derivation keeps stable ids, a fresh build renumbers densely)
// — every parent row resolves to the exact same ascending tuple-index list
// in both trees.
func TestDeriveSubsetMatchesFreshBuild(t *testing.T) {
	for _, cutoff := range []relation.Value{0, 7, 20, 40} {
		q, _, e, keep, db2 := subsetInstance(t, int64(100+cutoff), cutoff)
		derived := e.DeriveSubsetIn(q.Clone(), db2, keep, nil)
		tree2, err := Build(q)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewExec(q, db2, tree2)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range e.T.Nodes {
			dr, fr := derived.Rels[n.ID], fresh.Rels[n.ID]
			if !dr.Equal(fr) {
				t.Fatalf("cutoff=%d node %d: derived relation %v != fresh %v", cutoff, n.ID, dr, fr)
			}
			if n.Parent < 0 {
				continue
			}
			// RowGid inverts Tuples.
			g := derived.Groups[n.ID]
			for gid, list := range g.Tuples {
				for _, ti := range list {
					if int(g.RowGid[ti]) != gid {
						t.Fatalf("cutoff=%d node %d: RowGid[%d]=%d, in Tuples[%d]", cutoff, n.ID, ti, g.RowGid[ti], gid)
					}
				}
			}
			prel := derived.Rels[n.Parent]
			for i := 0; i < prel.Len(); i++ {
				dg, dok := derived.ParentGroup(n.ID, i)
				fg, fok := fresh.ParentGroup(n.ID, i)
				if dok != fok {
					t.Fatalf("cutoff=%d node %d parent row %d: derived ok=%v fresh ok=%v", cutoff, n.ID, i, dok, fok)
				}
				var dl, fl []int32
				if dok {
					dl = derived.Groups[n.ID].Tuples[dg]
					fl = fresh.Groups[n.ID].Tuples[fg]
				}
				// A derived group may survive empty; fresh has no group at
				// all — both mean "no matching tuples".
				if len(dl) != len(fl) {
					t.Fatalf("cutoff=%d node %d parent row %d: tuple lists %v vs %v", cutoff, n.ID, i, dl, fl)
				}
				for j := range dl {
					if dl[j] != fl[j] {
						t.Fatalf("cutoff=%d node %d parent row %d: tuple lists %v vs %v", cutoff, n.ID, i, dl, fl)
					}
				}
			}
		}
	}
}

// TestDeriveSubsetSharesUntouchedNodes checks the nil-keep fast path: an
// untouched node's relation, group index and (untouched-parent) gid array
// are shared by pointer, not copied.
func TestDeriveSubsetSharesUntouchedNodes(t *testing.T) {
	q, _, e, keep, db2 := subsetInstance(t, 7, 20)
	derived := e.DeriveSubsetIn(q.Clone(), db2, keep, nil)
	for _, n := range e.T.Nodes {
		if q.Atoms[n.Atom].Rel == "S" {
			continue
		}
		if derived.Rels[n.ID] != e.Rels[n.ID] {
			t.Fatalf("node %d: untouched relation was copied", n.ID)
		}
		if n.Parent >= 0 && derived.Groups[n.ID] != e.Groups[n.ID] {
			t.Fatalf("node %d: untouched group index was copied", n.ID)
		}
	}
}

// TestDeriveSubsetEmpty filters everything out of one relation: every group
// empties, every parent row keeps a (dead) gid, and enumeration-side
// consumers see no tuples anywhere.
func TestDeriveSubsetEmpty(t *testing.T) {
	q, _, e, keep, db2 := subsetInstance(t, 11, 0)
	derived := e.DeriveSubsetIn(q.Clone(), db2, keep, nil)
	for _, n := range e.T.Nodes {
		if q.Atoms[n.Atom].Rel != "S" {
			continue
		}
		if derived.Rels[n.ID].Len() != 0 {
			t.Fatalf("node %d: expected empty relation, got %d rows", n.ID, derived.Rels[n.ID].Len())
		}
		if n.Parent < 0 {
			continue // the root has no group index
		}
		for gid, list := range derived.Groups[n.ID].Tuples {
			if len(list) != 0 {
				t.Fatalf("node %d group %d: expected empty tuple list", n.ID, gid)
			}
		}
	}
}

// ReduceRows is the full reducer of each part: the rows it keeps of a part's
// lists are the rows FullReduce keeps of the subset instance those
// lists select, in their order — over random trees, three parts sharing one
// set of group marks, one of them empty on a node, and with an arena or
// without.
func TestReduceRowsIsTheFullReducerOfEachPart(t *testing.T) {
	var a relation.Arena
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q, db := randomInstance(rngWith(seed))
		tree, err := Build(q)
		if err != nil {
			continue
		}
		e, err := NewExec(q, db, tree)
		if err != nil {
			t.Fatal(err)
		}
		const parts = 3
		n := len(e.Rels)
		lists := make([][]int, parts*n)
		keeps := make([][][]bool, parts)
		for p := range parts {
			keeps[p] = make([][]bool, n)
			for id, rel := range e.Rels {
				keep := make([]bool, rel.Len())
				for i := range keep {
					keep[i] = p != 2 || id != 0 // part 2 holds nothing of node 0
					keep[i] = keep[i] && rng.Intn(4) > 0
					if keep[i] {
						lists[p*n+id] = append(lists[p*n+id], i)
					}
				}
				keeps[p][id] = keep
			}
		}
		arena := &a
		if seed%2 == 1 {
			arena = nil
		}
		e.ReduceRows(lists, arena)
		for p := range parts {
			sub := e.DeriveSubsetIn(q, db, keeps[p], nil)
			sub.FullReduce()
			for id, rel := range e.Rels {
				got := rel.GatherRows(rel.Name(), lists[p*n+id])
				if !got.Equal(sub.Rels[id]) {
					t.Fatalf("seed %d part %d node %d: ReduceRows kept %d rows, the full reducer %d", seed, p, id, got.Len(), sub.Rels[id].Len())
				}
				if p == 2 && got.Len() != 0 {
					t.Fatalf("seed %d: a part empty on node 0 kept %d rows of node %d", seed, got.Len(), id)
				}
			}
		}
		a.Reset()
	}
}
