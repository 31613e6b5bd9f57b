package jointree

import (
	"testing"

	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/relation"
)

// fig1 returns the paper's Figure 1 query and database.
func fig1() (*query.Query, *relation.Database) {
	q := query.New(
		query.Atom{Rel: "R", Vars: []query.Var{"x1", "x2"}},
		query.Atom{Rel: "S", Vars: []query.Var{"x1", "x3"}},
		query.Atom{Rel: "T", Vars: []query.Var{"x2", "x4"}},
		query.Atom{Rel: "U", Vars: []query.Var{"x4", "x5"}},
	)
	db := relation.NewDatabase()
	db.Add(relation.FromRows("R", 2, [][]relation.Value{{1, 1}, {2, 2}}))
	db.Add(relation.FromRows("S", 2, [][]relation.Value{{1, 3}, {1, 4}, {1, 5}, {2, 3}, {2, 4}}))
	db.Add(relation.FromRows("T", 2, [][]relation.Value{{1, 6}, {1, 7}, {2, 6}}))
	db.Add(relation.FromRows("U", 2, [][]relation.Value{{6, 8}, {6, 9}, {7, 9}}))
	return q, db
}

func TestBuildTreeShape(t *testing.T) {
	q, _ := fig1()
	tree, err := Build(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Nodes) != 4 {
		t.Fatalf("nodes = %d", len(tree.Nodes))
	}
	// Bottom-up order must place children before parents.
	seen := make(map[int]bool)
	for _, id := range tree.BottomUp {
		for _, c := range tree.Nodes[id].Children {
			if !seen[c] {
				t.Fatal("bottom-up order violated")
			}
		}
		seen[id] = true
	}
	if len(tree.BottomUp) != 4 || len(tree.TopDown) != 4 {
		t.Fatal("order lengths wrong")
	}
}

func TestBuildCyclicFails(t *testing.T) {
	q := query.New(
		query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}},
		query.Atom{Rel: "S", Vars: []query.Var{"y", "z"}},
		query.Atom{Rel: "T", Vars: []query.Var{"z", "x"}},
	)
	if _, err := Build(q); err == nil {
		t.Fatal("cyclic query accepted")
	}
}

func TestSharedWithParent(t *testing.T) {
	q, _ := fig1()
	tree, _ := Build(q)
	for _, n := range tree.Nodes {
		if n.Parent < 0 {
			continue
		}
		p := tree.Nodes[n.Parent]
		for _, v := range n.SharedWithParent {
			if !hasVar(n.Vars, v) || !hasVar(p.Vars, v) {
				t.Fatalf("shared var %s not in both nodes", v)
			}
		}
	}
}

func hasVar(vs []query.Var, v query.Var) bool {
	for _, w := range vs {
		if w == v {
			return true
		}
	}
	return false
}

func TestNewExecGroups(t *testing.T) {
	q, db := fig1()
	tree, _ := Build(q)
	e, err := NewExecWorkers(q, db, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range tree.Nodes {
		if n.Parent < 0 {
			if e.Groups[n.ID] != nil {
				t.Fatal("root must have no group index")
			}
			continue
		}
		g := e.Groups[n.ID]
		total := 0
		for _, tuples := range g.Tuples {
			total += len(tuples)
		}
		if total != e.Rels[n.ID].Len() {
			t.Fatalf("groups of node %d drop tuples: %d vs %d", n.ID, total, e.Rels[n.ID].Len())
		}
	}
}

// ParentGroup resolves every parent row of every edge to the join group
// whose tuples agree with it on the shared variables, and to none exactly
// when no child tuple does.
func TestParentGroup(t *testing.T) {
	q, db := fig1()
	tree, _ := Build(q)
	e, _ := NewExecWorkers(q, db, tree, 1)
	agree := func(n *Node, pi, ci int) bool {
		for k := range n.SharedWithParent {
			if e.Rels[n.Parent].Get(pi, e.keyPosParent[n.ID][k]) != e.Rels[n.ID].Get(ci, e.keyPosChild[n.ID][k]) {
				return false
			}
		}
		return true
	}
	for _, n := range tree.Nodes {
		if n.Parent < 0 {
			continue
		}
		for pi := 0; pi < e.Rels[n.Parent].Len(); pi++ {
			gid, ok := e.ParentGroup(n.ID, pi)
			matches := 0
			for ci := 0; ci < e.Rels[n.ID].Len(); ci++ {
				if agree(n, pi, ci) {
					matches++
					if !ok || int(e.Groups[n.ID].RowGid[ci]) != gid {
						t.Fatalf("node %d: parent row %d agrees with child row %d outside its group (%d, %v)", n.ID, pi, ci, gid, ok)
					}
				}
			}
			if ok && matches != len(e.Groups[n.ID].Tuples[gid]) {
				t.Fatalf("node %d: parent row %d: group %d holds %d tuples, %d agree", n.ID, pi, gid, len(e.Groups[n.ID].Tuples[gid]), matches)
			}
		}
	}
}

func TestIntraAtomEquality(t *testing.T) {
	src := query.New(query.Atom{Rel: "R", Vars: []query.Var{"x", "x"}})
	raw := relation.NewDatabase()
	raw.Add(relation.FromRows("R", 2, [][]relation.Value{{1, 1}, {1, 2}, {3, 3}}))
	tree, _ := Build(src)
	if _, err := NewExecWorkers(src, raw, tree, 1); err == nil {
		t.Fatal("an atom that repeats a variable must be rejected, not misread")
	}
	// The equality is query.Normalize's: the tree reads what it leaves.
	q, db := query.Normalize(src, raw)
	tree, _ = Build(q)
	e, err := NewExecWorkers(q, db, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	rel := e.Rels[tree.Root]
	if rel.Len() != 2 || rel.Arity() != 1 {
		t.Fatalf("want 2 unary tuples, got %d/%d", rel.Len(), rel.Arity())
	}
}

func TestFullReduce(t *testing.T) {
	q := query.New(
		query.Atom{Rel: "A", Vars: []query.Var{"x", "y"}},
		query.Atom{Rel: "B", Vars: []query.Var{"y", "z"}},
	)
	db := relation.NewDatabase()
	db.Add(relation.FromRows("A", 2, [][]relation.Value{{1, 10}, {2, 20}, {3, 30}}))
	db.Add(relation.FromRows("B", 2, [][]relation.Value{{10, 100}, {20, 200}, {99, 900}}))
	tree, _ := Build(q)
	e, _ := NewExecWorkers(q, db, tree, 1)
	e.FullReduceWorkers(1)
	// (3,30) has no B partner; (99,900) has no A partner.
	var aLen, bLen int
	for _, n := range tree.Nodes {
		switch q.Atoms[n.Atom].Rel {
		case "A":
			aLen = e.Rels[n.ID].Len()
		case "B":
			bLen = e.Rels[n.ID].Len()
		}
	}
	if aLen != 2 || bLen != 2 {
		t.Fatalf("after reduce A=%d B=%d, want 2/2", aLen, bLen)
	}
}

func TestFullReduceDeepDangling(t *testing.T) {
	// Dangling propagates across levels: C has no partner for y=20, so A's
	// (2,20) dies even though B has y=20.
	q := query.New(
		query.Atom{Rel: "A", Vars: []query.Var{"x", "y"}},
		query.Atom{Rel: "B", Vars: []query.Var{"y", "z"}},
		query.Atom{Rel: "C", Vars: []query.Var{"z", "w"}},
	)
	db := relation.NewDatabase()
	db.Add(relation.FromRows("A", 2, [][]relation.Value{{1, 10}, {2, 20}}))
	db.Add(relation.FromRows("B", 2, [][]relation.Value{{10, 100}, {20, 200}}))
	db.Add(relation.FromRows("C", 2, [][]relation.Value{{100, 7}}))
	tree, _ := Build(q)
	e, _ := NewExecWorkers(q, db, tree, 1)
	e.FullReduceWorkers(1)
	for _, n := range tree.Nodes {
		want := 1
		if got := e.Rels[n.ID].Len(); got != want {
			t.Fatalf("node %s: len = %d, want %d", q.Atoms[n.Atom].Rel, got, want)
		}
	}
}

// Property: after FullReduceWorkers, every remaining tuple participates in at
// least one answer (every child group reachable from it is non-empty).
func TestFullReduceProperty(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rngWith(seed)
		q, db := randomInstance(rng)
		tree, err := Build(q)
		if err != nil {
			continue
		}
		e, err := NewExecWorkers(q, db, tree, 1)
		if err != nil {
			t.Fatal(err)
		}
		e.FullReduceWorkers(1)
		for _, n := range tree.Nodes {
			rel := e.Rels[n.ID]
			for i := 0; i < rel.Len(); i++ {
				row := rel.RowValues(i)
				for _, ch := range n.Children {
					gid, ok := e.ParentGroup(ch, i)
					if !ok || len(e.Groups[ch].Tuples[gid]) == 0 {
						t.Fatalf("seed %d: reduced tuple %v of node %d dangles", seed, row, n.ID)
					}
				}
				if n.Parent >= 0 {
					// Some parent tuple must match this tuple's key.
					matched := false
					prel := e.Rels[n.Parent]
					for j := 0; j < prel.Len() && !matched; j++ {
						gid, ok := e.ParentGroup(n.ID, j)
						if ok {
							for _, ti := range e.Groups[n.ID].Tuples[gid] {
								if ti == i {
									matched = true
									break
								}
							}
						}
					}
					if !matched {
						t.Fatalf("seed %d: tuple %v of node %d has no parent partner", seed, row, n.ID)
					}
				}
			}
		}
	}
}

func rngWith(seed int64) *randSource {
	return &randSource{seed: seed, state: uint64(seed)*2654435761 + 1}
}

// randSource is a tiny deterministic generator to avoid importing math/rand
// twice with colliding helper names.
type randSource struct {
	seed  int64
	state uint64
}

func (r *randSource) next() uint64 {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	return r.state
}

func (r *randSource) intn(n int) int { return int(r.next() % uint64(n)) }

func randomInstance(rng *randSource) (*query.Query, *relation.Database) {
	nAtoms := 2 + rng.intn(3)
	var atoms []query.Atom
	atoms = append(atoms, query.Atom{Rel: "T0", Vars: []query.Var{"v0", "v1"}})
	next := 2
	for i := 1; i < nAtoms; i++ {
		parent := rng.intn(i)
		shared := atoms[parent].Vars[rng.intn(2)]
		fresh := query.Var(string(rune('a' + next)))
		next++
		atoms = append(atoms, query.Atom{Rel: "T" + string(rune('0'+i)), Vars: []query.Var{shared, fresh}})
	}
	q := query.New(atoms...)
	db := relation.NewDatabase()
	for _, a := range q.Atoms {
		rel := relation.New(a.Rel, len(a.Vars))
		for j := 0; j < 3+rng.intn(10); j++ {
			rel.Append(relation.Value(rng.intn(4)), relation.Value(rng.intn(4)))
		}
		db.Add(rel)
	}
	return q, db
}

func TestBinarizeNoop(t *testing.T) {
	q, db := fig1()
	tree, _ := Build(q)
	t2, q2, db2 := Binarize(tree, q, db)
	// Figure 1 tree has at most 2 children per node already.
	maxKids := 0
	for _, n := range tree.Nodes {
		if len(n.Children) > maxKids {
			maxKids = len(n.Children)
		}
	}
	if maxKids <= 2 && (t2 != tree || q2 != q || db2 != db) {
		t.Fatal("binary tree must pass through unchanged")
	}
}

func TestBinarizeStar(t *testing.T) {
	q := query.New(
		query.Atom{Rel: "Hub", Vars: []query.Var{"e"}},
		query.Atom{Rel: "A", Vars: []query.Var{"e", "a"}},
		query.Atom{Rel: "B", Vars: []query.Var{"e", "b"}},
		query.Atom{Rel: "C", Vars: []query.Var{"e", "c"}},
		query.Atom{Rel: "D", Vars: []query.Var{"e", "d"}},
	)
	db := relation.NewDatabase()
	db.Add(relation.FromRows("Hub", 1, [][]relation.Value{{1}}))
	for _, name := range []string{"A", "B", "C", "D"} {
		db.Add(relation.FromRows(name, 2, [][]relation.Value{{1, 5}, {1, 6}}))
	}
	tree, err := Build(q)
	if err != nil {
		t.Fatal(err)
	}
	// Force the hub to be the parent of all four leaves by rebuilding with an
	// explicit parent array.
	parent := []int{-1, 0, 0, 0, 0}
	tree = FromParent(q, parent, 0)
	t2, q2, db2 := Binarize(tree, q, db)
	for _, n := range t2.Nodes {
		if len(n.Children) > 2 {
			t.Fatalf("node %d still has %d children", n.ID, len(n.Children))
		}
	}
	if len(q2.Atoms) <= len(q.Atoms) {
		t.Fatal("binarization must add copy atoms")
	}
	// Copies must resolve to relations in the new database.
	if err := q2.Validate(db2); err != nil {
		t.Fatal(err)
	}
	// Answer count must be preserved: every copy atom repeats the hub tuple.
	e, err := NewExecWorkers(q2, db2, t2, 1)
	if err != nil {
		t.Fatal(err)
	}
	e.FullReduceWorkers(1)
	for _, n := range t2.Nodes {
		if e.Rels[n.ID].Len() == 0 {
			t.Fatal("binarized instance lost tuples")
		}
	}
}

func TestHeight(t *testing.T) {
	q, _ := fig1()
	tree, _ := Build(q)
	if h := tree.Height(); h < 1 || h > 3 {
		t.Fatalf("height = %d", h)
	}
	single := query.New(query.Atom{Rel: "R", Vars: []query.Var{"x"}})
	st, _ := Build(single)
	if st.Height() != 0 {
		t.Fatal("single node height must be 0")
	}
}

func TestBuildAdjacentPair(t *testing.T) {
	q := query.New(
		query.Atom{Rel: "R1", Vars: []query.Var{"x1", "x2"}},
		query.Atom{Rel: "R2", Vars: []query.Var{"x2", "x3"}},
		query.Atom{Rel: "R3", Vars: []query.Var{"x3", "x4"}},
	)
	tree, a, b, err := BuildAdjacentPair(q, []query.Var{"x1", "x2", "x3"})
	if err != nil {
		t.Fatal(err)
	}
	if b == -1 {
		t.Fatal("expected a pair")
	}
	na, nb := tree.Nodes[a], tree.Nodes[b]
	if na.Parent != b && nb.Parent != a {
		t.Fatal("pair not adjacent")
	}
	if _, _, _, err := BuildAdjacentPair(q, []query.Var{"zz"}); err == nil {
		t.Fatal("unknown variable accepted")
	}
}
