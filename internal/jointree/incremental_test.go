package jointree

import (
	"math/rand"
	"testing"

	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/workload"
)

// dedupedDB mirrors the engine's input deduplication: ApplyDelta operates on
// the set-level view, so the base Exec must be built over distinct relations.
func dedupedDB(db *relation.Database) *relation.Database {
	out := relation.NewDatabase()
	for _, name := range db.Names() {
		out.Add(db.Get(name).DedupedWorkers(1))
	}
	return out
}

// mutate applies a set delta to a distinct relation the canonical way:
// survivors keep their order, additions append.
func mutate(r *relation.Relation, d RelDelta) *relation.Relation {
	var enc relation.KeyEncoder
	removed := make(map[string]struct{}, len(d.RemovedRows))
	for _, row := range d.RemovedRows {
		removed[string(enc.Row(row))] = struct{}{}
	}
	cols := r.Cols()
	out := r.FilterWorkers(1, func(i int) bool {
		_, dead := removed[string(enc.RowAt(cols, i))]
		return !dead
	})
	for _, row := range d.AddedRows {
		out.AppendRow(row)
	}
	out.MarkDistinct()
	return out
}

// randomRelDelta removes up to nDel existing rows of r and adds up to nAdd
// fresh rows with values in [lo, hi) guaranteed absent from r.
func randomRelDelta(rng *rand.Rand, r *relation.Relation, nDel, nAdd int, hi int64) RelDelta {
	var enc relation.KeyEncoder
	rcols := r.Cols()
	present := make(map[string]struct{}, r.Len())
	for i := 0; i < r.Len(); i++ {
		present[string(enc.RowAt(rcols, i))] = struct{}{}
	}
	var d RelDelta
	picked := make(map[int]bool)
	for len(d.RemovedRows) < nDel && len(picked) < r.Len() {
		i := rng.Intn(r.Len())
		if picked[i] {
			continue
		}
		picked[i] = true
		row := r.RowValues(i)
		d.RemovedRows = append(d.RemovedRows, row)
	}
	for len(d.AddedRows) < nAdd {
		row := make([]relation.Value, r.Arity())
		for j := range row {
			row[j] = rng.Int63n(hi)
		}
		if _, dup := present[string(enc.Row(row))]; dup {
			continue
		}
		present[string(enc.Row(row))] = struct{}{}
		d.AddedRows = append(d.AddedRows, row)
	}
	return d
}

// materializeAll enumerates every answer of an executable tree (a local
// stand-in for yannakakis.Materialize, which would import-cycle here).
func materializeAll(e *Exec) [][]relation.Value {
	varIdx := e.Q.VarIndex()
	asn := make([]relation.Value, len(e.Q.Vars()))
	var out [][]relation.Value
	var visit func(id, ti int, cont func())
	visit = func(id, ti int, cont func()) {
		n := e.T.Nodes[id]
		row := e.Rels[id].RowValues(ti)
		for j, v := range n.Vars {
			asn[varIdx[v]] = row[j]
		}
		var loop func(ci int)
		loop = func(ci int) {
			if ci == len(n.Children) {
				cont()
				return
			}
			ch := n.Children[ci]
			gid, ok := e.ParentGroup(ch, ti)
			if !ok {
				return
			}
			for _, cti := range e.Groups[ch].Tuples[gid] {
				visit(ch, int(cti), func() { loop(ci + 1) })
			}
		}
		loop(0)
	}
	root := e.T.Root
	for ti := 0; ti < e.Rels[root].Len(); ti++ {
		visit(root, ti, func() {
			out = append(out, append([]relation.Value(nil), asn...))
		})
	}
	return out
}

// checkDerivedMatchesFresh asserts the two core invariants of ApplyDelta:
// byte-identical node relations against a fresh build on the mutated
// database, and counting state (via UpdateCounts at the caller) consistent
// with a fresh counting pass.
func checkDerivedMatchesFresh(t *testing.T, q *query.Query, tree *Tree, derived *Exec) {
	t.Helper()
	fresh, err := NewExecWorkers(q, derived.DB, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	for id := range derived.Rels {
		if !derived.Rels[id].Equal(fresh.Rels[id]) {
			t.Fatalf("node %d relation diverged from fresh build:\n derived %v\n fresh %v",
				id, derived.Rels[id], fresh.Rels[id])
		}
	}
	got := materializeAll(derived)
	want := materializeAll(fresh)
	if len(got) != len(want) {
		t.Fatalf("answer count diverged: derived %d, fresh %d", len(got), len(want))
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("answer %d diverged: derived %v, fresh %v", i, got[i], want[i])
			}
		}
	}
}

func TestApplyDeltaMatchesFreshExec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		q, raw := workload.Path(rng, 3, 120, 16)
		db := dedupedDB(raw)
		tree, err := Build(q)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewExecWorkers(q, db, tree, 1)
		if err != nil {
			t.Fatal(err)
		}
		deltas := map[string]RelDelta{
			"R1": randomRelDelta(rng, db.Get("R1"), rng.Intn(4), rng.Intn(4), 16),
			"R3": randomRelDelta(rng, db.Get("R3"), rng.Intn(4), rng.Intn(4), 16),
		}
		derived, changes, err := e.ApplyDelta(deltas, 1)
		if err != nil {
			t.Fatal(err)
		}
		// The mutated DB inside the derived exec must equal the canonical
		// mutation of the base DB.
		for name, d := range deltas {
			if want := mutate(db.Get(name), d); !derived.DB.Get(name).Equal(want) {
				t.Fatalf("trial %d: relation %s: derived DB %v, want %v", trial, name, derived.DB.Get(name), want)
			}
		}
		// Untouched relations are shared, touched ones are fresh; the base
		// exec itself must be unchanged.
		if derived.DB.Get("R2") != db.Get("R2") {
			t.Fatal("untouched relation was copied")
		}
		if e.DB.Get("R1") != db.Get("R1") || !e.Rels[0].Equal(mustFresh(t, q, db, tree).Rels[0]) {
			t.Fatal("base exec mutated by ApplyDelta")
		}
		checkDerivedMatchesFresh(t, q, tree, derived)
		if len(changes) == 0 && (len(deltas["R1"].RemovedRows)+len(deltas["R1"].AddedRows) > 0) {
			t.Fatal("no NodeChange reported for a touched node")
		}
	}
}

func mustFresh(t *testing.T, q *query.Query, db *relation.Database, tree *Tree) *Exec {
	t.Helper()
	e, err := NewExecWorkers(q, db, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestApplyDeltaRepeatedVars holds the tree to its precondition — an atom
// that repeats a variable is an error, not a wrong answer — and runs the
// incremental path on the normalized instance: the atom's row map drops rows
// violating x=x before they reach the delta, on insert or delete.
func TestApplyDeltaRepeatedVars(t *testing.T) {
	src := query.New(
		query.Atom{Rel: "R", Vars: []query.Var{"x", "x", "y"}},
		query.Atom{Rel: "S", Vars: []query.Var{"y", "z"}},
	)
	raw := relation.NewDatabase()
	raw.Add(relation.FromRows("R", 3, [][]relation.Value{{1, 1, 2}, {5, 5, 6}, {4, 0, 2}}).DedupedWorkers(1))
	raw.Add(relation.FromRows("S", 2, [][]relation.Value{{2, 9}, {6, 9}}).DedupedWorkers(1))
	tree, err := Build(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewExecWorkers(src, raw, tree, 1); err == nil {
		t.Fatal("NewExecWorkers accepted an atom that repeats a variable")
	}
	q, db := query.Normalize(src, raw)
	if tree, err = Build(q); err != nil {
		t.Fatal(err)
	}
	e, err := NewExecWorkers(q, db, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e.Rels[0] != db.Get(q.Atoms[0].Rel) || e.Rels[0].Len() != 2 || e.Rels[0].Arity() != 2 {
		t.Fatalf("node relation %v is not the normalized relation %v", e.Rels[0], db.Get(q.Atoms[0].Rel))
	}
	m := query.RowMapOf(src.Atoms[0])
	bad := []relation.Value{7, 8, 2} // violates x=x: invisible to the nodes
	good := []relation.Value{3, 3, 6}
	gone := []relation.Value{1, 1, 2}
	d := RelDelta{
		RemovedRows: m.Rows([][]relation.Value{gone, {4, 0, 2}}),
		AddedRows:   m.Rows([][]relation.Value{bad, good}),
	}
	if len(d.RemovedRows) != 1 || len(d.AddedRows) != 1 {
		t.Fatalf("row map kept %v / %v", d.RemovedRows, d.AddedRows)
	}
	derived, _, err := e.ApplyDelta(map[string]RelDelta{q.Atoms[0].Rel: d}, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkDerivedMatchesFresh(t, q, tree, derived)
	got := materializeAll(derived)
	if len(got) != 2 { // (5,6,9) and (3,6,9)
		t.Fatalf("answers after delta = %v, want 2", got)
	}
}

// TestApplyDeltaChained derives from derivations: group-id stability, the
// added overlay, and list copy-on-write must hold across generations.
func TestApplyDeltaChained(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q, raw := workload.Hierarchy(rng, 150, 12)
	db := dedupedDB(raw)
	tree, err := Build(q)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExecWorkers(q, db, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	for gen := 0; gen < 8; gen++ {
		name := []string{"R", "S", "T", "U"}[rng.Intn(4)]
		d := randomRelDelta(rng, e.DB.Get(name), rng.Intn(3), rng.Intn(5), 12)
		if d.Empty() {
			continue
		}
		derived, _, err := e.ApplyDelta(map[string]RelDelta{name: d}, 1)
		if err != nil {
			t.Fatal(err)
		}
		checkDerivedMatchesFresh(t, q, tree, derived)
		e = derived
	}
}
