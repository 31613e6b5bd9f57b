package engine

import (
	"errors"
	"testing"

	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/testutil"
	"github.com/quantilejoins/qjoin/internal/yannakakis"
)

func path2DB(rows1, rows2 [][]relation.Value) (*query.Query, *relation.Database) {
	q := testutil.PathQuery(2)
	db := relation.NewDatabase()
	db.Add(relation.FromRows("R1", 2, rows1))
	db.Add(relation.FromRows("R2", 2, rows2))
	return q, db
}

func totalOf(t *testing.T, e *Engine) uint64 {
	t.Helper()
	n, ok := e.Total().Uint64()
	if !ok {
		t.Fatal("total overflows uint64")
	}
	return n
}

// TestUpdateRefcounts: a tuple only leaves the answer side once its last raw
// occurrence is deleted; duplicate inserts only bump the multiplicity.
func TestUpdateRefcounts(t *testing.T) {
	q, db := path2DB(
		[][]relation.Value{{1, 2}, {1, 2}, {3, 4}},
		[][]relation.Value{{2, 7}, {4, 1}},
	)
	e, err := New(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if got := totalOf(t, e); got != 2 {
		t.Fatalf("base total = %d, want 2", got)
	}
	// First delete of (1,2): multiplicity 2 -> 1, answers unchanged, and the
	// whole compiled artifact — lazy caches included — is carried forward
	// (pure multiplicity change invalidates nothing).
	e.Counts()
	e1, _, err := e.Update(NewDelta().Delete("R1", []relation.Value{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if e1.exec != e.exec || e1.db != e.db {
		t.Fatal("pure multiplicity delete rebuilt compiled structures")
	}
	if e1.counts != e.counts {
		t.Fatal("pure multiplicity delete dropped already-built caches")
	}
	if got := totalOf(t, e1); got != 2 {
		t.Fatalf("after 1st delete: total = %d, want 2", got)
	}
	// Second delete removes the tuple for real.
	e2, _, err := e1.Update(NewDelta().Delete("R1", []relation.Value{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if got := totalOf(t, e2); got != 1 {
		t.Fatalf("after 2nd delete: total = %d, want 1", got)
	}
	// Third delete must fail: no occurrence left.
	if _, _, err := e2.Update(NewDelta().Delete("R1", []relation.Value{1, 2})); !errors.Is(err, ErrDeleteAbsent) {
		t.Fatalf("err = %v, want ErrDeleteAbsent", err)
	}
	// Duplicate insert of an existing tuple: multiplicity only.
	e3, _, err := e2.Update(NewDelta().Insert("R1", []relation.Value{3, 4}))
	if err != nil {
		t.Fatal(err)
	}
	if e3.exec != e2.exec {
		t.Fatal("duplicate insert rebuilt compiled structures")
	}
	if got := totalOf(t, e3); got != 1 {
		t.Fatalf("after dup insert: total = %d, want 1", got)
	}
	// The base engine is untouched throughout.
	if got := totalOf(t, e); got != 2 {
		t.Fatalf("base engine total changed to %d", got)
	}
}

// TestUpdateAtomic: a delta with a valid insert and an invalid delete is
// rejected as a whole; nothing is applied.
func TestUpdateAtomic(t *testing.T) {
	q, db := path2DB(
		[][]relation.Value{{1, 2}},
		[][]relation.Value{{2, 7}},
	)
	e, err := New(q, db)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDelta().
		Insert("R1", []relation.Value{5, 6}).
		Delete("R2", []relation.Value{9, 9})
	if _, _, err := e.Update(d); !errors.Is(err, ErrDeleteAbsent) {
		t.Fatalf("err = %v, want ErrDeleteAbsent", err)
	}
	if got := totalOf(t, e); got != 1 {
		t.Fatalf("failed update leaked state: total = %d, want 1", got)
	}
	// Deleting a tuple inserted (and exhausted) within the same delta fails
	// too: insert-then-delete-then-delete nets to one delete too many.
	d2 := NewDelta().
		Insert("R1", []relation.Value{5, 6}).
		Delete("R1", []relation.Value{5, 6}).
		Delete("R1", []relation.Value{5, 6})
	if _, _, err := e.Update(d2); !errors.Is(err, ErrDeleteAbsent) {
		t.Fatalf("insert-delete-delete err = %v, want ErrDeleteAbsent", err)
	}
	// Unknown relations and arity mismatches are schema errors.
	if _, _, err := e.Update(NewDelta().Insert("NoSuch", []relation.Value{1, 2})); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if _, _, err := e.Update(NewDelta().Insert("R1", []relation.Value{1})); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

// TestUpdateMatchesFreshEngine compares an updated engine against a fresh
// compile on the ApplyDelta-mutated database: identical deduplicated
// relations, counts, and per-node materializations.
func TestUpdateMatchesFreshEngine(t *testing.T) {
	q, db := path2DB(
		[][]relation.Value{{1, 2}, {3, 4}, {5, 6}, {1, 2}},
		[][]relation.Value{{2, 7}, {4, 1}, {6, 3}},
	)
	e, err := New(q, db)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDelta().
		Delete("R1", []relation.Value{3, 4}).
		Insert("R1", []relation.Value{7, 2}).
		Insert("R2", []relation.Value{2, 2}, []relation.Value{2, 2}). // dup within delta
		Delete("R2", []relation.Value{6, 3}).
		Insert("R2", []relation.Value{6, 3}) // delete-then-reinsert moves it to the end
	up, _, err := e.Update(d)
	if err != nil {
		t.Fatal(err)
	}
	mutated, err := ApplyDelta(db, d)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(q, mutated)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := totalOf(t, up), totalOf(t, fresh); got != want {
		t.Fatalf("updated total = %d, fresh = %d", got, want)
	}
	for _, name := range fresh.DB().Names() {
		if !up.DB().Get(name).Equal(fresh.DB().Get(name)) {
			t.Fatalf("relation %s diverged:\n updated %v\n fresh %v", name, up.DB().Get(name), fresh.DB().Get(name))
		}
	}
	for id := range fresh.Exec().Rels {
		if !up.Exec().Rels[id].Equal(fresh.Exec().Rels[id]) {
			t.Fatalf("node %d relation diverged", id)
		}
	}
	// Maintained counting state must equal a fresh pass over the new exec.
	want := yannakakis.Count(up.Exec())
	got := up.Counts()
	if got.Total.Cmp(want.Total) != 0 {
		t.Fatalf("maintained total %s, recounted %s", got.Total, want.Total)
	}
}

// TestUpdateSelfJoin: a delta against a self-joined relation fans out to
// every atom occurrence of the rewrite.
func TestUpdateSelfJoin(t *testing.T) {
	q := query.New(
		query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}},
		query.Atom{Rel: "R", Vars: []query.Var{"y", "z"}},
	)
	db := relation.NewDatabase()
	db.Add(relation.FromRows("R", 2, [][]relation.Value{{1, 2}, {2, 3}, {3, 1}}))
	e, err := New(q, db)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDelta().Insert("R", []relation.Value{2, 4}).Delete("R", []relation.Value{3, 1})
	up, _, err := e.Update(d)
	if err != nil {
		t.Fatal(err)
	}
	mutated, err := ApplyDelta(db, d)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(q, mutated)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := totalOf(t, up), totalOf(t, fresh); got != want {
		t.Fatalf("self-join updated total = %d, fresh = %d", got, want)
	}
	want := len(testutil.BruteForce(q, mutated))
	if got := totalOf(t, up); int(got) != want {
		t.Fatalf("self-join total = %d, brute force = %d", got, want)
	}
}

// TestUpdateUnreferencedRelation: a delta touching a relation outside the
// query updates the database view but keeps the compiled answer structures.
func TestUpdateUnreferencedRelation(t *testing.T) {
	q := testutil.PathQuery(2)
	db := relation.NewDatabase()
	db.Add(relation.FromRows("R1", 2, [][]relation.Value{{1, 2}}))
	db.Add(relation.FromRows("R2", 2, [][]relation.Value{{2, 7}}))
	db.Add(relation.FromRows("Extra", 1, [][]relation.Value{{42}}))
	e, err := New(q, db)
	if err != nil {
		t.Fatal(err)
	}
	before := e.Counts()
	up, _, err := e.Update(NewDelta().Insert("Extra", []relation.Value{43}).Delete("Extra", []relation.Value{42}))
	if err != nil {
		t.Fatal(err)
	}
	if up.Counts() != before {
		t.Fatal("unreferenced delta recounted")
	}
	got := up.DB().Get("Extra")
	if got.Len() != 1 || got.Get(0, 0) != 43 {
		t.Fatalf("Extra after delta = %v", got)
	}
	if got := totalOf(t, up); got != 1 {
		t.Fatalf("total = %d, want 1", got)
	}
}

// TestUpdateEmptyDelta returns the receiver unchanged.
func TestUpdateEmptyDelta(t *testing.T) {
	e := fig1Engine(t)
	up, _, err := e.Update(NewDelta())
	if err != nil {
		t.Fatal(err)
	}
	if up != e {
		t.Fatal("empty delta derived a new engine")
	}
	up2, _, err := e.Update(nil)
	if err != nil || up2 != e {
		t.Fatalf("nil delta: %v, %v", up2, err)
	}
}

// TestUpdateReportsChange pins what Update tells its caller about the answer
// set: nothing for an empty delta, a pure multiplicity change or a relation
// outside the query; the touched nodes' row changes for a set-level change
// (one per atom occurrence of a self-joined relation); Rebuilt, with no row
// record, behind a hypertree decomposition.
func TestUpdateReportsChange(t *testing.T) {
	q, db := path2DB(
		[][]relation.Value{{1, 2}, {3, 4}, {1, 2}},
		[][]relation.Value{{2, 7}, {4, 1}},
	)
	db.Add(relation.FromRows("Extra", 1, [][]relation.Value{{42}}))
	e, err := New(q, db)
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*Delta{
		"empty":        NewDelta(),
		"multiplicity": NewDelta().Insert("R1", []relation.Value{3, 4}).Delete("R1", []relation.Value{1, 2}),
		"outside":      NewDelta().Insert("Extra", []relation.Value{43}),
	} {
		if _, ch, err := e.Update(d); err != nil || ch.AnswersChanged() {
			t.Errorf("%s delta: change %+v, err %v; want the zero Change", name, ch, err)
		}
	}
	up, ch, err := e.Update(NewDelta().Insert("R2", []relation.Value{4, 9}).Delete("R1", []relation.Value{3, 4}))
	if err != nil || !ch.AnswersChanged() || ch.Rebuilt || len(ch.Nodes) != 2 {
		t.Fatalf("set-level delta: change %+v, err %v; want two node changes", ch, err)
	}
	for _, nc := range ch.Nodes {
		if nc.NewLen != up.Exec().Rels[nc.Node].Len() || nc.OldLen != e.Exec().Rels[nc.Node].Len() {
			t.Errorf("node %d: change %d→%d rows, relations %d→%d", nc.Node, nc.OldLen, nc.NewLen,
				e.Exec().Rels[nc.Node].Len(), up.Exec().Rels[nc.Node].Len())
		}
	}

	self := query.New(
		query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}},
		query.Atom{Rel: "R", Vars: []query.Var{"y", "z"}},
	)
	sdb := relation.NewDatabase()
	sdb.Add(relation.FromRows("R", 2, [][]relation.Value{{1, 2}, {2, 3}}))
	se, err := New(self, sdb)
	if err != nil {
		t.Fatal(err)
	}
	if _, ch, err := se.Update(NewDelta().Insert("R", []relation.Value{3, 1})); err != nil || len(ch.Nodes) != 2 {
		t.Errorf("self-join delta: change %+v, err %v; want one node change per occurrence", ch, err)
	}

	tri := query.New(
		query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}},
		query.Atom{Rel: "S", Vars: []query.Var{"y", "z"}},
		query.Atom{Rel: "T", Vars: []query.Var{"z", "x"}},
	)
	tdb := relation.NewDatabase()
	tdb.Add(relation.FromRows("R", 2, [][]relation.Value{{1, 2}}))
	tdb.Add(relation.FromRows("S", 2, [][]relation.Value{{2, 3}}))
	tdb.Add(relation.FromRows("T", 2, [][]relation.Value{{3, 1}}))
	te, err := New(tri, tdb)
	if err != nil {
		t.Fatal(err)
	}
	if _, ch, err := te.Update(NewDelta().Insert("R", []relation.Value{4, 2})); err != nil || !ch.Rebuilt || ch.Nodes != nil {
		t.Errorf("decomposed delta: change %+v, err %v; want Rebuilt", ch, err)
	}
	if _, ch, err := te.Update(NewDelta().Insert("R", []relation.Value{1, 2})); err != nil || ch.AnswersChanged() {
		t.Errorf("decomposed multiplicity delta: change %+v, err %v; want the zero Change", ch, err)
	}
}
