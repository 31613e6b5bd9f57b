package query_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/testutil"
)

func atom(rel string, vars ...query.Var) query.Atom { return query.Atom{Rel: rel, Vars: vars} }

func dbOf(rels ...*relation.Relation) *relation.Database {
	db := relation.NewDatabase()
	for _, r := range rels {
		db.Add(r)
	}
	return db
}

// checkNormalize holds Normalize to its contract on one instance: the result
// is in normal form, answers the source query's answers (the oracle applies
// the repeated-variable equality itself), keeps every source relation, leaves
// its inputs alone, and atom i's relation is RowMapOf(src atom i) of its
// source — on whole relations and row by row.
func checkNormalize(t *testing.T, name string, src *query.Query, db *relation.Database) (*query.Query, *relation.Database) {
	t.Helper()
	before := src.String()
	q, ndb := query.Normalize(src, db)
	if src.String() != before {
		t.Fatalf("%s: Normalize changed its input query to %s", name, src)
	}
	if !q.IsNormalized() {
		t.Fatalf("%s: %s is not in normal form", name, q)
	}
	if err := q.Validate(ndb); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !slices.Equal(q.Vars(), src.Vars()) {
		t.Fatalf("%s: variables %v, source has %v", name, q.Vars(), src.Vars())
	}
	for _, rel := range db.Names() {
		if ndb.Get(rel) != db.Get(rel) {
			t.Fatalf("%s: source relation %s is not carried over as it is", name, rel)
		}
	}
	want, got := testutil.BruteForce(src, db), testutil.BruteForce(q, ndb)
	if !testutil.SameAnswerSet(got, want) {
		t.Fatalf("%s: %s has %d answers, %s has %d", name, q, len(got), src, len(want))
	}
	for i, a := range src.Atoms {
		m, from, to := query.RowMapOf(a), db.Get(a.Rel), ndb.Get(q.Atoms[i].Rel)
		if m.Identity() != !a.RepeatsVar() {
			t.Fatalf("%s: atom %s: identity map %v", name, a, m.Identity())
		}
		if m.Identity() && (to.Len() != from.Len() || (from.Len() > 0 && &to.Col(0)[0] != &from.Col(0)[0])) {
			t.Fatalf("%s: atom %s: an occurrence that repeats nothing must share its relation's columns", name, a)
		}
		var rows [][]relation.Value
		for r := 0; r < from.Len(); r++ {
			rows = append(rows, from.RowValues(r))
		}
		mapped := m.Rows(rows)
		if m.Identity() && len(rows) > 0 && &mapped[0] != &rows[0] {
			t.Fatalf("%s: atom %s: the identity map must hand the row list back", name, a)
		}
		if !relation.FromRows(to.Name(), to.Arity(), mapped).Equal(to) {
			t.Fatalf("%s: atom %s: RowMap.Rows and RowMap.Relation disagree", name, a)
		}
		if to.IsDistinct() != from.IsDistinct() {
			t.Fatalf("%s: atom %s: distinct marker %v, source %v", name, a, to.IsDistinct(), from.IsDistinct())
		}
	}
	return q, ndb
}

func TestNormalizeNamedCases(t *testing.T) {
	r3 := relation.FromRows("R", 3, [][]relation.Value{{1, 5, 1}, {1, 6, 2}, {2, 5, 2}, {3, 3, 3}, {1, 5, 1}})
	r2 := relation.FromRows("R", 2, [][]relation.Value{{1, 1}, {1, 2}, {2, 2}, {2, 1}, {1, 1}, {2, 2}})
	s2 := relation.FromRows("S", 2, [][]relation.Value{{5, 7}, {6, 7}, {3, 8}, {1, 9}, {2, 9}})
	cases := []struct {
		name    string
		q       *query.Query
		db      *relation.Database
		answers int
	}{
		{"R(x,y,x)", query.New(atom("R", "x", "y", "x")), dbOf(r3), 3},
		{"R(x,y,x),S(y,z)", query.New(atom("R", "x", "y", "x"), atom("S", "y", "z")), dbOf(r3, s2), 3},
		{"R(x,x)", query.New(atom("R", "x", "x")), dbOf(r2), 2},
		{"R(x,x,x)", query.New(atom("R", "x", "x", "x")), dbOf(r3), 1},
		{"self-join of a repeated-variable atom", query.New(atom("R", "x", "y"), atom("R", "y", "y")), dbOf(r2), 4},
		{"repeated-variable atom first", query.New(atom("R", "y", "y"), atom("R", "x", "y")), dbOf(r2), 4},
		{"the same repeat twice", query.New(atom("R", "x", "x"), atom("R", "y", "y")), dbOf(r2), 4},
		{"every row violates the equality", query.New(atom("R", "x", "x"), atom("S", "x", "z")),
			dbOf(relation.FromRows("R", 2, [][]relation.Value{{1, 2}, {2, 1}}), s2), 0},
		{"distinct input stays distinct", query.New(atom("R", "x", "x"), atom("S", "x", "z")), dbOf(r2.DedupedWorkers(1), s2.DedupedWorkers(1)), 2},
	}
	for _, c := range cases {
		q, ndb := checkNormalize(t, c.name, c.q, c.db)
		if got := len(testutil.BruteForce(q, ndb)); got != c.answers {
			t.Errorf("%s: %d answers, want %d", c.name, got, c.answers)
		}
	}

	// Duplicate raw rows collapse after the projection exactly as before it:
	// deduplicating the normalized relation and normalizing the deduplicated
	// one give the same rows in the same order.
	src := query.New(atom("R", "x", "x"))
	q1, db1 := query.Normalize(src, dbOf(r2))
	q2, db2 := query.Normalize(src, dbOf(r2.DedupedWorkers(1)))
	a, b := db1.Get(q1.Atoms[0].Rel).DedupedWorkers(1), db2.Get(q2.Atoms[0].Rel)
	if !a.Equal(b) || a.Len() != 2 || !b.IsDistinct() {
		t.Fatalf("dedup∘normalize gives %v, normalize∘dedup %v", a, b)
	}
}

func TestNormalizeLeavesNormalFormAlone(t *testing.T) {
	q := query.New(atom("R", "x", "y"), atom("S", "y", "z"))
	db := dbOf(relation.FromRows("R", 2, nil), relation.FromRows("S", 2, nil))
	if q2, db2 := query.Normalize(q, db); q2 != q || db2 != db {
		t.Fatal("a query in normal form must pass through unchanged")
	}
	if !q.IsNormalized() || query.New(atom("R", "x", "x")).IsNormalized() || query.New(atom("R", "x"), atom("R", "y")).IsNormalized() {
		t.Fatal("IsNormalized wrong")
	}
}

// EliminateSelfJoins is the same rewrite without the repeated-variable half:
// occurrences share their relation's columns, variable lists stay as written.
func TestEliminateSelfJoinsSharesColumns(t *testing.T) {
	q := query.New(atom("R", "x", "x"), atom("R", "x", "y"))
	r := relation.FromRows("R", 2, [][]relation.Value{{1, 1}, {1, 2}})
	q2, db2 := query.EliminateSelfJoins(q, dbOf(r))
	if q2.HasSelfJoins() || !q2.Atoms[0].RepeatsVar() || q2.Atoms[0].Rel != "R" {
		t.Fatalf("rewrite = %s", q2)
	}
	if occ := db2.Get(q2.Atoms[1].Rel); occ == r || &occ.Col(0)[0] != &r.Col(0)[0] {
		t.Fatal("a self-join occurrence must be a view of its relation, not the relation and not a copy")
	}
}

// Random queries of one to three atoms over a small pool of relations and
// variables — repeats and self-joins arise by chance — against the oracle.
func TestNormalizeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	vars := []query.Var{"x", "y", "z"}
	for trial := 0; trial < 400; trial++ {
		db := relation.NewDatabase()
		arity := map[string]int{"R": 1 + rng.Intn(3), "S": 1 + rng.Intn(3)}
		for name, k := range arity {
			r := relation.New(name, k)
			for i, n := 0, rng.Intn(25); i < n; i++ {
				row := make([]relation.Value, k)
				for j := range row {
					row[j] = rng.Int63n(3)
				}
				r.AppendRow(row)
			}
			if rng.Intn(2) == 0 {
				r = r.DedupedWorkers(1)
			}
			db.Add(r)
		}
		var atoms []query.Atom
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			rel := []string{"R", "S"}[rng.Intn(2)]
			a := query.Atom{Rel: rel}
			for j := 0; j < arity[rel]; j++ {
				a.Vars = append(a.Vars, vars[rng.Intn(len(vars))])
			}
			atoms = append(atoms, a)
		}
		src := query.New(atoms...)
		checkNormalize(t, fmt.Sprintf("trial %d %s", trial, src), src, db)
	}
}
