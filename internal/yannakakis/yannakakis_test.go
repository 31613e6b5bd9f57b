package yannakakis

import (
	"math/rand"
	"testing"

	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/testutil"
)

func execOf(t testing.TB, q *query.Query, db *relation.Database) *jointree.Exec {
	t.Helper()
	tree, err := jointree.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	e, err := jointree.NewExec(q, db, tree)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// Figure 1 of the paper: the count must be 13, and the R-tuple (1,1) must
// root 9 partial answers while (2,2) roots 4.
func TestFigure1Counts(t *testing.T) {
	q, db := testutil.Fig1Instance()
	e := execOf(t, q, db)
	c := Count(e)
	if got, _ := c.Total.Uint64(); got != 13 {
		t.Fatalf("|Q(D)| = %d, want 13", got)
	}
	// Find the node holding relation R.
	for _, n := range e.T.Nodes {
		if q.Atoms[n.Atom].Rel != "R" {
			continue
		}
		rel := e.Rels[n.ID]
		for i := 0; i < rel.Len(); i++ {
			row := rel.RowValues(i)
			want := uint64(9)
			if row[0] == 2 {
				want = 4
			}
			// Only check when R is an internal node covering both children,
			// which holds in the GYO tree of this query (R is the root).
			if n.Parent == -1 {
				if got, _ := c.Tuple[n.ID][i].Uint64(); got != want {
					t.Fatalf("cnt(R%v) = %d, want %d", row, got, want)
				}
			}
		}
	}
}

func TestCountMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		q, db := testutil.RandomTreeInstance(rng, 2+rng.Intn(4), 1+rng.Intn(12), 4)
		e := execOf(t, q, db)
		want := len(testutil.BruteForce(q, db))
		got, _ := Count(e).Total.Uint64()
		if got != uint64(want) {
			t.Fatalf("trial %d: count = %d, want %d (query %s)", trial, got, want, q)
		}
	}
}

func TestCountPathsAndStars(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		q, db := testutil.RandomPathInstance(rng, 2+rng.Intn(3), 1+rng.Intn(10), 3)
		e := execOf(t, q, db)
		if got, _ := Count(e).Total.Uint64(); got != uint64(len(testutil.BruteForce(q, db))) {
			t.Fatalf("path count mismatch on %s", q)
		}
		q2, db2 := testutil.RandomStarInstance(rng, 2+rng.Intn(3), 1+rng.Intn(10), 3)
		e2 := execOf(t, q2, db2)
		if got, _ := Count(e2).Total.Uint64(); got != uint64(len(testutil.BruteForce(q2, db2))) {
			t.Fatalf("star count mismatch on %s", q2)
		}
	}
}

func TestEnumerateMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		q, db := testutil.RandomTreeInstance(rng, 2+rng.Intn(3), 1+rng.Intn(10), 4)
		e := execOf(t, q, db)
		got := Materialize(e)
		want := testutil.BruteForce(q, db)
		if !testutil.SameAnswerSet(got, want) {
			t.Fatalf("trial %d: enumerate mismatch: got %d answers, want %d (query %s)",
				trial, len(got), len(want), q)
		}
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	q, db := testutil.Fig1Instance()
	e := execOf(t, q, db)
	seen := 0
	Enumerate(e, Count(e), func([]relation.Value) bool {
		seen++
		return seen < 5
	})
	if seen != 5 {
		t.Fatalf("early stop after %d answers", seen)
	}
}

func TestEmptyJoin(t *testing.T) {
	q := query.New(
		query.Atom{Rel: "A", Vars: []query.Var{"x"}},
		query.Atom{Rel: "B", Vars: []query.Var{"x"}},
	)
	db := relation.NewDatabase()
	db.Add(relation.FromRows("A", 1, [][]relation.Value{{1}}))
	db.Add(relation.FromRows("B", 1, [][]relation.Value{{2}}))
	e := execOf(t, q, db)
	if !Count(e).Total.IsZero() {
		t.Fatal("disjoint join must count 0")
	}
	if got := Materialize(e); len(got) != 0 {
		t.Fatalf("materialized %d answers from empty join", len(got))
	}
}

func TestCartesianProductCount(t *testing.T) {
	q := query.New(
		query.Atom{Rel: "A", Vars: []query.Var{"x"}},
		query.Atom{Rel: "B", Vars: []query.Var{"y"}},
	)
	db := relation.NewDatabase()
	a := relation.New("A", 1)
	b := relation.New("B", 1)
	for i := 0; i < 100; i++ {
		a.Append(relation.Value(i))
		b.Append(relation.Value(i))
	}
	db.Add(a)
	db.Add(b)
	e := execOf(t, q, db)
	if got, _ := Count(e).Total.Uint64(); got != 10000 {
		t.Fatalf("cross product count = %d", got)
	}
}

func TestHugeCountNoOverflow(t *testing.T) {
	// 5 unary atoms over disjoint vars, 2^13 tuples each: (2^13)^5 = 2^65
	// answers, beyond uint64? No — 2^65 > 2^64, exercising the 128-bit path.
	var atoms []query.Atom
	db := relation.NewDatabase()
	for i := 0; i < 5; i++ {
		name := string(rune('A' + i))
		atoms = append(atoms, query.Atom{Rel: name, Vars: []query.Var{query.Var(rune('u' + i))}})
		rel := relation.New(name, 1)
		for j := 0; j < 1<<13; j++ {
			rel.Append(relation.Value(j))
		}
		db.Add(rel)
	}
	q := query.New(atoms...)
	e := execOf(t, q, db)
	got := Count(e).Total
	want := counting.FromUint64(1 << 13)
	for i := 0; i < 4; i++ {
		want = want.Mul(counting.FromUint64(1 << 13))
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("count = %s, want %s", got, want)
	}
}

func TestCountAfterFullReduceUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		q, db := testutil.RandomTreeInstance(rng, 3, 8, 3)
		e1 := execOf(t, q, db)
		before := Count(e1).Total
		e2 := execOf(t, q, db)
		e2.FullReduce()
		after := Count(e2).Total
		if before.Cmp(after) != 0 {
			t.Fatalf("full reduce changed count: %s -> %s", before, after)
		}
	}
}

func BenchmarkCountPath3(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	q, db := testutil.RandomPathInstance(rng, 3, 1<<14, 1<<10)
	tree, _ := jointree.Build(q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, _ := jointree.NewExec(q, db, tree)
		Count(e)
	}
}

func BenchmarkEnumerate(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	q, db := testutil.RandomPathInstance(rng, 3, 1<<8, 1<<4)
	tree, _ := jointree.Build(q)
	e, _ := jointree.NewExec(q, db, tree)
	c := Count(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		Enumerate(e, c, func([]relation.Value) bool { n++; return true })
	}
}
