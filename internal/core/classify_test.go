package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/testutil"
)

func TestDichotomyPaperExamples(t *testing.T) {
	path3 := testutil.PathQuery(3)
	// Flagship positive case of Section 5.3: 3-path with U_w = {x1,x2,x3}.
	c := ClassifySum(path3, []query.Var{"x1", "x2", "x3"})
	if !c.Tractable || !c.Acyclic || c.MaxIndependent > 2 || c.LongChordlessPath {
		t.Fatalf("3-path partial sum misclassified: %+v", c)
	}
	// Full SUM on the 3-path: chordless path x1..x4 has 4 vertices -> hard.
	c = ClassifySum(path3, []query.Var{"x1", "x2", "x3", "x4"})
	if c.Tractable || !c.LongChordlessPath {
		t.Fatalf("full sum on 3-path misclassified: %+v", c)
	}
	// Endpoints only: same chordless path -> hard.
	c = ClassifySum(path3, []query.Var{"x1", "x4"})
	if c.Tractable {
		t.Fatalf("endpoint sum on 3-path misclassified: %+v", c)
	}
	// mh(H) for the 3-path is 3 (the old full-SUM dichotomy's criterion).
	if c.MaximalHyperedges != 3 {
		t.Fatalf("mh = %d", c.MaximalHyperedges)
	}
}

func TestDichotomyStar(t *testing.T) {
	star := testutil.StarQuery(3)
	// Leaves of a 3-star are an independent triple -> full SUM hard.
	c := ClassifySum(star, []query.Var{"y1", "y2", "y3"})
	if c.Tractable || c.MaxIndependent < 3 {
		t.Fatalf("3-star leaf sum misclassified: %+v", c)
	}
	// Two leaves only (the social-network example): tractable.
	c = ClassifySum(star, []query.Var{"y1", "y2"})
	if !c.Tractable {
		t.Fatalf("social-network sum misclassified: %+v", c)
	}
}

func TestDichotomyBinaryJoin(t *testing.T) {
	// Full SUM over 2 atoms is tractable (Section 2.3, recovered by Thm 5.6).
	path2 := testutil.PathQuery(2)
	c := ClassifySum(path2, []query.Var{"x1", "x2", "x3"})
	if !c.Tractable {
		t.Fatalf("binary join full sum misclassified: %+v", c)
	}
	if c.MaximalHyperedges != 2 {
		t.Fatalf("mh = %d", c.MaximalHyperedges)
	}
}

func TestDichotomyCyclic(t *testing.T) {
	tri := query.New(
		query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}},
		query.Atom{Rel: "S", Vars: []query.Var{"y", "z"}},
		query.Atom{Rel: "T", Vars: []query.Var{"z", "x"}},
	)
	c := ClassifySum(tri, []query.Var{"x"})
	if c.Acyclic || c.Tractable {
		t.Fatalf("triangle misclassified: %+v", c)
	}
}

func TestClassifyRanking(t *testing.T) {
	path3 := testutil.PathQuery(3)
	if ok, _ := ClassifyRanking(path3, ranking.NewMin(path3.Vars()...)); !ok {
		t.Fatal("MIN must be tractable on acyclic queries")
	}
	if ok, _ := ClassifyRanking(path3, ranking.NewMax(path3.Vars()...)); !ok {
		t.Fatal("MAX must be tractable on acyclic queries")
	}
	if ok, _ := ClassifyRanking(path3, ranking.NewLex("x1", "x2")); !ok {
		t.Fatal("LEX must be tractable on acyclic queries")
	}
	if ok, _ := ClassifyRanking(path3, ranking.NewSum(path3.Vars()...)); ok {
		t.Fatal("full SUM on 3-path must be intractable")
	}
	if ok, _ := ClassifyRanking(path3, ranking.NewSum("x1", "x2", "x3")); !ok {
		t.Fatal("partial SUM {x1,x2,x3} on 3-path must be tractable")
	}
	tri := query.New(
		query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}},
		query.Atom{Rel: "S", Vars: []query.Var{"y", "z"}},
		query.Atom{Rel: "T", Vars: []query.Var{"z", "x"}},
	)
	if ok, why := ClassifyRanking(tri, ranking.NewMin("x")); ok || why == "" {
		t.Fatal("cyclic query must be rejected with a reason")
	}
}

// Consistency: the exact driver accepts a SUM ranking (no ErrIntractable)
// exactly when the classifier — Theorem 5.6's conditions, stated independently
// of the driver's join-tree construction — says it is tractable, at every
// query size: the paper's small examples, and 10-, 12- and 16-atom paths,
// stars and caterpillars with the ranked variables on one atom, on two atoms
// some join tree has adjacent, on two it cannot, and on three. Where it
// accepts, the answers are checked against brute force.
func TestClassifierDriverConsistency(t *testing.T) {
	type tc struct {
		q  *query.Query
		uw []query.Var
	}
	cases := []tc{
		{testutil.PathQuery(3), []query.Var{"x1", "x2", "x3"}},
		{testutil.PathQuery(3), testutil.PathQuery(3).Vars()},
		{testutil.StarQuery(3), []query.Var{"y1", "y2"}},
		{testutil.StarQuery(3), []query.Var{"y1", "y2", "y3"}},
		{testutil.PathQuery(2), testutil.PathQuery(2).Vars()},
	}
	v := func(name string, i int) query.Var { return query.Var(fmt.Sprintf("%s%d", name, i)) }
	for _, k := range []int{10, 12, 16} {
		path, star, cat := testutil.PathQuery(k), testutil.StarQuery(k), caterpillarQuery(k)
		cases = append(cases,
			tc{path, []query.Var{"x3", "x4"}},                          // one atom
			tc{path, []query.Var{"x1", "x2", "x3"}},                    // R1, R2
			tc{path, []query.Var{v("x", k-1), v("x", k), v("x", k+1)}}, // the last two atoms
			tc{path, []query.Var{"x1", "x4"}},                          // R1 and R3/R4: never adjacent
			tc{path, []query.Var{"x1", "x3", "x5"}},                    // three atoms
			tc{star, []query.Var{"e", "y2"}},
			tc{star, []query.Var{"y1", v("y", k)}}, // any two leaves can be adjacent
			tc{star, []query.Var{"y1", "y2", v("y", k)}},
			tc{cat, []query.Var{"s1", "l1"}},
			tc{cat, []query.Var{"l1", "s2"}},          // leg L1 and spine S1 share s1
			tc{cat, []query.Var{"l2", "s1", "s2"}},    // leg L2 and spine S1 share s2
			tc{cat, []query.Var{"l1", "l2"}},          // two legs share nothing
			tc{cat, []query.Var{"l1", "l2", "l3"}},    // three legs
			tc{cat, []query.Var{"l1", v("s", k/2+1)}}, // the two ends
		)
	}
	rng := rand.New(rand.NewSource(18))
	tractable := 0
	for _, c := range cases {
		db := makeTinyDB(c.q)
		if len(c.q.Atoms) >= 10 {
			db = makeSmallDB(rng, c.q)
		}
		f := ranking.NewSum(c.uw...)
		opts := Options{MaterializeThreshold: 1}
		a, _, err := Quantile(engines(t, c.q, db), f, 0.5, opts)
		gotTractable := err != ErrIntractable
		wantTractable := ClassifySum(c.q, c.uw).Tractable
		if gotTractable != wantTractable {
			t.Fatalf("query %s U_w=%v: driver tractable=%v classifier=%v (err=%v)",
				c.q, c.uw, gotTractable, wantTractable, err)
		}
		if !gotTractable {
			continue
		}
		if err != nil {
			t.Fatalf("query %s U_w=%v: %v", c.q, c.uw, err)
		}
		tractable++
		checkExact(t, c.q, db, f, 0.5, a)
		for _, phi := range []float64{0, 0.3, 1} {
			if a, _, err = Quantile(engines(t, c.q, db), f, phi, opts); err != nil {
				t.Fatalf("query %s U_w=%v φ=%v: %v", c.q, c.uw, phi, err)
			}
			checkExact(t, c.q, db, f, phi, a)
		}
	}
	if tractable < 20 || tractable > len(cases)-10 {
		t.Fatalf("%d of %d cases tractable: the corpus no longer has both sides", tractable, len(cases))
	}
}

// caterpillarQuery returns a k-atom caterpillar: a spine S1(s1,s2), …,
// Sm(sm,sm+1) of m = k/2 atoms, and a leg Li(si,li) on each of its first k−m
// variables.
func caterpillarQuery(k int) *query.Query {
	m := k / 2
	var atoms []query.Atom
	for i := 1; i <= m; i++ {
		atoms = append(atoms, query.Atom{Rel: fmt.Sprintf("S%d", i),
			Vars: []query.Var{query.Var(fmt.Sprintf("s%d", i)), query.Var(fmt.Sprintf("s%d", i+1))}})
	}
	for i := 1; i <= k-m; i++ {
		atoms = append(atoms, query.Atom{Rel: fmt.Sprintf("L%d", i),
			Vars: []query.Var{query.Var(fmt.Sprintf("s%d", i)), query.Var(fmt.Sprintf("l%d", i))}})
	}
	return query.New(atoms...)
}

// makeSmallDB fills q's relations over the domain {0, 1, 2}: the two constant
// rows that keep every join alive, and three random ones, so a wide query has
// hundreds to thousands of answers with many weight ties — small enough to
// brute-force, and past a materialization threshold of 1 for several rounds.
func makeSmallDB(rng *rand.Rand, q *query.Query) *relation.Database {
	db := relation.NewDatabase()
	for _, a := range q.Atoms {
		rel := relation.New(a.Rel, len(a.Vars))
		for i := 0; i < 5; i++ {
			row := make([]relation.Value, len(a.Vars))
			for j := range row {
				if row[j] = relation.Value(i); i >= 2 {
					row[j] = rng.Int63n(3)
				}
			}
			rel.AppendRow(row)
		}
		db.Add(rel)
	}
	return db
}

func makeTinyDB(q *query.Query) *relation.Database {
	db := relation.NewDatabase()
	for _, a := range q.Atoms {
		rel := relation.New(a.Rel, len(a.Vars))
		for i := int64(0); i < 3; i++ {
			row := make([]relation.Value, len(a.Vars))
			for j := range row {
				row[j] = i
			}
			rel.AppendRow(row)
		}
		db.Add(rel)
	}
	return db
}
