package core

import (
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

// Consistency: whenever the classifier says tractable, the exact driver must
// accept (no ErrIntractable), and vice versa for SUM.
func TestClassifierDriverConsistency(t *testing.T) {
	cases := []struct {
		q  *query.Query
		uw []query.Var
	}{
		{testutil.PathQuery(3), []query.Var{"x1", "x2", "x3"}},
		{testutil.PathQuery(3), testutil.PathQuery(3).Vars()},
		{testutil.StarQuery(3), []query.Var{"y1", "y2"}},
		{testutil.StarQuery(3), []query.Var{"y1", "y2", "y3"}},
		{testutil.PathQuery(2), testutil.PathQuery(2).Vars()},
	}
	for _, c := range cases {
		db := makeTinyDB(c.q)
		f := ranking.NewSum(c.uw...)
		_, _, err := Quantile(engines(t, c.q, db), f, 0.5, Options{MaterializeThreshold: 1})
		gotTractable := err != ErrIntractable
		wantTractable := ClassifySum(c.q, c.uw).Tractable
		if gotTractable != wantTractable {
			t.Fatalf("query %s U_w=%v: driver tractable=%v classifier=%v (err=%v)",
				c.q, c.uw, gotTractable, wantTractable, err)
		}
	}
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
