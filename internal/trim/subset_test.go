package trim

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/testutil"
)

// Every construction refuses a query outside normal form — a wrong answer is
// the alternative: no trim tests the equality a repeated variable stands for.
func TestTrimsRequireNormalForm(t *testing.T) {
	repeated := query.New(
		query.Atom{Rel: "R", Vars: []query.Var{"x", "y", "x"}},
		query.Atom{Rel: "S", Vars: []query.Var{"y", "z"}},
	)
	selfJoin := query.New(
		query.Atom{Rel: "S", Vars: []query.Var{"x", "y"}},
		query.Atom{Rel: "S", Vars: []query.Var{"y", "z"}},
	)
	db := relation.NewDatabase()
	db.Add(relation.FromRows("R", 3, [][]relation.Value{{1, 2, 1}, {1, 2, 3}}))
	db.Add(relation.FromRows("S", 2, [][]relation.Value{{2, 4}}))
	w := ranking.Finite(ranking.Weightv{K: 3})
	for name, q := range map[string]*query.Query{"repeated variable": repeated, "self-join": selfJoin} {
		inst := Instance{Q: q, DB: db}
		if _, err := Band(inst, ranking.NewMax("x", "z"), ranking.NegInf(), w); err == nil {
			t.Errorf("%s: Band accepted it", name)
		}
		if _, err := Lex(inst, ranking.NewLex("x", "z"), []int64{1, 1}, Greater); err == nil {
			t.Errorf("%s: Lex accepted it", name)
		}
		if _, err := SumAdjacentBand(inst, ranking.NewSum("x", "y"), ranking.NegInf(), w); err == nil {
			t.Errorf("%s: SumAdjacentBand accepted it", name)
		}
		if _, _, err := SumLossy(inst, ranking.NewSum("x", "y", "z"), 3, Less, 0.1); err == nil {
			t.Errorf("%s: SumLossy accepted it", name)
		}
	}
}

// The filter trims test each row once, with or without an executable tree —
// before, the database relation and the tree's copy of it were each scanned —
// and with one, their output's relations are the derived tree's own.
func TestFilterTrimsTestEachRowOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 20; trial++ {
		q, raw := testutil.RandomPathInstance(rng, 3, 30+rng.Intn(60), 7)
		db := relation.NewDatabase()
		for _, name := range raw.Names() {
			db.Add(raw.Get(name).Deduped())
		}
		tree, err := jointree.Build(q)
		if err != nil {
			t.Fatal(err)
		}
		e, err := jointree.NewExec(q, db, tree)
		if err != nil {
			t.Fatal(err)
		}
		var calls atomic.Int64
		counting := func(_ query.Var, x relation.Value) int64 { calls.Add(1); return x }
		lambda := ranking.Finite(ranking.Weightv{K: 2 + rng.Int63n(4)})
		rowsOf := func(rel string) int64 { return int64(db.Get(rel).Len()) }
		cuts := []struct {
			name string
			cut  func(Instance) (Instance, error)
			want int64 // weight evaluations: one per row per ranked column
		}{
			{"MAX ≺ λ, one box", func(inst Instance) (Instance, error) {
				return Band(inst, &ranking.Func{Agg: ranking.Max, Vars: []query.Var{"x1", "x2", "x3"}, Weight: counting}, ranking.NegInf(), lambda)
			}, rowsOf("R1")*2 + rowsOf("R2")*2 + rowsOf("R3")},
			{"single-node SUM band", func(inst Instance) (Instance, error) {
				return SumAdjacentBand(inst, &ranking.Func{Agg: ranking.Sum, Vars: []query.Var{"x2", "x3"}, Weight: counting}, ranking.NegInf(), lambda)
			}, rowsOf("R2") * 2},
		}
		for _, c := range cuts {
			for _, inst := range []Instance{{Q: q, DB: db, Workers: 1 + 3*(trial%2)}, {Q: q, DB: db, Exec: e, Workers: 1 + 3*(trial%2)}} {
				name := fmt.Sprintf("trial %d %s exec=%v", trial, c.name, inst.Exec != nil)
				calls.Store(0)
				out, err := c.cut(inst)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := calls.Load(); got != c.want {
					t.Errorf("%s: %d weight evaluations, want %d (each row of each tested relation once)", name, got, c.want)
				}
				if inst.Exec == nil {
					continue
				}
				for id, rel := range out.Exec.Rels {
					if out.DB.Get(q.Atoms[id].Rel) != rel || out.Exec.DB != out.DB {
						t.Fatalf("%s: output relation %s is not the derived tree's", name, q.Atoms[id].Rel)
					}
				}
				// Same rows as the cut without a tree, relation by relation.
				plain, err := c.cut(Instance{Q: q, DB: db, Workers: inst.Workers})
				if err != nil {
					t.Fatal(err)
				}
				for _, rel := range plain.DB.Names() {
					if !plain.DB.Get(rel).Equal(out.DB.Get(rel)) {
						t.Fatalf("%s: relation %s differs from the cut without a tree", name, rel)
					}
				}
			}
		}
	}
}
