package qjoin_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/testutil"
	"github.com/quantilejoins/qjoin/internal/trim"
)

// emptyingDelta deletes every stored occurrence of the rows of the first atom's
// relation that agree with its first row on a join column: the join group goes
// empty (ApplyDelta retains it) and the rows it joined with are left dangling.
func emptyingDelta(q *qjoin.Query, db *relation.Database) *qjoin.Delta {
	a := q.Atoms[0]
	col := 0
	for j, v := range a.Vars {
		for _, b := range q.Atoms[1:] {
			if b.HasVar(v) {
				col = j
			}
		}
	}
	rel := db.Get(a.Rel)
	d := qjoin.NewDelta()
	for i := 0; i < rel.Len(); i++ {
		if rel.Get(i, col) == rel.Get(0, col) {
			d.Delete(a.Rel, rel.RowValues(i))
		}
	}
	return d
}

// The exact bands the driver cuts from a plan's engines derive their trees
// whatever the engine's history: compiled fresh, one of three shards, derived
// through three chained deltas — the last of which empties a join group, so the
// tree carries a retained empty group and dangling rows — and restored from a
// snapshot of that. Over the differential corpus, every ranking it lists, open,
// one-sided, proper and empty bands between the plan's own quantile weights,
// Workers 1 and 4: each band's Exec is a fresh build's, field for field, and no
// band of the corpus falls back on the rebuild.
func TestEngineBandsDeriveTheirTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(2404))
	opts := qjoin.Options{Parallelism: 1}
	must := func(p *qjoin.Prepared, err error) *qjoin.Prepared {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cuts, emptyGroups := 0, 0
	for _, c := range testutil.FuzzCorpus(rng) {
		db := qjoin.WrapDB(c.DB)
		fresh := must(qjoin.Prepare(c.Q, db, opts))
		sharded := must(qjoin.PrepareSharded(c.Q, db, 3, opts))
		updated, updatedSharded, cur := fresh, sharded, db
		for round := 0; round < 3; round++ {
			d := randomDelta(rng, cur.Unwrap(), db.Relations(), 15, 20)
			if round == 2 {
				d = emptyingDelta(c.Q, cur.Unwrap())
			}
			var err error
			if cur, err = cur.Apply(d); err != nil {
				t.Fatal(err)
			}
			updated, updatedSharded = must(updated.Update(d)), must(updatedSharded.Update(d))
		}
		for _, pl := range []struct {
			name string
			p    *qjoin.Prepared
		}{
			{"fresh", fresh}, {"3 shards", sharded}, {"3 deltas", updated},
			{"3 deltas at 3 shards", updatedSharded}, {"restored", snapRoundTrip(t, updated)},
		} {
			for _, eng := range qjoin.Engines(pl.p) {
				for _, g := range eng.Exec().Groups {
					for gid := 0; g != nil && gid < g.NumGroups(); gid++ {
						if len(g.Tuples[gid]) == 0 {
							emptyGroups++
						}
					}
				}
			}
			for i, f := range c.Ranks {
				at := func(phi float64) ranking.Bound {
					a, err := pl.p.Quantile(f, phi)
					if err != nil {
						t.Fatalf("%s %s: %v", c.Name, pl.name, err)
					}
					return ranking.Finite(a.Weight)
				}
				lo, hi := at(0.3), at(0.7)
				for s, eng := range qjoin.Engines(pl.p) {
					inst := trim.Instance{Q: eng.Query(), DB: eng.DB(), Workers: 1 + 3*(i%2), Exec: eng.Exec(), Cache: eng.TrimCache()}
					for _, b := range [][2]ranking.Bound{{lo, hi}, {ranking.NegInf(), hi}, {lo, ranking.PosInf()}, {ranking.NegInf(), ranking.PosInf()}, {hi, lo}} {
						name := fmt.Sprintf("%s %s shard %d %s%v (%v, %v)", c.Name, pl.name, s, f.Agg, f.Vars, b[0], b[1])
						var out trim.Instance
						var err error
						if f.Agg == ranking.Sum {
							out, err = trim.SumAdjacentBand(inst, f, b[0], b[1])
						} else {
							out, err = trim.Band(inst, f, b[0], b[1])
						}
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if out.Exec == nil {
							t.Fatalf("%s: the band carries no Exec", name)
						}
						tree, err := jointree.Build(out.Q)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						rebuilt, err := jointree.NewExecWorkers(out.Q, out.DB, tree, 1)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						testutil.SameExec(t, name, out.Exec, rebuilt)
						cuts++
					}
				}
			}
		}
	}
	if emptyGroups == 0 {
		t.Fatal("no engine here carries a retained empty group; the emptying delta has stopped emptying one")
	}
	t.Logf("%d bands, each derived; %d retained empty groups among the engines", cuts, emptyGroups)
}
