package testutil

import (
	"math/rand"

	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/workload"
)

// FuzzInstance is one randomized (query, database, rankings) triple.
type FuzzInstance struct {
	Name  string
	Q     *query.Query
	DB    *relation.Database
	Ranks []*ranking.Func
}

// FuzzCorpus generates the differential corpus. Relation sizes straddle
// the runtime's sequential-fallback threshold: the large shapes really chunk
// at workers >= 2, the small ones pin the inline path. Duplicate source rows
// are injected everywhere dedup buys coverage — relations are sets, so the
// engine must collapse them while the multiset refcounts keep delete
// validation exact.
func FuzzCorpus(rng *rand.Rand) []FuzzInstance {
	var out []FuzzInstance

	dup := func(db *relation.Database, name string, k int) {
		r := db.Get(name)
		n := r.Len()
		for i := 0; i < k; i++ {
			r.AppendRow(r.RowValues(rng.Intn(n)))
		}
	}

	{
		q, db := workload.Path(rng, 2, 700, 35)
		dup(db, "R1", 40)
		v := q.Vars()
		out = append(out, FuzzInstance{"path2-dups", q, db,
			[]*ranking.Func{ranking.NewSum(v...), ranking.NewMin(v...), ranking.NewMax(v...), ranking.NewLex(v...)}})
	}
	{
		q, db := workload.Path(rng, 3, 600, 24)
		dup(db, "R2", 30)
		out = append(out, FuzzInstance{"path3-dups", q, db,
			[]*ranking.Func{ranking.NewSum("x1", "x2", "x3"), ranking.NewMax(q.Vars()...), ranking.NewLex("x1", "x4")}})
	}
	{
		q, db := workload.Star(rng, 3, 600, 40, 40)
		v := q.Vars()
		// Full SUM on a star is outside the tractable class (Theorem 5.6),
		// so this shape exercises the partition-identifier trims only.
		out = append(out, FuzzInstance{"star3", q, db,
			[]*ranking.Func{ranking.NewMin(v...), ranking.NewMax(v...), ranking.NewLex(v...)}})
	}
	{
		// Self-join: both atoms read the same stored relation, so the
		// columnar layout is shared between two nodes of the join tree.
		q := query.New(query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}}, query.Atom{Rel: "R", Vars: []query.Var{"y", "z"}})
		rows := make([][]relation.Value, 0, 640)
		for i := 0; i < 600; i++ {
			rows = append(rows, []relation.Value{rng.Int63n(26), rng.Int63n(26)})
		}
		for i := 0; i < 40; i++ { // raw duplicates on top
			rows = append(rows, append([]relation.Value(nil), rows[rng.Intn(600)]...))
		}
		db := relation.NewDatabase()
		db.Add(relation.FromRows("R", 2, rows))
		out = append(out, FuzzInstance{"selfjoin-dups", q, db,
			[]*ranking.Func{ranking.NewSum("x", "y", "z"), ranking.NewMin("x", "z"), ranking.NewLex("x", "z")}})
	}
	{
		// Tiny instance: stays under SeqThreshold at every worker count, so
		// multi-worker requests must still take the sequential path and agree.
		q, db := workload.Path(rng, 2, 60, 8)
		dup(db, "R2", 12)
		v := q.Vars()
		out = append(out, FuzzInstance{"tiny-path2", q, db,
			[]*ranking.Func{ranking.NewSum(v...), ranking.NewLex(v...)}})
	}
	return out
}
