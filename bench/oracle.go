package main

import (
	"fmt"
	"slices"
	"sort"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/core"
	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/server"
	"github.com/quantilejoins/qjoin/internal/testutil"
)

// materialized is Q(D) written out in full: the oracle every exact answer is
// checked against. It never runs inside a timed phase.
type materialized struct {
	vars []query.Var
	rows [][]relation.Value
}

// materialize enumerates every answer of the query once.
func materialize(q *query.Query, db *relation.Database) (*materialized, error) {
	plan, err := qjoin.Prepare(q, qjoin.WrapDB(db))
	if err != nil {
		return nil, err
	}
	m := &materialized{vars: plan.Vars()}
	w := len(m.vars)
	var flat []relation.Value
	err = plan.Enumerate(func(_ []qjoin.Var, vals []qjoin.Value) bool {
		flat = append(flat, vals...)
		return true
	})
	if err != nil {
		return nil, err
	}
	m.rows = make([][]relation.Value, len(flat)/w)
	for i := range m.rows {
		m.rows[i] = flat[i*w : (i+1)*w : (i+1)*w]
	}
	if len(m.rows) == 0 {
		return nil, fmt.Errorf("query %s has no answers on the generated data", q)
	}
	return m, nil
}

// rank orders the answers by the ranking, ties by value — the order the exact
// engine selects in.
func (m *materialized) rank(f *ranking.Func) { testutil.SortByWeight(m.rows, f, m.vars) }

// at returns the φ-quantile of the ranked answers: the one at core.Index(N, φ).
func (m *materialized) at(f *ranking.Func, phi float64) answer {
	k, _ := core.Index(counting.FromInt(len(m.rows)), phi).Uint64()
	row := m.rows[k]
	w := f.AnswerWeight(m.vars, row)
	return answer{Values: row, Weight: server.WireWeight{K: w.K, Vec: w.Vec}}
}

// weights returns the ascending scalar weights of every answer, for checking
// the true rank of an approximate answer.
func (m *materialized) weights(f *ranking.Func) []int64 {
	aw := ranking.NewAnswerWeigher(f, m.vars)
	out := make([]int64, len(m.rows))
	for i, r := range m.rows {
		out[i] = aw.WeightOf(r).K
	}
	slices.Sort(out)
	return out
}

// rankWithin reports whether an answer of weight w can stand at a rank no
// further than eps·N from core.Index(N, φ): the ranks its weight class covers
// must reach into that window.
func rankWithin(sorted []int64, w int64, phi, eps float64) bool {
	n := len(sorted)
	k, _ := core.Index(counting.FromInt(n), phi).Uint64()
	below := sort.Search(n, func(i int) bool { return sorted[i] >= w })
	upto := sort.Search(n, func(i int) bool { return sorted[i] > w })
	if below == upto {
		return false // no answer has this weight
	}
	slack := int(eps * float64(n))
	return below <= int(k)+slack && upto-1 >= int(k)-slack
}

func mustRanking(spec string) *ranking.Func {
	f, err := qjoin.ParseRanking(spec)
	if err != nil {
		panic(err)
	}
	return f
}
