package pivot

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/testutil"
	"github.com/quantilejoins/qjoin/internal/trim"
	"github.com/quantilejoins/qjoin/internal/workload"
	"github.com/quantilejoins/qjoin/internal/yannakakis"
)

// checkWeigh holds the weight pass over (e, counts) to the weights of the
// enumerated answers, weighed one by one (ranking.AnswerWeigher): element for
// element, in order, after whatever dst held. It returns the number of answers.
func checkWeigh(t *testing.T, name string, e *jointree.Exec, counts *yannakakis.Counts, f *ranking.Func) int {
	t.Helper()
	mu, err := f.AssignVars(e.Q)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	aw := ranking.NewAnswerWeigher(f, e.Q.Vars())
	var want []int64
	answers := 0
	yannakakis.Enumerate(e, counts, func(asn []relation.Value) bool {
		if w := aw.WeightOf(asn); f.Agg == ranking.Lex {
			want = append(want, w.Vec...)
		} else {
			want = append(want, w.K)
		}
		answers++
		return true
	})
	held := []int64{-7, 42}
	got, n := Weigh(e, counts, f, mu, slices.Clone(held))
	if n != answers || !slices.Equal(got[:len(held)], held) || !slices.Equal(got[len(held):], want) {
		t.Fatalf("%s %s%v custom=%v: %d answers weighed %v after %v,\nwant %d answers weighing %v",
			name, f.Agg, f.Vars, f.Weight != nil, n, got[len(held):], got[:len(held)], answers, want)
	}
	return answers
}

// rankFamilies are SUM / MIN / MAX / LEX over vars and over a proper subset,
// with the default weights and with a custom Weight.
func rankFamilies(vars []query.Var, more ...*ranking.Func) []*ranking.Func {
	custom := func(v query.Var, x relation.Value) int64 { return (x*7+int64(len(v)))%11 - 5 }
	some := vars[:max(1, len(vars)-1)]
	back := slices.Clone(some) // LEX, least significant first
	slices.Reverse(back)
	ranks := append([]*ranking.Func{
		ranking.NewSum(vars...), ranking.NewMin(vars...), ranking.NewMax(vars...), ranking.NewLex(vars...),
		ranking.NewSum(some...), ranking.NewMin(some...), ranking.NewMax(some...), ranking.NewLex(back...),
	}, more...)
	for _, f := range slices.Clone(ranks) {
		ranks = append(ranks, &ranking.Func{Agg: f.Agg, Vars: f.Vars, Weight: custom})
	}
	return ranks
}

func compile(t *testing.T, q *query.Query, db *relation.Database) (*jointree.Exec, *yannakakis.Counts) {
	t.Helper()
	tree, err := jointree.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	e, err := jointree.NewExec(q, db, tree)
	if err != nil {
		t.Fatal(err)
	}
	return e, yannakakis.Count(e)
}

func TestWeighMatchesAnswerWeigher(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	zeroRoots, zeroInner := 0, 0
	for _, inst := range testutil.FuzzCorpus(rng) {
		q, raw := query.EliminateSelfJoins(inst.Q, inst.DB)
		db := relation.NewDatabase()
		for _, name := range raw.Names() {
			db.Add(raw.Get(name).Deduped())
		}
		e, counts := compile(t, q, db)
		for _, f := range rankFamilies(q.Vars(), inst.Ranks...) {
			checkWeigh(t, inst.Name, e, counts, f)
		}
		// Counts maintained over chained deltas: tuples of the root and of the
		// internal nodes that count zero, and groups that lost every one.
		for gen := 0; gen < 3; gen++ {
			deltas := make(map[string]jointree.RelDelta)
			for ri, name := range e.DB.Names() {
				r := e.DB.Get(name)
				var d jointree.RelDelta
				for _, i := range rng.Perm(r.Len())[:min(r.Len(), 1+rng.Intn(4))] {
					d.RemovedRows = append(d.RemovedRows, r.RowValues(i))
				}
				// Rows of values no other row has: they join nothing.
				for k := 0; k < 2; k++ {
					row := make([]relation.Value, r.Arity())
					for j := range row {
						row[j] = relation.Value(1000 + 100*ri + 10*gen + 2*k + j%2)
					}
					d.AddedRows = append(d.AddedRows, row)
				}
				deltas[name] = d
			}
			derived, changes, err := e.ApplyDelta(deltas)
			if err != nil {
				t.Fatal(err)
			}
			e, counts = derived, yannakakis.UpdateCounts(counts, derived, changes)
			for _, n := range e.T.Nodes {
				for _, c := range counts.Tuple[n.ID] {
					if c.IsZero() && n.Parent < 0 {
						zeroRoots++
					} else if c.IsZero() {
						zeroInner++
					}
				}
			}
			for _, f := range rankFamilies(q.Vars()) {
				checkWeigh(t, fmt.Sprintf("%s after %d deltas", inst.Name, gen+1), e, counts, f)
			}
		}
	}
	if zeroRoots == 0 || zeroInner == 0 {
		t.Errorf("%d root tuples and %d tuples of internal nodes counted zero after the deltas: a depth went untested", zeroRoots, zeroInner)
	}
	shapes := map[string]func() (*query.Query, *relation.Database){
		"path":   func() (*query.Query, *relation.Database) { return workload.Path(rng, 4, 60, 6) },
		"star":   func() (*query.Query, *relation.Database) { return workload.Star(rng, 3, 40, 8, 5) },
		"tree":   func() (*query.Query, *relation.Database) { return workload.Hierarchy(rng, 60, 5) },
		"dense2": func() (*query.Query, *relation.Database) { return workload.Path(rng, 2, 200, 4) },
		"single": func() (*query.Query, *relation.Database) {
			r := relation.New("R", 3)
			for i := 0; i < 50; i++ {
				r.Append(rng.Int63n(5), rng.Int63n(5), rng.Int63n(5))
			}
			db := relation.NewDatabase()
			db.Add(r.Deduped())
			return query.New(query.Atom{Rel: "R", Vars: []query.Var{"x", "y", "z"}}), db
		},
	}
	for name, build := range shapes {
		q, raw := build()
		db := relation.NewDatabase()
		for _, rel := range raw.Names() {
			db.Add(raw.Get(rel).Deduped())
		}
		e, counts := compile(t, q, db)
		total := 0
		for _, f := range rankFamilies(q.Vars()) {
			total += checkWeigh(t, name, e, counts, f)
		}
		if total == 0 {
			t.Errorf("%s: no answers: nothing was weighed", name)
		}
	}
}

// A band of the adjacent-pair SUM trim carries the trim's helper variable and
// per-partition copies of the rows: the pass weighs its answers as the
// ranking weighs their projections.
func TestWeighTrimmedInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	q, raw := workload.Path(rng, 3, 80, 6)
	db := relation.NewDatabase()
	for _, name := range raw.Names() {
		db.Add(raw.Get(name).Deduped())
	}
	custom := func(v query.Var, x relation.Value) int64 { return 3*x - int64(len(v)) }
	for _, f := range []*ranking.Func{ranking.NewSum("x1", "x2", "x3"), ranking.NewSum("x2", "x4"), {Agg: ranking.Sum, Vars: []query.Var{"x1", "x3"}, Weight: custom}} {
		for _, band := range [][2]int64{{4, 9}, {-100, 6}, {7, 100}} {
			low, high := ranking.Finite(ranking.Weightv{K: band[0]}), ranking.Finite(ranking.Weightv{K: band[1]})
			out, err := trim.SumAdjacentBand(trim.Instance{Q: q, DB: db, Workers: 1}, f, low, high)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Q.Vars()) == len(q.Vars()) {
				t.Fatalf("band %v of %s%v carries no helper variable", band, f.Agg, f.Vars)
			}
			e, counts := compile(t, out.Q, out.DB)
			if n := checkWeigh(t, fmt.Sprintf("band %v", band), e, counts, f); n == 0 {
				t.Errorf("band %v of %s%v is empty", band, f.Agg, f.Vars)
			}
		}
	}
}
