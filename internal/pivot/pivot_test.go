package pivot

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/selection"
	"github.com/quantilejoins/qjoin/internal/testutil"
	"github.com/quantilejoins/qjoin/internal/workload"
	"github.com/quantilejoins/qjoin/internal/yannakakis"
)

func selectPivot(t testing.TB, q *query.Query, db *relation.Database, f *ranking.Func) (*Result, error) {
	t.Helper()
	tree, err := jointree.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	e, err := jointree.NewExecWorkers(q, db, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	mu, err := f.AssignVars(q)
	if err != nil {
		t.Fatal(err)
	}
	return SelectWorkers(e, f, mu, 1)
}

// Figure 2 of the paper: under full SUM with identity weights, the pivot of
// the Figure 1 instance computed for the R-tuple (1,1) is
// (x1:1, x2:1, x3:4, x4:6, x5:8). The overall pivot (artificial root, counts
// 9 vs 4) selects exactly that partial answer. The figure's join tree roots
// at R with children S and T and grandchild U, so the test pins that tree
// (GYO may legally pick a different root, which yields a different but
// equally valid c-pivot).
func TestFigure2Pivot(t *testing.T) {
	q, db := testutil.Fig1Instance()
	f := ranking.NewSum("x1", "x2", "x3", "x4", "x5")
	// Atoms: 0=R, 1=S, 2=T, 3=U. Parents: S->R, T->R, U->T.
	tree := jointree.FromParent(q, []int{-1, 0, 0, 2}, 0)
	e, err := jointree.NewExecWorkers(q, db, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	mu, err := f.AssignVars(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SelectWorkers(e, f, mu, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[query.Var]relation.Value{"x1": 1, "x2": 1, "x3": 4, "x4": 6, "x5": 8}
	idx := q.VarIndex()
	for v, val := range want {
		if res.Assignment[idx[v]] != val {
			t.Fatalf("pivot[%s] = %d, want %d (full pivot %v)", v, res.Assignment[idx[v]], val, res.Assignment)
		}
	}
	if res.Weight.K != 1+1+4+6+8 {
		t.Fatalf("pivot weight = %d", res.Weight.K)
	}
	if n, _ := res.Count.Uint64(); n != 13 {
		t.Fatalf("count = %d", n)
	}
	if res.C <= 0 || res.C > 0.5 {
		t.Fatalf("c = %v out of range", res.C)
	}
}

func TestNoAnswers(t *testing.T) {
	q := query.New(
		query.Atom{Rel: "A", Vars: []query.Var{"x"}},
		query.Atom{Rel: "B", Vars: []query.Var{"x"}},
	)
	db := relation.NewDatabase()
	db.Add(relation.FromRows("A", 1, [][]relation.Value{{1}}))
	db.Add(relation.FromRows("B", 1, [][]relation.Value{{2}}))
	if _, err := selectPivot(t, q, db, ranking.NewSum("x")); err != ErrNoAnswers {
		t.Fatalf("err = %v", err)
	}
}

// checkCPivot verifies Definition 3.1 against brute force.
func checkCPivot(t *testing.T, q *query.Query, db *relation.Database, f *ranking.Func, res *Result) {
	t.Helper()
	answers := testutil.BruteForce(q, db)
	below, equal := testutil.RankOf(answers, f, q.Vars(), res.Weight)
	n := len(answers)
	atMost := below + equal // answers ⪯ pivot under some tie-break
	atLeast := n - below    // answers ⪰ pivot
	need := res.C * float64(n)
	if float64(atMost) < need || float64(atLeast) < need {
		t.Fatalf("not a %.4f-pivot: n=%d, ⪯=%d, ⪰=%d (weight %v)", res.C, n, atMost, atLeast, res.Weight)
	}
	// The pivot must be an actual answer.
	found := false
	for _, a := range answers {
		same := true
		for i := range a {
			if a[i] != res.Assignment[i] {
				same = false
				break
			}
		}
		if same {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("pivot %v is not a query answer", res.Assignment)
	}
	// The reported weight must match the assignment's weight.
	if f.Compare(f.AnswerWeight(q.Vars(), res.Assignment), res.Weight) != 0 {
		t.Fatal("reported weight differs from assignment weight")
	}
}

func TestPivotIsCPivotRandomSum(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		q, db := testutil.RandomTreeInstance(rng, 2+rng.Intn(3), 1+rng.Intn(12), 4)
		f := ranking.NewSum(q.Vars()...)
		res, err := selectPivot(t, q, db, f)
		if err == ErrNoAnswers {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		checkCPivot(t, q, db, f, res)
	}
}

func TestPivotIsCPivotMinMax(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 60; trial++ {
		q, db := testutil.RandomStarInstance(rng, 2+rng.Intn(3), 1+rng.Intn(10), 5)
		vars := q.Vars()
		for _, f := range []*ranking.Func{ranking.NewMin(vars...), ranking.NewMax(vars...)} {
			res, err := selectPivot(t, q, db, f)
			if err == ErrNoAnswers {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			checkCPivot(t, q, db, f, res)
		}
	}
}

func TestPivotIsCPivotLex(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		q, db := testutil.RandomPathInstance(rng, 2+rng.Intn(2), 1+rng.Intn(10), 3)
		vars := q.Vars()
		f := ranking.NewLex(vars[0], vars[len(vars)-1])
		res, err := selectPivot(t, q, db, f)
		if err == ErrNoAnswers {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		checkCPivot(t, q, db, f, res)
	}
}

func TestPivotPartialSum(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 40; trial++ {
		q, db := testutil.RandomPathInstance(rng, 3, 1+rng.Intn(10), 4)
		f := ranking.NewSum("x1", "x2", "x3") // partial
		res, err := selectPivot(t, q, db, f)
		if err == ErrNoAnswers {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		checkCPivot(t, q, db, f, res)
	}
}

// With custom (negative) weights the pivot property must still hold.
func TestPivotCustomWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 30; trial++ {
		q, db := testutil.RandomPathInstance(rng, 2, 1+rng.Intn(10), 5)
		f := ranking.NewSum(q.Vars()...)
		f.Weight = func(v query.Var, x relation.Value) int64 { return -3 * x }
		res, err := selectPivot(t, q, db, f)
		if err == ErrNoAnswers {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		checkCPivot(t, q, db, f, res)
	}
}

func TestPivotDanglingTuples(t *testing.T) {
	// The pivot must never select a dangling tuple's value.
	q := query.New(
		query.Atom{Rel: "A", Vars: []query.Var{"x", "y"}},
		query.Atom{Rel: "B", Vars: []query.Var{"y", "z"}},
	)
	db := relation.NewDatabase()
	db.Add(relation.FromRows("A", 2, [][]relation.Value{{1, 10}, {1000, 99}}))
	db.Add(relation.FromRows("B", 2, [][]relation.Value{{10, 5}, {10, 6}, {10, 7}}))
	f := ranking.NewSum("x", "y", "z")
	res, err := selectPivot(t, q, db, f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment[0] != 1 {
		t.Fatalf("pivot used dangling tuple: %v", res.Assignment)
	}
	checkCPivot(t, q, db, f, res)
}

func BenchmarkPivotPath3(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	q, db := testutil.RandomPathInstance(rng, 3, 1<<14, 1<<10)
	f := ranking.NewSum(q.Vars()...)
	tree, _ := jointree.Build(q)
	mu, _ := f.AssignVars(q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, _ := jointree.NewExecWorkers(q, db, tree, 1)
		if _, err := SelectWorkers(e, f, mu, 1); err != nil && err != ErrNoAnswers {
			b.Fatal(err)
		}
	}
}

// pivotWeightDigest folds the pivot weights selected on this file's random
// fixtures (same seeds and shapes as the tests above, plus one instance whose
// join groups are large enough for every pivot rule of the selection package)
// into one FNV-1a hash.
func pivotWeightDigest(t *testing.T, workers int) uint64 {
	h := fnv.New64a()
	add := func(q *query.Query, db *relation.Database, f *ranking.Func) {
		tree, err := jointree.Build(q)
		if err != nil {
			t.Fatal(err)
		}
		e, err := jointree.NewExecWorkers(q, db, tree, 1)
		if err != nil {
			t.Fatal(err)
		}
		mu, err := f.AssignVars(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SelectWorkers(e, f, mu, workers)
		if err == ErrNoAnswers {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%d%v;", res.Weight.K, res.Weight.Vec)
	}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		q, db := testutil.RandomTreeInstance(rng, 2+rng.Intn(3), 1+rng.Intn(12), 4)
		add(q, db, ranking.NewSum(q.Vars()...))
	}
	rng = rand.New(rand.NewSource(22))
	for trial := 0; trial < 60; trial++ {
		q, db := testutil.RandomStarInstance(rng, 2+rng.Intn(3), 1+rng.Intn(10), 5)
		add(q, db, ranking.NewMin(q.Vars()...))
		add(q, db, ranking.NewMax(q.Vars()...))
	}
	rng = rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		q, db := testutil.RandomPathInstance(rng, 2+rng.Intn(2), 1+rng.Intn(10), 3)
		vars := q.Vars()
		add(q, db, ranking.NewLex(vars[0], vars[len(vars)-1]))
	}
	rng = rand.New(rand.NewSource(24))
	for trial := 0; trial < 40; trial++ {
		q, db := testutil.RandomPathInstance(rng, 3, 1+rng.Intn(10), 4)
		add(q, db, ranking.NewSum("x1", "x2", "x3"))
	}
	rng = rand.New(rand.NewSource(26))
	q, db := workload.Star(rng, 3, 6000, 12, 1000) // join groups of ~400 tuples
	vars := q.Vars()
	for _, f := range []*ranking.Func{ranking.NewSum(vars...), ranking.NewMin(vars...), ranking.NewMax(vars...), ranking.NewLex("y3", "y1")} {
		add(q, db, f)
	}
	return h.Sum64()
}

// The selection package's pivot rule decides which member of a tie class a
// weighted median returns, never its weight: the pivot weights Algorithm 2
// selects are those of the median-of-medians-only implementation (digest
// recorded at the commit before introselect), at every worker count.
func TestPivotWeightsIndependentOfSelectionRule(t *testing.T) {
	const medianOfMediansDigest = 0x361529a4350a39b2
	for _, workers := range []int{1, 2, 8} {
		if got := pivotWeightDigest(t, workers); got != medianOfMediansDigest {
			t.Fatalf("workers=%d: pivot-weight digest %#x, want %#x", workers, got, uint64(medianOfMediansDigest))
		}
	}
}

// callbackMedian is the weighted median as the pass called it before the typed
// kernel: items named by index, ordered and weighed through callbacks. It
// ranks the items by less (equal items share a rank) and hands the ranks to
// the kernel in the items' order; the selection package's own tests tie the
// kernel to the callback introselect item for item, tie members included.
func callbackMedian(live []int, less func(a, b int) bool, mult func(i int) counting.Count) int {
	order := slices.Clone(live)
	sort.SliceStable(order, func(i, j int) bool { return less(order[i], order[j]) })
	rank := make(map[int]int64, len(order))
	for k, it := range order {
		rank[it] = int64(k)
		if k > 0 && !less(order[k-1], it) {
			rank[it] = rank[order[k-1]]
		}
	}
	es := make([]selection.Entry, len(live))
	mults := make([]counting.Count, 1+slices.Max(live))
	for k, it := range live {
		es[k] = selection.Entry{Key: rank[it], Item: it}
		mults[it] = mult(it)
	}
	return selection.MedianItem(es, selection.Vectors{Mult: mults})
}

// referenceSelect is Algorithm 2 as SelectPrepared ran it before the flat
// weight arrays: a ranking.Weightv per tuple, built with the TupleWeigher and
// Combine, compared through f.Compare inside a callback median. Sequential, no
// scratch.
func referenceSelect(e *jointree.Exec, counts *yannakakis.Counts, f *ranking.Func, mu map[query.Var]int) *Result {
	nNodes := len(e.T.Nodes)
	weights := make([][]ranking.Weightv, nNodes)
	selTuple := make([][]int, nNodes)
	cParam := make([]float64, nNodes)
	liveOf := func(id int, tuples []int32) []int {
		var live []int
		for _, ti := range tuples {
			if !counts.Tuple[id][ti].IsZero() {
				live = append(live, int(ti))
			}
		}
		return live
	}
	median := func(id int, live []int) int {
		ws := weights[id]
		return callbackMedian(live,
			func(a, b int) bool { return f.Compare(ws[a], ws[b]) < 0 },
			func(i int) counting.Count { return counts.Tuple[id][i] })
	}
	for _, id := range e.T.BottomUp {
		n := e.T.Nodes[id]
		rel := e.Rels[id]
		tw := ranking.NewTupleWeigher(f, mu, n.Atom, n.Vars)
		ws := make([]ranking.Weightv, rel.Len())
		c := 1.0
		for _, ch := range n.Children {
			c *= cParam[ch] / 2
		}
		cParam[id] = c
		for i := range ws {
			if counts.Tuple[id][i].IsZero() {
				continue // dangling tuple; never selected
			}
			w := tw.WeightOf(rel.RowValues(i))
			for _, ch := range n.Children {
				gid, _ := e.ParentGroup(ch, i)
				w = f.Combine(w, weights[ch][selTuple[ch][gid]])
			}
			ws[i] = w
		}
		weights[id] = ws
		if n.Parent >= 0 {
			groups := e.Groups[id]
			sel := make([]int, groups.NumGroups())
			for g := range sel {
				sel[g] = -1
				if live := liveOf(id, groups.Tuples[g]); len(live) > 0 {
					sel[g] = median(id, live)
				}
			}
			selTuple[id] = sel
		}
	}
	root := e.T.Root
	all := make([]int32, e.Rels[root].Len())
	for i := range all {
		all[i] = int32(i)
	}
	rootSel := median(root, liveOf(root, all))
	varIdx := e.Q.VarIndex()
	asn := make([]relation.Value, len(varIdx))
	var fill func(id, ti int)
	fill = func(id, ti int) {
		n := e.T.Nodes[id]
		cols := e.Rels[id].Cols()
		for j, v := range n.Vars {
			asn[varIdx[v]] = cols[j][ti]
		}
		for _, ch := range n.Children {
			gid, _ := e.ParentGroup(ch, ti)
			fill(ch, selTuple[ch][gid])
		}
	}
	fill(root, rootSel)
	return &Result{Assignment: asn, Weight: weights[root][rootSel], C: cParam[root] / 2, Count: counts.Total}
}

// SelectPrepared returns the callback pass's Result — assignment, weight, C
// and count — on the differential corpus under every ranking family, with
// default and custom weights, at every worker count, with and without a
// scratch; the one scratch is reused across all instances, large and small.
func TestSelectPreparedMatchesCallbackPass(t *testing.T) {
	custom := func(v query.Var, x relation.Value) int64 { return (x*7+int64(len(v)))%11 - 5 }
	var scratch Scratch
	for _, inst := range testutil.FuzzCorpus(rand.New(rand.NewSource(31))) {
		q, db := query.EliminateSelfJoins(inst.Q, inst.DB)
		tree, err := jointree.Build(q)
		if err != nil {
			t.Fatal(err)
		}
		e, err := jointree.NewExecWorkers(q, db, tree, 1)
		if err != nil {
			t.Fatal(err)
		}
		counts := yannakakis.CountWorkers(e, 1)
		v := q.Vars()
		ranks := append([]*ranking.Func{ranking.NewSum(v[0], v[1]), ranking.NewMin(v...), ranking.NewMax(v...), ranking.NewLex(v...)}, inst.Ranks...)
		for _, f := range slices.Clone(ranks) {
			ranks = append(ranks, &ranking.Func{Agg: f.Agg, Vars: f.Vars, Weight: custom})
		}
		for _, f := range ranks {
			mu, err := f.AssignVars(q)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceSelect(e, counts, f, mu)
			for _, workers := range []int{1, 2, 8} {
				for _, s := range []*Scratch{nil, &scratch} {
					got, err := SelectPrepared(e, counts, f, mu, workers, s)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got.Assignment, want.Assignment) || got.Weight.K != want.Weight.K ||
						!slices.Equal(got.Weight.Vec, want.Weight.Vec) || got.C != want.C || got.Count != want.Count {
						t.Fatalf("%s %s%v custom=%v workers=%d scratch=%v:\n got %+v\nwant %+v",
							inst.Name, f.Agg, f.Vars, f.Weight != nil, workers, s != nil, got, want)
					}
				}
			}
		}
	}
}
