package trim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/testutil"
	"github.com/quantilejoins/qjoin/internal/yannakakis"
)

// materialize evaluates an instance and projects each answer onto the given
// variables (dropping trim helper variables).
func materialize(t testing.TB, inst Instance, onto []query.Var) [][]relation.Value {
	t.Helper()
	tree, err := jointree.Build(inst.Q)
	if err != nil {
		t.Fatalf("trimmed query cyclic: %v", err)
	}
	e, err := jointree.NewExecWorkers(inst.Q, inst.DB, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	all := yannakakis.Materialize(e)
	idx := inst.Q.VarIndex()
	cols := make([]int, len(onto))
	for i, v := range onto {
		p, ok := idx[v]
		if !ok {
			t.Fatalf("variable %s missing from trimmed query", v)
		}
		cols[i] = p
	}
	out := make([][]relation.Value, len(all))
	for i, a := range all {
		row := make([]relation.Value, len(onto))
		for j, c := range cols {
			row[j] = a[c]
		}
		out[i] = row
	}
	return out
}

// satisfying returns the answers of inst whose weight satisfies (dir, λ).
func satisfying(q *query.Query, db *relation.Database, f *ranking.Func, lambda int64, dir Dir) [][]relation.Value {
	var out [][]relation.Value
	aw := ranking.NewAnswerWeigher(f, q.Vars())
	for _, a := range testutil.BruteForce(q, db) {
		w := aw.WeightOf(a)
		if (dir == Less && w.K < lambda) || (dir == Greater && w.K > lambda) {
			out = append(out, a)
		}
	}
	return out
}

func distinct(answers [][]relation.Value) bool {
	seen := make(map[string]bool, len(answers))
	for _, a := range answers {
		k := fmt.Sprint(a)
		if seen[k] {
			return false
		}
		seen[k] = true
	}
	return true
}

func TestMinMaxExample51(t *testing.T) {
	// Example 5.1 flavor: MAX over {x1,x2,x3} with pivot weight 10.
	q := query.New(
		query.Atom{Rel: "R1", Vars: []query.Var{"x1", "x2"}},
		query.Atom{Rel: "R2", Vars: []query.Var{"x2", "x3"}},
	)
	db := relation.NewDatabase()
	db.Add(relation.FromRows("R1", 2, [][]relation.Value{{5, 12}, {11, 3}, {5, 3}, {9, 9}}))
	db.Add(relation.FromRows("R2", 2, [][]relation.Value{{12, 1}, {3, 15}, {3, 2}, {9, 10}}))
	f := ranking.NewMax("x1", "x2", "x3")
	for _, dir := range []Dir{Less, Greater} {
		out, err := MinMax(Instance{Q: q, DB: db}, f, 10, dir)
		if err != nil {
			t.Fatal(err)
		}
		got := materialize(t, out, q.Vars())
		want := satisfying(q, db, f, 10, dir)
		if !testutil.SameAnswerSet(got, want) {
			t.Fatalf("MAX %s 10: got %d answers, want %d", dir, len(got), len(want))
		}
		if !distinct(got) {
			t.Fatal("trim produced duplicates")
		}
	}
}

func TestMinMaxRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 80; trial++ {
		q, db := testutil.RandomTreeInstance(rng, 2+rng.Intn(3), 1+rng.Intn(10), 6)
		vars := q.Vars()
		// Rank over a random non-empty subset.
		var uw []query.Var
		for _, v := range vars {
			if rng.Intn(2) == 0 {
				uw = append(uw, v)
			}
		}
		if len(uw) == 0 {
			uw = vars[:1]
		}
		lambda := rng.Int63n(8)
		dir := Dir(rng.Intn(2))
		var f *ranking.Func
		if rng.Intn(2) == 0 {
			f = ranking.NewMin(uw...)
		} else {
			f = ranking.NewMax(uw...)
		}
		out, err := MinMax(Instance{Q: q, DB: db}, f, lambda, dir)
		if err != nil {
			t.Fatal(err)
		}
		got := materialize(t, out, vars)
		want := satisfying(q, db, f, lambda, dir)
		if !testutil.SameAnswerSet(got, want) {
			t.Fatalf("trial %d: %s %s %d on %s: got %d, want %d",
				trial, f.Agg, dir, lambda, q, len(got), len(want))
		}
	}
}

func TestMinMaxComposes(t *testing.T) {
	// Window low < MIN < high via two successive trims.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		q, db := testutil.RandomStarInstance(rng, 2, 1+rng.Intn(8), 6)
		f := ranking.NewMin(q.Vars()...)
		low, high := int64(1), int64(4)
		step1, err := MinMax(Instance{Q: q, DB: db}, f, high, Less)
		if err != nil {
			t.Fatal(err)
		}
		step2, err := MinMax(step1, f, low, Greater)
		if err != nil {
			t.Fatal(err)
		}
		got := materialize(t, step2, q.Vars())
		var want [][]relation.Value
		aw := ranking.NewAnswerWeigher(f, q.Vars())
		for _, a := range testutil.BruteForce(q, db) {
			if w := aw.WeightOf(a); w.K > low && w.K < high {
				want = append(want, a)
			}
		}
		if !testutil.SameAnswerSet(got, want) {
			t.Fatalf("trial %d: window trim mismatch: got %d, want %d", trial, len(got), len(want))
		}
	}
}

func TestMinMaxRejectsWrongAgg(t *testing.T) {
	q := testutil.PathQuery(2)
	if _, err := MinMax(Instance{Q: q}, ranking.NewSum("x1"), 0, Less); err == nil {
		t.Fatal("SUM accepted by MinMax")
	}
}

func TestMinMaxRejectsSelfJoin(t *testing.T) {
	q := query.New(
		query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}},
		query.Atom{Rel: "R", Vars: []query.Var{"y", "z"}},
	)
	db := relation.NewDatabase()
	db.Add(relation.FromRows("R", 2, nil))
	if _, err := MinMax(Instance{Q: q, DB: db}, ranking.NewMax("x"), 0, Greater); err == nil {
		t.Fatal("self-join accepted")
	}
}

func lexSatisfying(q *query.Query, db *relation.Database, f *ranking.Func, lambda []int64, dir Dir) [][]relation.Value {
	var out [][]relation.Value
	aw := ranking.NewAnswerWeigher(f, q.Vars())
	lamW := ranking.Weightv{Vec: lambda}
	for _, a := range testutil.BruteForce(q, db) {
		c := f.Compare(aw.WeightOf(a), lamW)
		if (dir == Less && c < 0) || (dir == Greater && c > 0) {
			out = append(out, a)
		}
	}
	return out
}

func TestLexRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 60; trial++ {
		q, db := testutil.RandomPathInstance(rng, 2+rng.Intn(2), 1+rng.Intn(8), 5)
		vars := q.Vars()
		r := 1 + rng.Intn(len(vars))
		f := ranking.NewLex(vars[:r]...)
		lambda := make([]int64, r)
		for i := range lambda {
			lambda[i] = rng.Int63n(5)
		}
		dir := Dir(rng.Intn(2))
		out, err := Lex(Instance{Q: q, DB: db}, f, lambda, dir)
		if err != nil {
			t.Fatal(err)
		}
		got := materialize(t, out, vars)
		want := lexSatisfying(q, db, f, lambda, dir)
		if !testutil.SameAnswerSet(got, want) {
			t.Fatalf("trial %d: LEX %s %v: got %d, want %d", trial, dir, lambda, len(got), len(want))
		}
		if !distinct(got) {
			t.Fatal("LEX trim duplicated answers")
		}
	}
}

func TestLexValidation(t *testing.T) {
	q := testutil.PathQuery(2)
	if _, err := Lex(Instance{Q: q}, ranking.NewSum("x1"), []int64{0}, Less); err == nil {
		t.Fatal("SUM accepted by Lex")
	}
	if _, err := Lex(Instance{Q: q}, ranking.NewLex("x1", "x2"), []int64{0}, Less); err == nil {
		t.Fatal("λ arity mismatch accepted")
	}
}

func TestSumAdjacentSingleNode(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 30; trial++ {
		q, db := testutil.RandomPathInstance(rng, 2, 1+rng.Intn(10), 6)
		f := ranking.NewSum("x1", "x2") // both inside atom R1
		lambda := rng.Int63n(12)
		dir := Dir(rng.Intn(2))
		out, err := SumAdjacent(Instance{Q: q, DB: db}, f, lambda, dir)
		if err != nil {
			t.Fatal(err)
		}
		got := materialize(t, out, q.Vars())
		want := satisfying(q, db, f, lambda, dir)
		if !testutil.SameAnswerSet(got, want) {
			t.Fatalf("trial %d: got %d, want %d", trial, len(got), len(want))
		}
	}
}

func TestSumAdjacentBinaryJoinFullSum(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 60; trial++ {
		q, db := testutil.RandomPathInstance(rng, 2, 1+rng.Intn(12), 5)
		f := ranking.NewSum("x1", "x2", "x3")
		lambda := rng.Int63n(15) - 2
		dir := Dir(rng.Intn(2))
		out, err := SumAdjacent(Instance{Q: q, DB: db}, f, lambda, dir)
		if err != nil {
			t.Fatal(err)
		}
		got := materialize(t, out, q.Vars())
		want := satisfying(q, db, f, lambda, dir)
		if !testutil.SameAnswerSet(got, want) {
			t.Fatalf("trial %d: λ=%d dir=%s: got %d, want %d on %s",
				trial, lambda, dir, len(got), len(want), q)
		}
		if !distinct(got) {
			t.Fatal("dyadic trim duplicated answers")
		}
	}
}

func TestSumAdjacentPartialSum3Path(t *testing.T) {
	// The dichotomy's flagship case: 3-path with U_w = {x1, x2, x3}.
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 60; trial++ {
		q, db := testutil.RandomPathInstance(rng, 3, 1+rng.Intn(10), 4)
		f := ranking.NewSum("x1", "x2", "x3")
		lambda := rng.Int63n(10)
		dir := Dir(rng.Intn(2))
		out, err := SumAdjacent(Instance{Q: q, DB: db}, f, lambda, dir)
		if err != nil {
			t.Fatal(err)
		}
		got := materialize(t, out, q.Vars())
		want := satisfying(q, db, f, lambda, dir)
		if !testutil.SameAnswerSet(got, want) {
			t.Fatalf("trial %d: got %d, want %d", trial, len(got), len(want))
		}
	}
}

func TestSumAdjacentStarLeaves(t *testing.T) {
	// Social-network shape: SUM over two leaf variables of a 3-star.
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 40; trial++ {
		q, db := testutil.RandomStarInstance(rng, 3, 1+rng.Intn(8), 4)
		f := ranking.NewSum("y1", "y2")
		lambda := rng.Int63n(8)
		dir := Dir(rng.Intn(2))
		out, err := SumAdjacent(Instance{Q: q, DB: db}, f, lambda, dir)
		if err != nil {
			t.Fatal(err)
		}
		got := materialize(t, out, q.Vars())
		want := satisfying(q, db, f, lambda, dir)
		if !testutil.SameAnswerSet(got, want) {
			t.Fatalf("trial %d: got %d, want %d", trial, len(got), len(want))
		}
	}
}

func TestSumAdjacentComposes(t *testing.T) {
	// Two successive dyadic trims: low < sum < high.
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 40; trial++ {
		q, db := testutil.RandomPathInstance(rng, 3, 1+rng.Intn(8), 4)
		f := ranking.NewSum("x1", "x2", "x3")
		low, high := int64(2), int64(7)
		s1, err := SumAdjacent(Instance{Q: q, DB: db}, f, high, Less)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := SumAdjacent(s1, f, low, Greater)
		if err != nil {
			t.Fatalf("second trim failed (class not preserved): %v", err)
		}
		got := materialize(t, s2, q.Vars())
		var want [][]relation.Value
		aw := ranking.NewAnswerWeigher(f, q.Vars())
		for _, a := range testutil.BruteForce(q, db) {
			if w := aw.WeightOf(a); w.K > low && w.K < high {
				want = append(want, a)
			}
		}
		if !testutil.SameAnswerSet(got, want) {
			t.Fatalf("trial %d: window: got %d, want %d", trial, len(got), len(want))
		}
	}
}

func TestSumAdjacentRejectsHardCase(t *testing.T) {
	// Full SUM on a 3-path has no adjacent-pair cover.
	q := testutil.PathQuery(3)
	db := relation.NewDatabase()
	for _, a := range q.Atoms {
		db.Add(relation.FromRows(a.Rel, 2, nil))
	}
	f := ranking.NewSum("x1", "x2", "x3", "x4")
	if _, err := SumAdjacent(Instance{Q: q, DB: db}, f, 0, Less); err == nil {
		t.Fatal("hard case accepted by exact trimming")
	}
}

func TestSumLossyInjectionAndLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for trial := 0; trial < 60; trial++ {
		q, db := testutil.RandomTreeInstance(rng, 2+rng.Intn(3), 1+rng.Intn(10), 5)
		vars := q.Vars()
		f := ranking.NewSum(vars...)
		lambda := rng.Int63n(16)
		dir := Dir(rng.Intn(2))
		eps := []float64{0.5, 0.3, 0.1}[trial%3]
		out, _, err := SumLossy(Instance{Q: q, DB: db}, f, lambda, dir, eps, LossyOpts{})
		if err != nil {
			t.Fatal(err)
		}
		got := materialize(t, out, vars)
		want := satisfying(q, db, f, lambda, dir)
		if !distinct(got) {
			t.Fatalf("trial %d: lossy trim duplicated answers (injection broken)", trial)
		}
		// Every produced answer must truly satisfy the predicate.
		wantSet := make(map[string]bool, len(want))
		for _, a := range want {
			wantSet[fmt.Sprint(a)] = true
		}
		for _, a := range got {
			if !wantSet[fmt.Sprint(a)] {
				t.Fatalf("trial %d: produced answer %v violates predicate", trial, a)
			}
		}
		if float64(len(got)) < (1-eps)*float64(len(want))-1e-9 {
			t.Fatalf("trial %d: lost too many answers: %d < (1-%v)·%d",
				trial, len(got), eps, len(want))
		}
	}
}

func TestSumLossyGreaterDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 30; trial++ {
		q, db := testutil.RandomPathInstance(rng, 3, 1+rng.Intn(8), 4)
		f := ranking.NewSum(q.Vars()...)
		lambda := rng.Int63n(10)
		out, _, err := SumLossy(Instance{Q: q, DB: db}, f, lambda, Greater, 0.25, LossyOpts{})
		if err != nil {
			t.Fatal(err)
		}
		got := materialize(t, out, q.Vars())
		want := satisfying(q, db, f, lambda, Greater)
		wantSet := make(map[string]bool)
		for _, a := range want {
			wantSet[fmt.Sprint(a)] = true
		}
		for _, a := range got {
			if !wantSet[fmt.Sprint(a)] {
				t.Fatalf("answer %v does not satisfy sum > %d", a, lambda)
			}
		}
		if float64(len(got)) < 0.75*float64(len(want)) {
			t.Fatalf("lost too many: %d of %d", len(got), len(want))
		}
	}
}

func TestSumLossyStarNeedsBinarization(t *testing.T) {
	// A 4-leaf star forces Binarize to duplicate the hub.
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 20; trial++ {
		q, db := testutil.RandomStarInstance(rng, 4, 1+rng.Intn(6), 3)
		f := ranking.NewSum(q.Vars()...)
		lambda := rng.Int63n(12)
		out, _, err := SumLossy(Instance{Q: q, DB: db}, f, lambda, Less, 0.3, LossyOpts{})
		if err != nil {
			t.Fatal(err)
		}
		got := materialize(t, out, q.Vars())
		want := satisfying(q, db, f, lambda, Less)
		if !distinct(got) {
			t.Fatal("duplicated answers after binarization")
		}
		if float64(len(got)) < 0.7*float64(len(want))-1e-9 {
			t.Fatalf("lost too many: %d of %d", len(got), len(want))
		}
	}
}

func TestSumLossyComposes(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 25; trial++ {
		q, db := testutil.RandomPathInstance(rng, 3, 1+rng.Intn(6), 4)
		f := ranking.NewSum(q.Vars()...)
		low, high := int64(3), int64(9)
		eps := 0.2
		s1, _, err := SumLossy(Instance{Q: q, DB: db}, f, high, Less, eps, LossyOpts{})
		if err != nil {
			t.Fatal(err)
		}
		s2, _, err := SumLossy(s1, f, low, Greater, eps, LossyOpts{})
		if err != nil {
			t.Fatalf("lossy trims do not compose: %v", err)
		}
		got := materialize(t, s2, q.Vars())
		var want [][]relation.Value
		aw := ranking.NewAnswerWeigher(f, q.Vars())
		for _, a := range testutil.BruteForce(q, db) {
			if w := aw.WeightOf(a); w.K > low && w.K < high {
				want = append(want, a)
			}
		}
		if !distinct(got) {
			t.Fatal("composition duplicated answers")
		}
		wantSet := make(map[string]bool)
		for _, a := range want {
			wantSet[fmt.Sprint(a)] = true
		}
		for _, a := range got {
			if !wantSet[fmt.Sprint(a)] {
				t.Fatalf("answer %v escapes the window", a)
			}
		}
		if float64(len(got)) < (1-2*eps)*float64(len(want))-1e-9 {
			t.Fatalf("window lost too many: %d of %d", len(got), len(want))
		}
	}
}

func TestSumLossyPaperBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	q, db := testutil.RandomPathInstance(rng, 3, 8, 4)
	f := ranking.NewSum(q.Vars()...)
	outA, statsA, err := SumLossy(Instance{Q: q, DB: db}, f, 6, Less, 0.3, LossyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	outB, statsB, err := SumLossy(Instance{Q: q, DB: db}, f, 6, Less, 0.3, LossyOpts{PaperBudget: true})
	if err != nil {
		t.Fatal(err)
	}
	if statsB.EpsPrime >= statsA.EpsPrime {
		t.Fatalf("paper budget must be stricter: %v vs %v", statsB.EpsPrime, statsA.EpsPrime)
	}
	// Both must satisfy the guarantee; the paper budget keeps at least as
	// many answers (finer buckets).
	gotA := materialize(t, outA, q.Vars())
	gotB := materialize(t, outB, q.Vars())
	if len(gotB) < len(gotA) {
		t.Fatalf("finer sketches lost more answers: %d < %d", len(gotB), len(gotA))
	}
}

func TestSumLossyValidation(t *testing.T) {
	q := testutil.PathQuery(2)
	db := relation.NewDatabase()
	for _, a := range q.Atoms {
		db.Add(relation.FromRows(a.Rel, 2, nil))
	}
	inst := Instance{Q: q, DB: db}
	if _, _, err := SumLossy(inst, ranking.NewMin("x1"), 0, Less, 0.1, LossyOpts{}); err == nil {
		t.Fatal("MIN accepted")
	}
	if _, _, err := SumLossy(inst, ranking.NewSum("x1"), 0, Less, 0, LossyOpts{}); err == nil {
		t.Fatal("ε = 0 accepted")
	}
	if _, _, err := SumLossy(inst, ranking.NewSum("x1"), 0, Less, 1, LossyOpts{}); err == nil {
		t.Fatal("ε = 1 accepted")
	}
}

// TestFigure4Shape reproduces the setting of the paper's Figure 4: a leaf
// S(x,y) sending sums x+y to a parent R(y,z); the lossy trimming of
// x+y+z < λ embeds the sketched sums into the database via a shared helper
// variable, each child row joining exactly one parent copy.
func TestFigure4Shape(t *testing.T) {
	q := query.New(
		query.Atom{Rel: "R", Vars: []query.Var{"y", "z"}},
		query.Atom{Rel: "S", Vars: []query.Var{"x", "y"}},
	)
	db := relation.NewDatabase()
	db.Add(relation.FromRows("R", 2, [][]relation.Value{{1, 6}}))
	db.Add(relation.FromRows("S", 2, [][]relation.Value{{2, 1}, {3, 1}, {4, 1}}))
	f := ranking.NewSum("x", "y", "z")
	// True sums: 2+1+6=9, 10, 11. λ=11 keeps {9,10} exactly.
	out, stats, err := SumLossy(Instance{Q: q, DB: db}, f, 11, Less, 0.5, LossyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Q.Atoms) != 2 {
		t.Fatalf("atoms = %d", len(out.Q.Atoms))
	}
	// Both atoms share exactly one helper variable.
	shared := sharedVars(out.Q.Atoms[0], out.Q.Atoms[1])
	helpers := 0
	for _, v := range shared {
		if strings.HasPrefix(string(v), helperPrefix) {
			helpers++
		}
	}
	if helpers != 1 {
		t.Fatalf("shared helper vars = %d (shared: %v)", helpers, shared)
	}
	got := materialize(t, out, q.Vars())
	want := satisfying(q, db, f, 11, Less)
	if !distinct(got) {
		t.Fatal("Figure 4 embedding duplicated answers")
	}
	if float64(len(got)) < 0.5*float64(len(want)) {
		t.Fatalf("kept %d of %d", len(got), len(want))
	}
	if stats.OutputTuples == 0 || stats.Buckets == 0 {
		t.Fatalf("stats not populated: %+v", stats)
	}
}

// The trimmed instances must stay small: O(n log n) for the dyadic trim.
func TestSumAdjacentOutputSize(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for _, n := range []int{100, 400, 1600} {
		q, db := testutil.RandomPathInstance(rng, 2, n, int64(n/8+1))
		f := ranking.NewSum(q.Vars()...)
		out, err := SumAdjacent(Instance{Q: q, DB: db}, f, int64(n/4), Less)
		if err != nil {
			t.Fatal(err)
		}
		bound := 4 * n * (log2ceil(n) + 1)
		if out.DB.Size() > bound {
			t.Fatalf("n=%d: trimmed size %d exceeds O(n log n) bound %d", n, out.DB.Size(), bound)
		}
	}
}

func log2ceil(n int) int {
	b := 0
	for (1 << uint(b)) < n {
		b++
	}
	return b
}
