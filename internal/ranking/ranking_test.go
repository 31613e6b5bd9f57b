package ranking

import (
	"testing"
	"testing/quick"

	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/relation"
)

func q3path() *query.Query {
	return query.New(
		query.Atom{Rel: "R1", Vars: []query.Var{"x1", "x2"}},
		query.Atom{Rel: "R2", Vars: []query.Var{"x2", "x3"}},
		query.Atom{Rel: "R3", Vars: []query.Var{"x3", "x4"}},
	)
}

func TestAggString(t *testing.T) {
	if Sum.String() != "SUM" || Min.String() != "MIN" || Max.String() != "MAX" || Lex.String() != "LEX" {
		t.Fatal("agg names wrong")
	}
}

func TestValidate(t *testing.T) {
	q := q3path()
	if err := NewSum("x1", "x2").Validate(q); err != nil {
		t.Fatal(err)
	}
	if err := NewSum().Validate(q); err == nil {
		t.Fatal("empty U_w accepted")
	}
	if err := NewSum("zz").Validate(q); err == nil {
		t.Fatal("unknown variable accepted")
	}
	if err := NewSum("x1", "x1").Validate(q); err == nil {
		t.Fatal("duplicate variable accepted")
	}
}

func TestCombineCompareScalar(t *testing.T) {
	s := NewSum("x1")
	if got := s.Combine(Weightv{K: 3}, Weightv{K: 4}); got.K != 7 {
		t.Fatalf("sum combine = %d", got.K)
	}
	mn := NewMin("x1")
	if got := mn.Combine(Weightv{K: 3}, Weightv{K: 4}); got.K != 3 {
		t.Fatalf("min combine = %d", got.K)
	}
	mx := NewMax("x1")
	if got := mx.Combine(Weightv{K: 3}, Weightv{K: 4}); got.K != 4 {
		t.Fatalf("max combine = %d", got.K)
	}
	if s.Compare(Weightv{K: 1}, Weightv{K: 2}) != -1 ||
		s.Compare(Weightv{K: 2}, Weightv{K: 2}) != 0 ||
		s.Compare(Weightv{K: 3}, Weightv{K: 2}) != 1 {
		t.Fatal("compare wrong")
	}
}

func TestIdentities(t *testing.T) {
	cases := []*Func{NewSum("x1"), NewMin("x1"), NewMax("x1"), NewLex("x1", "x2")}
	val := Weightv{K: 42, Vec: nil}
	for _, f := range cases {
		var w Weightv
		if f.Agg == Lex {
			w = f.VarWeight("x1", 42)
		} else {
			w = val
		}
		got := f.Combine(f.Identity(), w)
		if f.Compare(got, w) != 0 {
			t.Fatalf("%s identity not neutral", f.Agg)
		}
	}
}

func TestLexEmbedding(t *testing.T) {
	f := NewLex("a", "b")
	wa := f.VarWeight("a", 5)
	wb := f.VarWeight("b", 7)
	comb := f.Combine(wa, wb)
	if comb.Vec[0] != 5 || comb.Vec[1] != 7 {
		t.Fatalf("lex combine = %v", comb.Vec)
	}
	// (5,7) < (5,8) < (6,0)
	w2 := f.Combine(f.VarWeight("a", 5), f.VarWeight("b", 8))
	w3 := f.Combine(f.VarWeight("a", 6), f.VarWeight("b", 0))
	if f.Compare(comb, w2) != -1 || f.Compare(w2, w3) != -1 {
		t.Fatal("lex order wrong")
	}
}

func TestVarWeightUnrankedLexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLex("a").VarWeight("b", 1)
}

func TestCustomWeightFn(t *testing.T) {
	f := NewSum("x1")
	f.Weight = func(v query.Var, x relation.Value) int64 { return -x * 2 }
	if f.W("x1", 10) != -20 {
		t.Fatal("custom weight ignored")
	}
	if NewSum("x1").W("x1", 10) != 10 {
		t.Fatal("identity weight wrong")
	}
}

func TestAssignVars(t *testing.T) {
	q := q3path()
	f := NewSum("x2", "x3")
	mu, err := f.AssignVars(q)
	if err != nil {
		t.Fatal(err)
	}
	// Each ranked variable must map to an atom that contains it.
	for v, a := range mu {
		if !q.Atoms[a].HasVar(v) {
			t.Fatalf("μ(%s) = atom %d lacks the variable", v, a)
		}
	}
	if _, err := NewSum("nope").AssignVars(q); err == nil {
		t.Fatal("unknown var accepted")
	}
}

func TestTupleWeigher(t *testing.T) {
	q := q3path()
	f := NewSum("x1", "x2", "x3")
	mu, _ := f.AssignVars(q)
	// Node for atom 0 with vars x1,x2: both μ-assigned to atom 0 (first
	// occurrence), so tuple weight = x1 + x2.
	tw := NewTupleWeigher(f, mu, 0, []query.Var{"x1", "x2"})
	if got := tw.WeightOf([]relation.Value{3, 4}); got.K != 7 {
		t.Fatalf("tuple weight = %d", got.K)
	}
	if got := tw.ScalarSumAt([][]relation.Value{{9, 3}, {9, 4}}, 1); got != 7 {
		t.Fatalf("scalar sum = %d", got)
	}
	// Node for atom 1 with vars x2,x3: x2 belongs to atom 0, x3 to atom 1.
	tw1 := NewTupleWeigher(f, mu, 1, []query.Var{"x2", "x3"})
	if got := tw1.WeightOf([]relation.Value{100, 5}); got.K != 5 {
		t.Fatalf("tuple weight = %d (x2 must not count twice)", got.K)
	}
}

func TestAnswerWeight(t *testing.T) {
	q := q3path()
	vars := q.Vars()
	f := NewSum("x1", "x3")
	asn := []relation.Value{1, 2, 3, 4}
	if got := f.AnswerWeight(vars, asn); got.K != 4 {
		t.Fatalf("answer weight = %d", got.K)
	}
	aw := NewAnswerWeigher(f, vars)
	if got := aw.WeightOf(asn); got.K != 4 {
		t.Fatalf("answer weigher = %d", got.K)
	}
	mn := NewMin("x1", "x3")
	if got := mn.AnswerWeight(vars, asn); got.K != 1 {
		t.Fatalf("min answer weight = %d", got.K)
	}
	mx := NewMax("x1", "x3")
	if got := mx.AnswerWeight(vars, asn); got.K != 3 {
		t.Fatalf("max answer weight = %d", got.K)
	}
}

func TestBounds(t *testing.T) {
	w := Weightv{K: 10}
	if NegInf().Inf != -1 || PosInf().Inf != 1 || Finite(w).W.K != 10 {
		t.Fatal("bounds wrong")
	}
	if !Finite(w).IsFinite() || NegInf().IsFinite() || PosInf().IsFinite() {
		t.Fatal("IsFinite wrong")
	}
}

// Property: subset-monotonicity (Section 2.2). For every aggregate, if
// agg(L1) ⪯ agg(L2) then agg(L ⊎ L1) ⪯ agg(L ⊎ L2).
func TestQuickSubsetMonotone(t *testing.T) {
	aggs := []*Func{NewSum("v"), NewMin("v"), NewMax("v")}
	f := func(l, l1, l2 []int16) bool {
		for _, agg := range aggs {
			a1 := aggList(agg, l1)
			a2 := aggList(agg, l2)
			u1 := aggList(agg, append(append([]int16{}, l...), l1...))
			u2 := aggList(agg, append(append([]int16{}, l...), l2...))
			if agg.Compare(a1, a2) <= 0 && agg.Compare(u1, u2) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func aggList(f *Func, xs []int16) Weightv {
	w := f.Identity()
	for _, x := range xs {
		w = f.Combine(w, Weightv{K: int64(x)})
	}
	return w
}

// Property: LEX subset-monotonicity over disjoint variable assignments.
func TestQuickLexMonotone(t *testing.T) {
	f := NewLex("a", "b", "c")
	check := func(a1, a2, b1, b2 int16) bool {
		// L1 = {a:a1, b:b1}, L2 = {a:a2, b:b2}, L = {c:5}
		w1 := f.Combine(f.VarWeight("a", int64(a1)), f.VarWeight("b", int64(b1)))
		w2 := f.Combine(f.VarWeight("a", int64(a2)), f.VarWeight("b", int64(b2)))
		wc := f.VarWeight("c", 5)
		if f.Compare(w1, w2) <= 0 {
			return f.Compare(f.Combine(wc, w1), f.Combine(wc, w2)) <= 0
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// The in-place answer weigher agrees with the allocating one for every
// aggregate, and a LEX result is a view of the caller's vector.
func TestInPlaceWeighersMatchAllocating(t *testing.T) {
	q := q3path()
	vars := q.Vars()
	row := []relation.Value{4, -2, 9, 5}
	for _, f := range []*Func{NewSum("x1", "x3"), NewMin("x1", "x2"), NewMax("x2", "x4"), NewLex("x3", "x1", "x2")} {
		vec := make([]int64, f.VecLen())
		aw := NewAnswerWeigher(f, vars)
		got, want := aw.WeightInto(vec, row), aw.WeightOf(row)
		if f.Compare(got, want) != 0 || got.K != want.K {
			t.Fatalf("%s: WeightInto = %+v, WeightOf = %+v", f.Agg, got, want)
		}
		if f.Agg == Lex {
			if &got.Vec[0] != &vec[0] {
				t.Fatal("LEX: WeightInto did not write the caller's vector")
			}
			if c := got.Clone(); &c.Vec[0] == &vec[0] {
				t.Fatal("Clone shares the vector")
			}
		}
	}
}

// Key is value identity for default-weight rankings and pointer identity for
// custom ones.
func TestKey(t *testing.T) {
	if NewSum("x", "y").Key() != NewSum("x", "y").Key() {
		t.Fatal("equal rankings have different keys")
	}
	distinct := []*Func{
		NewSum("x", "y"), NewMax("x", "y"), NewMin("x", "y"), NewLex("x", "y"), NewLex("y", "x"),
		NewSum("x"), NewSum("xy"), NewSum("x", "y", "z"), NewSum("ab", "c"), NewSum("a", "bc"),
	}
	seen := map[Key]int{}
	for i, f := range distinct {
		if j, dup := seen[f.Key()]; dup {
			t.Fatalf("rankings %d and %d share a key", j, i)
		}
		seen[f.Key()] = i
	}
	w := func(query.Var, relation.Value) int64 { return 1 }
	g1, g2 := &Func{Agg: Sum, Vars: []query.Var{"x"}, Weight: w}, &Func{Agg: Sum, Vars: []query.Var{"x"}, Weight: w}
	if g1.Key() != g1.Key() || g1.Key() == g2.Key() || g1.Key() == NewSum("x").Key() {
		t.Fatal("a custom-weight ranking must be its own key, and only its own")
	}
}
