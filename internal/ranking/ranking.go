// Package ranking implements the aggregate ranking functions of Section 2.2:
// SUM (full and partial), MIN, MAX, and lexicographic orders (LEX), all in
// the paper's weight-aggregation model.
//
// A ranking function is a pair (w, ⪯): an input-weight function per ranked
// variable plus a subset-monotone aggregate. Weights are int64 so that
// comparisons and partition counting are exact; real-valued weights can be
// scaled to fixed point. LEX is embedded exactly as in the paper: the weight
// domain is a vector with one position per ranked variable, aggregation is
// element-wise addition, and the order is lexicographic.
package ranking

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/relation"
)

// Agg identifies the aggregate of a ranking function.
type Agg int

// Supported aggregates.
const (
	Sum Agg = iota
	Min
	Max
	Lex
)

// String returns the aggregate's name.
func (a Agg) String() string {
	switch a {
	case Sum:
		return "SUM"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Lex:
		return "LEX"
	}
	return fmt.Sprintf("Agg(%d)", int(a))
}

// MaxAbsWeight bounds the absolute value of user weights. The bound leaves
// headroom so that sums over any supported query never overflow int64 and the
// MIN/MAX identity sentinels stay unreachable.
const MaxAbsWeight = int64(1) << 56

// Identity sentinels for MIN and MAX.
const (
	minIdentity = math.MaxInt64
	maxIdentity = math.MinInt64
)

// Func is a concrete ranking function over a query's variables.
type Func struct {
	// Agg is the aggregate combining per-variable weights.
	Agg Agg
	// Vars is U_w, the ranked variables. For Lex the slice order is the
	// significance order (most significant first).
	Vars []query.Var
	// Weight maps a variable's value to its weight w_x(value). A nil Weight
	// uses the value itself.
	Weight func(v query.Var, x relation.Value) int64
}

// NewSum returns a SUM ranking over the given variables (full SUM when all
// query variables are listed).
func NewSum(vars ...query.Var) *Func { return &Func{Agg: Sum, Vars: vars} }

// NewMin returns a MIN ranking over the given variables.
func NewMin(vars ...query.Var) *Func { return &Func{Agg: Min, Vars: vars} }

// NewMax returns a MAX ranking over the given variables.
func NewMax(vars ...query.Var) *Func { return &Func{Agg: Max, Vars: vars} }

// NewLex returns a lexicographic ranking, most significant variable first.
func NewLex(vars ...query.Var) *Func { return &Func{Agg: Lex, Vars: vars} }

// Key is a ranking's identity as a comparable value, for the caches that hold
// per-ranking state (trim preparations, sketch summaries). Rankings with the
// default weights share a key exactly when they have the same aggregate and
// the same variable list, however and whenever they were built; a custom
// Weight function cannot be compared by value, so such a ranking is its own
// key.
type Key struct {
	custom *Func
	spec   string
}

// Key returns f's identity.
func (f *Func) Key() Key {
	if f.Weight != nil {
		return Key{custom: f}
	}
	var sb strings.Builder
	sb.WriteByte(byte(f.Agg))
	for _, v := range f.Vars {
		sb.WriteByte(0)
		sb.WriteString(string(v))
	}
	return Key{spec: sb.String()}
}

// W returns the weight of value x under variable v.
func (f *Func) W(v query.Var, x relation.Value) int64 {
	if f.Weight == nil {
		return x
	}
	return f.Weight(v, x)
}

// Validate checks the ranking against a query.
func (f *Func) Validate(q *query.Query) error {
	if len(f.Vars) == 0 {
		return fmt.Errorf("ranking: no ranked variables")
	}
	seen := make(map[query.Var]bool)
	for _, v := range f.Vars {
		if seen[v] {
			return fmt.Errorf("ranking: duplicate ranked variable %s", v)
		}
		seen[v] = true
		if !q.HasVar(v) {
			return fmt.Errorf("ranking: variable %s not in query", v)
		}
	}
	return nil
}

// lexPos returns the significance position of v, or -1. A linear scan keeps
// Func free of lazily built state: weight computation runs concurrently on
// worker goroutines, and LEX rankings have few variables.
func (f *Func) lexPos(v query.Var) int {
	for i, x := range f.Vars {
		if x == v {
			return i
		}
	}
	return -1
}

// Weightv is a value of the ranking's weight domain dom_w.
// For SUM/MIN/MAX only K is used; for LEX, Vec has one position per ranked
// variable in significance order.
type Weightv struct {
	K   int64
	Vec []int64
}

// VecLen is the length of a weight's vector: one position per ranked variable
// for LEX, none for the scalar aggregates.
func (f *Func) VecLen() int {
	if f.Agg == Lex {
		return len(f.Vars)
	}
	return 0
}

// Clone returns w with a vector of its own.
func (w Weightv) Clone() Weightv {
	return Weightv{K: w.K, Vec: slices.Clone(w.Vec)}
}

// Identity returns the aggregate's neutral element: the weight of an empty
// multiset of input weights.
func (f *Func) Identity() Weightv {
	switch f.Agg {
	case Sum:
		return Weightv{}
	case Min:
		return Weightv{K: minIdentity}
	case Max:
		return Weightv{K: maxIdentity}
	case Lex:
		return Weightv{Vec: make([]int64, len(f.Vars))}
	}
	panic("ranking: unknown aggregate")
}

// Combine aggregates two weights. It is the binary form of agg_w and is
// subset-monotone for every supported aggregate.
func (f *Func) Combine(a, b Weightv) Weightv {
	switch f.Agg {
	case Sum:
		return Weightv{K: a.K + b.K}
	case Min:
		if b.K < a.K {
			return b
		}
		return a
	case Max:
		if b.K > a.K {
			return b
		}
		return a
	case Lex:
		out := make([]int64, len(f.Vars))
		for i := range out {
			out[i] = a.Vec[i] + b.Vec[i]
		}
		return Weightv{Vec: out}
	}
	panic("ranking: unknown aggregate")
}

// Compare orders two weights under ⪯, returning -1, 0 or +1.
func (f *Func) Compare(a, b Weightv) int {
	if f.Agg == Lex {
		for i := range a.Vec {
			switch {
			case a.Vec[i] < b.Vec[i]:
				return -1
			case a.Vec[i] > b.Vec[i]:
				return 1
			}
		}
		return 0
	}
	switch {
	case a.K < b.K:
		return -1
	case a.K > b.K:
		return 1
	}
	return 0
}

// VarWeight embeds the weight of a single variable assignment into dom_w.
func (f *Func) VarWeight(v query.Var, x relation.Value) Weightv {
	w := f.W(v, x)
	if f.Agg != Lex {
		return Weightv{K: w}
	}
	vec := make([]int64, len(f.Vars))
	p := f.lexPos(v)
	if p < 0 {
		panic(fmt.Sprintf("ranking: %s is not a LEX variable", v))
	}
	vec[p] = w
	return Weightv{Vec: vec}
}

// AssignVars computes the μ mapping of Section 2.2: each ranked variable is
// assigned to exactly one atom that contains it, so that converting attribute
// weights to tuple weights never counts a variable twice. The query must be
// self-join free (every atom owns a distinct relation).
func (f *Func) AssignVars(q *query.Query) (map[query.Var]int, error) {
	mu := make(map[query.Var]int, len(f.Vars))
	for _, v := range f.Vars {
		atoms := q.AtomsWithVar(v)
		if len(atoms) == 0 {
			return nil, fmt.Errorf("ranking: variable %s not in query", v)
		}
		mu[v] = atoms[0]
	}
	return mu, nil
}

// TupleWeigher precomputes, for one join-tree node, the function mapping a
// node-relation row to its tuple weight w_R(t): the aggregate of the weights
// of the μ-assigned variables of this atom.
type TupleWeigher struct {
	f        *Func
	vars     []query.Var // μ-assigned ranked vars of this node
	cols     []int       // their column positions in the node relation
	identity Weightv
}

// NewTupleWeigher builds a TupleWeigher for a node with the given atom index
// and column layout nodeVars.
func NewTupleWeigher(f *Func, mu map[query.Var]int, atomIdx int, nodeVars []query.Var) *TupleWeigher {
	tw := &TupleWeigher{f: f, identity: f.Identity()}
	for col, v := range nodeVars {
		if a, ok := mu[v]; ok && a == atomIdx {
			tw.vars = append(tw.vars, v)
			tw.cols = append(tw.cols, col)
		}
	}
	return tw
}

// WeightOf returns the tuple weight of row.
func (tw *TupleWeigher) WeightOf(row []relation.Value) Weightv {
	w := tw.identity
	for i, col := range tw.cols {
		w = tw.f.Combine(w, tw.f.VarWeight(tw.vars[i], row[col]))
	}
	return w
}

// ScalarSumAt returns the int64 partial sum of the μ-assigned weights of row i
// of a columnar node relation. Valid only for Agg == Sum; it avoids Weightv
// boxing in trimming hot loops.
func (tw *TupleWeigher) ScalarSumAt(cols [][]relation.Value, i int) int64 {
	var s int64
	for k, col := range tw.cols {
		s += tw.f.W(tw.vars[k], cols[col][i])
	}
	return s
}

// AnswerWeight computes w(q) for a full assignment laid out per vars.
func (f *Func) AnswerWeight(vars []query.Var, asn []relation.Value) Weightv {
	w := f.Identity()
	pos := make(map[query.Var]int, len(vars))
	for i, v := range vars {
		pos[v] = i
	}
	for _, v := range f.Vars {
		p, ok := pos[v]
		if !ok {
			panic(fmt.Sprintf("ranking: variable %s missing from assignment", v))
		}
		w = f.Combine(w, f.VarWeight(v, asn[p]))
	}
	return w
}

// AnswerWeigher is the reusable-form of AnswerWeight for hot loops.
type AnswerWeigher struct {
	f    *Func
	cols []int
}

// NewAnswerWeigher precomputes positions of the ranked variables within vars.
func NewAnswerWeigher(f *Func, vars []query.Var) *AnswerWeigher {
	pos := make(map[query.Var]int, len(vars))
	for i, v := range vars {
		pos[v] = i
	}
	aw := &AnswerWeigher{f: f}
	for _, v := range f.Vars {
		p, ok := pos[v]
		if !ok {
			panic(fmt.Sprintf("ranking: variable %s missing from layout", v))
		}
		aw.cols = append(aw.cols, p)
	}
	return aw
}

// WeightOf returns w(asn).
func (aw *AnswerWeigher) WeightOf(asn []relation.Value) Weightv {
	w := aw.f.Identity()
	for i, p := range aw.cols {
		w = aw.f.Combine(w, aw.f.VarWeight(aw.f.Vars[i], asn[p]))
	}
	return w
}

// WeightInto is WeightOf without the allocation: a LEX weight is written
// into vec (one position per ranked variable) and returned as a view of it;
// scalar aggregates ignore vec.
func (aw *AnswerWeigher) WeightInto(vec []int64, asn []relation.Value) Weightv {
	if aw.f.Agg != Lex {
		return aw.WeightOf(asn)
	}
	for i, p := range aw.cols {
		vec[i] = aw.f.W(aw.f.Vars[i], asn[p])
	}
	return Weightv{Vec: vec}
}

// Bound is a weight extended with ±∞, used for the low/high search bounds of
// Algorithm 1.
type Bound struct {
	W Weightv
	// Inf is -1 for -∞, +1 for +∞, 0 for a finite bound.
	Inf int
}

// NegInf and PosInf are the unbounded search limits.
func NegInf() Bound { return Bound{Inf: -1} }

// PosInf returns the +∞ bound.
func PosInf() Bound { return Bound{Inf: 1} }

// Finite wraps a weight as a bound.
func Finite(w Weightv) Bound { return Bound{W: w} }

// IsFinite reports whether the bound is a concrete weight.
func (b Bound) IsFinite() bool { return b.Inf == 0 }
