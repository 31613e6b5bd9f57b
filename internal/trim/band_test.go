package trim

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/parallel"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/testutil"
	"github.com/quantilejoins/qjoin/internal/workload"
)

// The one-sided MIN / MAX / LEX cuts as they were before Band, when the driver
// composed a band from two of them: a per-variable predicate closure per
// partition, every relation copied once per partition, one identifier column
// per cut. Kept here as the reference Band is checked against.

// refCond is a per-variable weight predicate of one partition.
type refCond struct {
	v    query.Var
	pred func(w int64) bool
}

// refPartitions copies every relation once per partition with the partition's
// conditions applied and a partition-identifier column appended.
func refPartitions(inst Instance, f *ranking.Func, partitions [][]refCond) (Instance, error) {
	if err := requireNormalized(inst.Q); err != nil {
		return Instance{}, err
	}
	q2 := inst.Q.Clone()
	xp := freshHelperVar(q2, "p")
	for i := range q2.Atoms {
		q2.Atoms[i].Vars = append(q2.Atoms[i].Vars, xp)
	}
	db2 := relation.NewDatabase()
	for _, atom := range inst.Q.Atoms {
		src := inst.DB.Get(atom.Rel)
		srcCols := src.Cols()
		var parts []*relation.Relation
		for pi, conds := range partitions {
			var local []refCond
			var cols []int
			for _, c := range conds {
				for j, v := range atom.Vars {
					if v == c.v {
						local = append(local, c)
						cols = append(cols, j)
						break
					}
				}
			}
			pid := relation.Value(pi + 1)
			idxParts := parallel.MapRanges(inst.workers(), src.Len(), func(lo, hi int) []int {
				var rows []int
				for ti := lo; ti < hi; ti++ {
					ok := true
					for k, c := range local {
						if !c.pred(f.W(c.v, srcCols[cols[k]][ti])) {
							ok = false
							break
						}
					}
					if ok {
						rows = append(rows, ti)
					}
				}
				return rows
			})
			rows := slices.Concat(idxParts...)
			pids := make([]relation.Value, len(rows))
			for k := range pids {
				pids[k] = pid
			}
			parts = append(parts, src.GatherRowsPlusParts(atom.Rel, [][]int{rows}, [][]relation.Value{pids}))
		}
		db2.Add(relation.Concat(atom.Rel, src.Arity()+1, src.IsDistinct(), parts))
	}
	return Instance{Q: q2, DB: db2, Workers: inst.Workers}, nil
}

// refFilter keeps the tuples whose every occurrence of a ranked variable
// satisfies the predicate.
func refFilter(inst Instance, f *ranking.Func, pred func(w int64) bool) (Instance, error) {
	if err := requireNormalized(inst.Q); err != nil {
		return Instance{}, err
	}
	db2 := relation.NewDatabase()
	for _, atom := range inst.Q.Atoms {
		src := inst.DB.Get(atom.Rel)
		var cols []int
		var vars []query.Var
		for j, v := range atom.Vars {
			if slices.Contains(f.Vars, v) {
				cols = append(cols, j)
				vars = append(vars, v)
			}
		}
		if len(cols) == 0 {
			db2.Add(src)
			continue
		}
		srcCols := src.Cols()
		db2.Add(src.FilterWorkers(inst.workers(), func(i int) bool {
			for k, c := range cols {
				if !pred(f.W(vars[k], srcCols[c][i])) {
					return false
				}
			}
			return true
		}))
	}
	return Instance{Q: inst.Q.Clone(), DB: db2, Workers: inst.Workers}, nil
}

// refCut trims w ≺ λ (Less) or w ≻ λ (Greater) the old way.
func refCut(inst Instance, f *ranking.Func, lambda ranking.Weightv, dir Dir) (Instance, error) {
	strictly := func(l int64) func(int64) bool {
		if dir == Less {
			return func(w int64) bool { return w < l }
		}
		return func(w int64) bool { return w > l }
	}
	if (f.Agg == ranking.Max && dir == Less) || (f.Agg == ranking.Min && dir == Greater) {
		return refFilter(inst, f, strictly(lambda.K))
	}
	partitions := make([][]refCond, len(f.Vars))
	for i, xi := range f.Vars {
		var conds []refCond
		for j, xj := range f.Vars[:i] {
			switch {
			case f.Agg == ranking.Lex:
				lj := lambda.Vec[j]
				conds = append(conds, refCond{v: xj, pred: func(w int64) bool { return w == lj }})
			case dir == Greater:
				conds = append(conds, refCond{v: xj, pred: func(w int64) bool { return w <= lambda.K }})
			default:
				conds = append(conds, refCond{v: xj, pred: func(w int64) bool { return w >= lambda.K }})
			}
		}
		li := lambda.K
		if f.Agg == ranking.Lex {
			li = lambda.Vec[i]
		}
		partitions[i] = append(conds, refCond{v: xi, pred: strictly(li)})
	}
	return refPartitions(inst, f, partitions)
}

// refBand composes the band from two reference cuts, the high bound's first or
// the low bound's first; an infinite bound is no cut.
func refBand(t *testing.T, inst Instance, f *ranking.Func, low, high ranking.Bound, highFirst bool) Instance {
	t.Helper()
	cuts := []struct {
		b   ranking.Bound
		dir Dir
	}{{low, Greater}, {high, Less}}
	if highFirst {
		slices.Reverse(cuts)
	}
	for _, c := range cuts {
		if !c.b.IsFinite() {
			continue
		}
		var err error
		if inst, err = refCut(inst, f, c.b.W, c.dir); err != nil {
			t.Fatal(err)
		}
	}
	return inst
}

// sourceRows is the multiset of an instance's rows per atom of the original
// query, identifier columns dropped.
func sourceRows(orig *query.Query, inst Instance) []map[[4]relation.Value]int {
	out := make([]map[[4]relation.Value]int, len(orig.Atoms))
	for a, atom := range orig.Atoms {
		out[a] = make(map[[4]relation.Value]int)
		rel := inst.DB.Get(inst.Q.Atoms[a].Rel)
		for i := 0; i < rel.Len(); i++ {
			var k [4]relation.Value
			copy(k[:], rel.RowValues(i)[:len(atom.Vars)])
			out[a][k]++
		}
	}
	return out
}

// cmpBound orders a bound against a weight.
func cmpBound(f *ranking.Func, b ranking.Bound, w ranking.Weightv) int {
	if b.Inf != 0 {
		return b.Inf
	}
	return f.Compare(b.W, w)
}

// bandAnswers filters brute-force answers (laid out per vars) to the band.
func bandAnswers(all [][]relation.Value, vars []query.Var, f *ranking.Func, low, high ranking.Bound) [][]relation.Value {
	var out [][]relation.Value
	aw := ranking.NewAnswerWeigher(f, vars)
	for _, a := range all {
		if w := aw.WeightOf(a); cmpBound(f, low, w) < 0 && cmpBound(f, high, w) > 0 {
			out = append(out, a)
		}
	}
	return out
}

// checkBand holds Band to brute force on the answers and to both compositions
// of reference cuts on the answers and on every relation's rows.
func checkBand(t *testing.T, name string, inst Instance, all [][]relation.Value, f *ranking.Func, low, high ranking.Bound) {
	t.Helper()
	vars := inst.Q.Vars()
	got, err := Band(inst, f, low, high)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	answers := bagOf(materialize(t, got, vars))
	if want := bagOf(bandAnswers(all, vars, f, low, high)); !maps.Equal(answers, want) {
		t.Fatalf("%s: band has %d distinct answers, brute force %d", name, len(answers), len(want))
	}
	rows := sourceRows(inst.Q, got)
	for _, highFirst := range []bool{true, false} {
		ref := refBand(t, inst, f, low, high, highFirst)
		if refAnswers := bagOf(materialize(t, ref, vars)); !maps.Equal(answers, refAnswers) {
			t.Fatalf("%s: band has %d distinct answers, composed cuts (high first: %v) %d", name, len(answers), highFirst, len(refAnswers))
		}
		for a, want := range sourceRows(inst.Q, ref) {
			if !maps.Equal(rows[a], want) {
				t.Fatalf("%s: rows of %s differ from the composed cuts' (high first: %v): %d distinct rows vs %d",
					name, inst.Q.Atoms[a].Rel, highFirst, len(rows[a]), len(want))
			}
		}
	}
}

// bagOf counts rows of up to four values; brute force lists every answer once,
// so a bag equal to its bag has no duplicates.
func bagOf(rows [][]relation.Value) map[[4]relation.Value]int {
	bag := make(map[[4]relation.Value]int, len(rows))
	for _, row := range rows {
		var k [4]relation.Value
		copy(k[:], row)
		bag[k]++
	}
	return bag
}

// boundsFor picks band bounds from the weights the answers really have: the
// open band, one-sided ones, proper bands, a band between equal bounds and a
// reversed one (both empty).
func boundsFor(rng *rand.Rand, all [][]relation.Value, vars []query.Var, f *ranking.Func) [][2]ranking.Bound {
	aw := ranking.NewAnswerWeigher(f, vars)
	at := func() ranking.Bound { return ranking.Finite(aw.WeightOf(all[rng.Intn(len(all))])) }
	lo, hi := at(), at()
	if f.Compare(lo.W, hi.W) > 0 {
		lo, hi = hi, lo
	}
	return [][2]ranking.Bound{
		{ranking.NegInf(), ranking.PosInf()},
		{ranking.NegInf(), hi},
		{lo, ranking.PosInf()},
		{lo, hi},
		{at(), at()},
		{lo, lo},
		{hi, lo},
	}
}

// rankingsOver lists rankings over 1 to 4 of the variables, the aggregate
// rotating through MIN, MAX and LEX from the given start, some with custom
// weights.
func rankingsOver(rng *rand.Rand, vars []query.Var, start int) []*ranking.Func {
	custom := func(v query.Var, x relation.Value) int64 { return (x*5+int64(len(v)))%9 - 4 }
	aggs := []ranking.Agg{ranking.Min, ranking.Max, ranking.Lex}
	var out []*ranking.Func
	for r := 1; r <= min(4, len(vars)); r++ {
		f := &ranking.Func{Agg: aggs[(start+r)%3]}
		for _, p := range rng.Perm(len(vars))[:r] {
			f.Vars = append(f.Vars, vars[p])
		}
		if rng.Intn(3) == 0 {
			f.Weight = custom
		}
		out = append(out, f)
	}
	return out
}

// Band is the two composed cuts and brute force, over the differential corpus
// (a variable shared by two atoms in every shape) and a hand-built instance
// with a variable repeated inside an atom, some of whose rows disagree on it:
// rejected as it stands, cut like any other once query.Normalize has bound the
// atom to the rows that agree.
func TestBandMatchesComposedCutsAndBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	type instance struct {
		name string
		q    *query.Query
		db   *relation.Database
	}
	var insts []instance
	for _, c := range testutil.FuzzCorpus(rng) {
		q, db := query.Normalize(c.Q, c.DB)
		insts = append(insts, instance{c.Name, q, db})
	}
	{
		q := query.New(
			query.Atom{Rel: "R", Vars: []query.Var{"x", "y", "x"}},
			query.Atom{Rel: "S", Vars: []query.Var{"y", "z"}},
		)
		r, s := relation.New("R", 3), relation.New("S", 2)
		for i := 0; i < 120; i++ {
			x := rng.Int63n(7)
			x2 := x
			if i%5 == 0 {
				x2 = rng.Int63n(7)
			}
			r.Append(x, rng.Int63n(5), x2)
			s.Append(rng.Int63n(5), rng.Int63n(7))
		}
		db := relation.NewDatabase()
		db.Add(r)
		db.Add(s)
		if _, err := Band(Instance{Q: q, DB: db}, ranking.NewMax("x"), ranking.NegInf(), ranking.PosInf()); err == nil {
			t.Fatal("Band cut an atom that repeats a variable")
		}
		q, db = query.Normalize(q, db)
		insts = append(insts, instance{"repeated-var", q, db})
	}
	for k, in := range insts {
		all := testutil.BruteForce(in.q, in.db)
		for i, f := range rankingsOver(rng, in.q.Vars(), k) {
			inst := Instance{Q: in.q, DB: in.db, Workers: 1 + 3*(i%2)}
			for _, b := range boundsFor(rng, all, in.q.Vars(), f) {
				name := fmt.Sprintf("%s %s%v custom=%v workers=%d (%v, %v)", in.name, f.Agg, f.Vars, f.Weight != nil, inst.Workers, b[0], b[1])
				checkBand(t, name, inst, all, f, b[0], b[1])
			}
		}
	}
}

// A band of one box is a row filter: given an Exec it returns one, equal to a
// fresh build on its output (the DeriveSubset contract); a band of several
// boxes changes the query and returns one too, derived from the box numbers.
func TestBandOneBoxDerivesExec(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	w := func(k int64) ranking.Bound { return ranking.Finite(ranking.Weightv{K: k}) }
	v := func(k int64) ranking.Bound { return ranking.Finite(ranking.Weightv{Vec: []int64{k}}) }
	for trial := 0; trial < 30; trial++ {
		q, db := testutil.RandomTreeInstance(rng, 2+rng.Intn(3), 20+rng.Intn(60), 8)
		tree, err := jointree.Build(q)
		if err != nil {
			t.Fatal(err)
		}
		e, err := jointree.NewExecWorkers(q, db, tree, 1)
		if err != nil {
			t.Fatal(err)
		}
		vars := q.Vars()
		inst := Instance{Q: q, DB: db, Exec: e, Workers: 1 + 3*(trial%2)}
		lo, hi := rng.Int63n(8), rng.Int63n(8)
		oneBox := []struct {
			f         *ranking.Func
			low, high ranking.Bound
		}{
			{ranking.NewMax(vars...), ranking.NegInf(), w(hi)},
			{ranking.NewMin(vars...), w(lo), ranking.PosInf()},
			{ranking.NewMin(vars...), ranking.NegInf(), ranking.PosInf()},
			{ranking.NewMax(vars[0]), w(lo), w(hi)},
			{ranking.NewMin(vars[len(vars)-1]), w(lo), w(hi)},
			{ranking.NewLex(vars[1]), v(lo), v(hi)},
			{ranking.NewLex(vars...), ranking.NegInf(), ranking.PosInf()},
		}
		for _, c := range oneBox {
			name := fmt.Sprintf("trial %d %s%v (%v, %v)", trial, c.f.Agg, c.f.Vars, c.low, c.high)
			out, err := Band(inst, c.f, c.low, c.high)
			if err != nil {
				t.Fatal(err)
			}
			if out.Exec == nil {
				t.Fatalf("%s: no Exec derived", name)
			}
			if len(out.Q.Vars()) != len(vars) {
				t.Fatalf("%s: a one-box band added a variable", name)
			}
			fresh, err := jointree.NewExecWorkers(out.Q, out.DB, tree, 1)
			if err != nil {
				t.Fatal(err)
			}
			testutil.SameExec(t, name, out.Exec, fresh)
		}
		out, err := Band(inst, ranking.NewMax(vars...), w(lo), w(hi))
		if err != nil || out.Exec == nil || len(out.Q.Vars()) != len(vars)+1 {
			t.Fatalf("trial %d: partitioned band: err %v, Exec %v, query %s", trial, err, out.Exec, out.Q)
		}
		testutil.SameExec(t, fmt.Sprintf("trial %d partitioned", trial), out.Exec, freshExec(t, out))
	}
}

// Strict bounds at the ends of int64 are empty sides, not λ±1 wrapped around:
// columns hold both extremes, bounds sit on them, and a custom weight maps
// ordinary values onto them.
func TestBandAtInt64Extremes(t *testing.T) {
	const lo, hi = math.MinInt64, math.MaxInt64
	vals := []relation.Value{lo, lo + 1, -1, 0, 1, hi - 1, hi}
	q := query.New(
		query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}},
		query.Atom{Rel: "S", Vars: []query.Var{"y", "z"}},
	)
	r, s := relation.New("R", 2), relation.New("S", 2)
	for _, a := range vals {
		for _, b := range vals {
			r.Append(a, b)
			s.Append(a, b)
		}
	}
	db := relation.NewDatabase()
	db.Add(r)
	db.Add(s)
	inst := Instance{Q: q, DB: db}
	vars := q.Vars()
	all := testutil.BruteForce(q, db)
	// toExtremes sends -1 and 1 to the ends, so weights reach them from
	// values that do not.
	toExtremes := func(_ query.Var, x relation.Value) int64 {
		switch x {
		case -1:
			return lo
		case 1:
			return hi
		}
		return x
	}
	for _, weight := range []func(query.Var, relation.Value) int64{nil, toExtremes} {
		for _, f := range []*ranking.Func{
			{Agg: ranking.Min, Vars: []query.Var{"x", "z"}, Weight: weight},
			{Agg: ranking.Max, Vars: []query.Var{"x", "y", "z"}, Weight: weight},
			{Agg: ranking.Lex, Vars: []query.Var{"z", "x"}, Weight: weight},
		} {
			bound := func(k int64) ranking.Weightv {
				if f.Agg == ranking.Lex {
					return ranking.Weightv{Vec: []int64{k, k}}
				}
				return ranking.Weightv{K: k}
			}
			for _, k := range []int64{lo, lo + 1, 0, hi - 1, hi} {
				for _, dir := range []Dir{Less, Greater} {
					name := fmt.Sprintf("%s custom=%v %s %d", f.Agg, weight != nil, dir, k)
					var out Instance
					var err error
					low, high := ranking.Finite(bound(k)), ranking.PosInf()
					if dir == Less {
						low, high = ranking.NegInf(), ranking.Finite(bound(k))
					}
					if f.Agg == ranking.Lex {
						out, err = Lex(inst, f, bound(k).Vec, dir)
					} else {
						out, err = MinMax(inst, f, k, dir)
					}
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if got, want := bagOf(materialize(t, out, vars)), bagOf(bandAnswers(all, vars, f, low, high)); !maps.Equal(got, want) {
						t.Fatalf("%s: %d answers, brute force %d", name, len(got), len(want))
					}
				}
				for _, k2 := range []int64{lo, -1, hi} {
					name := fmt.Sprintf("%s custom=%v band (%d, %d)", f.Agg, weight != nil, k, k2)
					low, high := ranking.Finite(bound(k)), ranking.Finite(bound(k2))
					out, err := Band(inst, f, low, high)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if got, want := bagOf(materialize(t, out, vars)), bagOf(bandAnswers(all, vars, f, low, high)); !maps.Equal(got, want) {
						t.Fatalf("%s: %d answers, brute force %d", name, len(got), len(want))
					}
				}
			}
		}
	}
}

// BenchmarkBandTrim cuts a two-sided MAX band over both atoms out of the
// repository benchmark's dense instance (bench/exact.go): Band's one pass
// against the two composed reference cuts (which, unlike the production code
// they were, derive no Exec for the first cut's output).
func BenchmarkBandTrim(b *testing.B) {
	q, db := workload.Path(rand.New(rand.NewSource(1)), 2, 1<<14, 1<<10)
	inst := Instance{Q: q, DB: db, Workers: 1}
	f := ranking.NewMax("x1", "x3")
	low, high := ranking.Finite(ranking.Weightv{K: 400}), ranking.Finite(ranking.Weightv{K: 800})
	for _, cut := range []struct {
		name string
		do   func() error
	}{
		{"band", func() error { _, err := Band(inst, f, low, high); return err }},
		{"composed", func() error {
			out, err := refCut(inst, f, high.W, Less)
			if err == nil {
				_, err = refCut(out, f, low.W, Greater)
			}
			return err
		}},
	} {
		b.Run(cut.name, func(b *testing.B) {
			if err := cut.do(); err != nil { // the first call sizes the pooled buffers
				b.Fatal(err)
			}
			for b.Loop() {
				if err := cut.do(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
