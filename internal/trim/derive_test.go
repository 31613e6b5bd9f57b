package trim

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/testutil"
	"github.com/quantilejoins/qjoin/internal/workload"
)

// freshExec is Build + NewExecWorkers on an instance: what the driver's
// fallback gives it, and what a derived tree has to equal.
func freshExec(t testing.TB, inst Instance) *jointree.Exec {
	t.Helper()
	tree, err := jointree.Build(inst.Q)
	if err != nil {
		t.Fatal(err)
	}
	e, err := jointree.NewExecWorkers(inst.Q, inst.DB, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// exactBand is the exact trim of the ranking's family.
func exactBand(inst Instance, f *ranking.Func, low, high ranking.Bound) (Instance, error) {
	if f.Agg == ranking.Sum {
		return SumAdjacentBand(inst, f, low, high)
	}
	return Band(inst, f, low, high)
}

// Every exact band of an instance that carries an Exec carries one too, and it
// is the tree a fresh build of the output gives, field for field
// (testutil.SameExec): over the differential corpus and a path, a star, a
// hierarchy and a single atom × MAX / MIN / LEX / adjacent-pair SUM × open,
// one-sided, proper and empty bands × Workers 1 and 4. The instance's DB is the
// raw one — duplicates and all — and its Exec the tree over it, which reads a
// deduplicated view: the answers are brute force's and every output relation
// is marked a set, so the trims read the Exec's relations and not the raw ones
// (cut from those, a partitioned band's rows are not the tree's rows, and its
// output is deduplicated a second time by the rebuild). The one exception is
// counted: an output query whose join tree is not the input's takes no Exec.
func TestExactBandsDeriveTheirTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(2401))
	type instance struct {
		name  string
		q     *query.Query
		db    *relation.Database
		ranks []*ranking.Func
	}
	var insts []instance
	for _, c := range testutil.FuzzCorpus(rng) {
		q, db := query.Normalize(c.Q, c.DB)
		insts = append(insts, instance{c.Name, q, db, c.Ranks})
	}
	all4 := func(sum []query.Var, rest ...query.Var) []*ranking.Func {
		return []*ranking.Func{ranking.NewSum(sum...), ranking.NewMax(rest...), ranking.NewMin(rest...), ranking.NewLex(rest...)}
	}
	{
		q, db := workload.Path(rng, 4, 150, 9)
		insts = append(insts, instance{"path4", q, db, all4([]query.Var{"x2", "x3", "x4"}, "x1", "x3", "x5")})
		q, db = workload.Star(rng, 3, 120, 12, 10)
		insts = append(insts, instance{"star3", q, db, all4([]query.Var{"y2", "e", "y3"}, q.Vars()...)})
		q, db = workload.Hierarchy(rng, 90, 7)
		insts = append(insts, instance{"hierarchy", q, db, all4([]query.Var{"x2", "x4", "x5"}, "x3", "x5", "x1")})
		q = query.New(query.Atom{Rel: "R", Vars: []query.Var{"a", "b", "c"}})
		r := relation.New("R", 3)
		for i := 0; i < 200; i++ {
			r.Append(rng.Int63n(6), rng.Int63n(6), rng.Int63n(6))
		}
		db = relation.NewDatabase()
		db.Add(r)
		insts = append(insts, instance{"single-atom", q, db, all4([]query.Var{"a", "c"}, "a", "b", "c")})
	}
	cuts, derived := 0, 0
	for _, in := range insts {
		e := freshExec(t, Instance{Q: in.q, DB: in.db})
		all := testutil.BruteForce(in.q, in.db)
		vars := in.q.Vars()
		for i, f := range in.ranks {
			inst := Instance{Q: in.q, DB: in.db, Exec: e, Workers: 1 + 3*(i%2)}
			for _, b := range boundsFor(rng, all, vars, f) {
				name := fmt.Sprintf("%s %s%v workers=%d (%v, %v)", in.name, f.Agg, f.Vars, inst.Workers, b[0], b[1])
				out, err := exactBand(inst, f, b[0], b[1])
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got, want := bagOf(materialize(t, out, vars)), bagOf(bandAnswers(all, vars, f, b[0], b[1])); !maps.Equal(got, want) {
					t.Fatalf("%s: %d distinct answers, brute force %d", name, len(got), len(want))
				}
				for _, n := range out.DB.Names() {
					if !out.DB.Get(n).IsDistinct() {
						t.Fatalf("%s: output relation %s is not marked a set", name, n)
					}
				}
				cuts++
				if out.Exec == nil {
					continue
				}
				derived++
				testutil.SameExec(t, name, out.Exec, freshExec(t, out))
			}
		}
	}
	t.Logf("%d of %d bands derived their tree", derived, cuts)
	if derived != cuts {
		t.Fatalf("%d of %d bands took the rebuild: every query here keeps its join tree under an identifier", cuts-derived, cuts)
	}
}

// An identifier on two atoms only can make the output query's join tree
// another one than the input's, and the band then carries no Exec: the driver's
// rebuild serves it, and the answers are brute force's. On a star, which GYO
// chains in atom order (A1 under A2 under A3), a staircase between A1 and A3
// re-parents — the tree does not have them adjacent, and the segment variable
// binds them — and one between A1 and A2 re-roots: A3 becomes the ear and A2
// the root. The staircase between A2 and A3 keeps the tree and derives, as
// does MAX, whose identifier joins every atom. Beyond those, every atom pair a
// two-variable SUM puts the staircase on in a path, a star and a hierarchy
// derives exactly when Build, run on the output query, keeps the input's tree.
func TestBandFallsBackWhenTheTreeChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(2402))
	type instance struct {
		name string
		q    *query.Query
		db   *relation.Database
		e    *jointree.Exec
	}
	type band struct {
		in      *instance
		f       *ranking.Func
		derives bool
	}
	q, db := testutil.RandomStarInstance(rng, 3, 80, 7)
	chain := &instance{"star", q, db, freshExec(t, Instance{Q: q, DB: db})}
	if chain.e.T.Nodes[0].Parent != 1 || chain.e.T.Nodes[1].Parent != 2 {
		t.Fatalf("the star's join tree is no longer the chain A1 - A2 - A3: %+v", chain.e.T)
	}
	cases := []band{
		{chain, ranking.NewSum("y1", "y3"), false},
		{chain, ranking.NewSum("y1", "y2"), false},
		{chain, ranking.NewSum("y2", "y3"), true},
		{chain, ranking.NewMax("y1", "y3"), true},
	}
	var insts []*instance
	q, db = workload.Path(rng, 4, 150, 9)
	insts = append(insts, &instance{name: "path4", q: q, db: db})
	q, db = workload.Star(rng, 3, 120, 12, 10)
	insts = append(insts, &instance{name: "star3", q: q, db: db})
	q, db = workload.Hierarchy(rng, 90, 7)
	insts = append(insts, &instance{name: "hierarchy", q: q, db: db})
	for _, in := range insts {
		in.e = freshExec(t, Instance{Q: in.q, DB: in.db})
		vars := in.q.Vars()
		pairs := make(map[[2]int]bool)
		for i, u := range vars {
			for _, v := range vars[i+1:] {
				f := ranking.NewSum(u, v)
				tree, a, b, err := jointree.BuildAdjacentPair(in.q, f.Vars)
				if err != nil || b < 0 {
					continue
				}
				pair := [2]int{tree.Nodes[a].Atom, tree.Nodes[b].Atom}
				if pairs[pair] {
					continue
				}
				pairs[pair] = true
				cases = append(cases, band{in, f, buildKeeps(withID(in.q, pair[:]), in.e.T)})
			}
		}
		if len(pairs) < len(in.q.Atoms)-1 {
			t.Fatalf("%s: SUM rankings reach %d atom pairs, fewer than the tree's %d edges", in.name, len(pairs), len(in.q.Atoms)-1)
		}
	}
	for _, c := range cases {
		all := testutil.BruteForce(c.in.q, c.in.db)
		vars := c.in.q.Vars()
		inst := Instance{Q: c.in.q, DB: c.in.db, Exec: c.in.e}
		for _, b := range boundsFor(rng, all, vars, c.f) {
			name := fmt.Sprintf("%s %s%v (%v, %v)", c.in.name, c.f.Agg, c.f.Vars, b[0], b[1])
			out, err := exactBand(inst, c.f, b[0], b[1])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if (out.Exec != nil) != c.derives {
				t.Fatalf("%s: derived an Exec: %v, want %v", name, out.Exec != nil, c.derives)
			}
			if got, want := bagOf(materialize(t, out, vars)), bagOf(bandAnswers(all, vars, c.f, b[0], b[1])); !maps.Equal(got, want) {
				t.Fatalf("%s: %d distinct answers, brute force %d", name, len(got), len(want))
			}
			if out.Exec != nil {
				testutil.SameExec(t, name, out.Exec, freshExec(t, out))
			}
		}
	}
}

// withID returns q with a fresh variable added to the given atoms.
func withID(q *query.Query, atoms []int) *query.Query {
	out := q.Clone()
	v := query.FreshVar(q, "id")
	for _, i := range atoms {
		out.Atoms[i].Vars = append(out.Atoms[i].Vars, v)
	}
	return out
}

// buildKeeps reports whether Build(q) gives t's root and parents.
func buildKeeps(q *query.Query, t *jointree.Tree) bool {
	b, err := jointree.Build(q)
	if err != nil || b.Root != t.Root {
		return false
	}
	for id, n := range b.Nodes {
		if n.Parent != t.Nodes[id].Parent {
			return false
		}
	}
	return true
}

// A band cut out of a derived band — the tail of a descent — derives its tree
// too, and it is the fresh build's: over a path, a star and a hierarchy ×
// adjacent-pair SUM / MAX / MIN / LEX, every band of the original instance
// derives, and so does the same band cut again out of it.
func TestBandsOfBandsDeriveTheirTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(2403))
	type instance struct {
		name  string
		q     *query.Query
		db    *relation.Database
		ranks []*ranking.Func
	}
	all4 := func(sum []query.Var, rest ...query.Var) []*ranking.Func {
		return []*ranking.Func{ranking.NewSum(sum...), ranking.NewMax(rest...), ranking.NewMin(rest...), ranking.NewLex(rest...)}
	}
	var insts []instance
	q, db := workload.Path(rng, 4, 150, 9)
	insts = append(insts, instance{"path4", q, db, all4([]query.Var{"x2", "x3", "x4"}, "x1", "x3", "x5")})
	q, db = workload.Star(rng, 3, 120, 12, 10)
	insts = append(insts, instance{"star3", q, db, all4([]query.Var{"y2", "e", "y3"}, q.Vars()...)})
	q, db = workload.Hierarchy(rng, 90, 7)
	insts = append(insts, instance{"hierarchy", q, db, all4([]query.Var{"x2", "x4", "x5"}, "x3", "x5", "x1")})
	for _, in := range insts {
		e := freshExec(t, Instance{Q: in.q, DB: in.db})
		all := testutil.BruteForce(in.q, in.db)
		vars := in.q.Vars()
		for _, f := range in.ranks {
			inst := Instance{Q: in.q, DB: in.db, Exec: e, Workers: 1}
			for _, b := range boundsFor(rng, all, vars, f) {
				name := fmt.Sprintf("%s %s%v (%v, %v)", in.name, f.Agg, f.Vars, b[0], b[1])
				out, err := exactBand(inst, f, b[0], b[1])
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if out.Exec == nil {
					t.Fatalf("%s: no derived tree", name)
				}
				tail, err := exactBand(out, f, b[0], b[1])
				if err != nil {
					t.Fatalf("%s, again: %v", name, err)
				}
				if tail.Exec == nil {
					t.Fatalf("%s, again: no derived tree", name)
				}
				testutil.SameExec(t, name+", again", tail.Exec, freshExec(t, tail))
			}
		}
	}
}
