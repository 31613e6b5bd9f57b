package jointree_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/testutil"
	"github.com/quantilejoins/qjoin/internal/workload"
)

// withID returns q with a fresh variable added to the atoms of ids.
func withID(q *query.Query, ids uint64, base string) *query.Query {
	out := q.Clone()
	v := query.FreshVar(out, base)
	for i := range out.Atoms {
		if ids&(1<<i) != 0 {
			out.Atoms[i].Vars = append(out.Atoms[i].Vars, v)
		}
	}
	return out
}

// buildKeeps is what DeriveGathered decided with GYO: whether Build(q) has
// t's root and parents.
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

// The shape decision of DeriveGathered is Build's verdict: over the queries
// of the exact-band corpus, each with its GYO tree and its adjacent-pair
// trees, for every placement of an identifier on its atoms — and, after each
// placement that keeps the tree, for every placement of a second identifier
// on the derived query, where the derived record answers. Each (record,
// placement) runs Build at most once: asking again builds nothing, and the
// placements GYO ignores share a single Build.
func TestShapeDecisionIsBuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(2401))
	var qs []*query.Query
	for _, c := range testutil.FuzzCorpus(rng) {
		q, _ := query.Normalize(c.Q, c.DB)
		qs = append(qs, q)
	}
	q, _ := workload.Path(rng, 4, 10, 9)
	qs = append(qs, q)
	q, _ = workload.Star(rng, 3, 10, 12, 10)
	qs = append(qs, q)
	q, _ = workload.Hierarchy(rng, 10, 7)
	qs = append(qs, q)
	qs = append(qs, query.New(query.Atom{Rel: "R", Vars: []query.Var{"a", "b", "c"}}))
	keeps, differs := 0, 0
	for _, q := range qs {
		trees := []*jointree.Tree{}
		if tr, err := jointree.Build(q); err == nil {
			trees = append(trees, tr)
		}
		vars := q.Vars()
		for i := range vars {
			for j := i; j < len(vars); j++ {
				if tr, _, _, err := jointree.BuildAdjacentPair(q, []query.Var{vars[i], vars[j]}); err == nil {
					trees = append(trees, tr)
				}
			}
		}
		n := uint64(len(q.Atoms))
		for ti, tr := range trees {
			e := jointree.ShapeOf(q, tr)
			for ids := uint64(0); ids < 1<<n; ids++ {
				name := fmt.Sprintf("%s tree %d ids %b", q, ti, ids)
				q1 := withID(q, ids, "_p")
				d, got := e.KeepsShape(q1, ids)
				if want := buildKeeps(q1, tr); got != want {
					t.Fatalf("%s: decided %v, Build says %v", name, got, want)
				}
				if !got {
					differs++
					continue
				}
				keeps++
				for ids2 := uint64(0); ids2 < 1<<n; ids2++ {
					q2 := withID(q1, ids2, "_s")
					if _, got := d.KeepsShape(q2, ids2); got != buildKeeps(q2, tr) {
						t.Fatalf("%s then %b: decided %v, Build says %v", name, ids2, got, !got)
					}
				}
			}
			builds := e.ShapeBuilds()
			for ids := uint64(0); ids < 1<<n; ids++ {
				e.KeepsShape(withID(q, ids, "_p"), ids)
			}
			if e.ShapeBuilds() != builds {
				t.Fatalf("%s tree %d: asking again ran Build %d more times", q, ti, e.ShapeBuilds()-builds)
			}
			// GYO ignores an identifier on no atom, every atom or the atoms
			// of one of q's variables: those placements share one Build.
			ignored := map[uint64]bool{0: true, 1<<n - 1: true}
			for _, v := range vars {
				var set uint64
				for _, i := range q.AtomsWithVar(v) {
					set |= 1 << i
				}
				ignored[set] = true
			}
			if most := 1 + 1<<n - len(ignored); builds > most {
				t.Fatalf("%s tree %d: %d Builds, at most %d for %d placements", q, ti, builds, most, 1<<n)
			}
		}
	}
	t.Logf("%d placements keep the tree, %d do not", keeps, differs)
	if keeps == 0 || differs == 0 {
		t.Fatalf("the corpus decides no placement one way: %d keep, %d do not", keeps, differs)
	}
}
