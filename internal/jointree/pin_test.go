package jointree_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"github.com/quantilejoins/qjoin/internal/decomp"
	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/testutil"
	"github.com/quantilejoins/qjoin/internal/workload"
)

// pinnedJoinTrees is the FNV-64a digest of joinTreeListing. Every plan,
// snapshot and pinned answer hangs off these trees, so a change to GYO's
// ear-removal order shows here first.
const pinnedJoinTrees = 0x8d07fe16fbd2bcc1

// cycleQuery returns the n-cycle R0(x0,x1), R1(x1,x2), ..., Rn-1(xn-1,x0).
func cycleQuery(n int) *query.Query {
	atoms := make([]query.Atom, n)
	for i := range atoms {
		atoms[i] = query.Atom{
			Rel:  "R" + string(rune('A'+i)),
			Vars: []query.Var{query.Var("x" + string(rune('a'+i))), query.Var("x" + string(rune('a'+(i+1)%n)))},
		}
	}
	return query.New(atoms...)
}

// k4Query joins the six edges of the complete graph on {x,y,z,w}.
func k4Query() *query.Query {
	return query.New(
		query.Atom{Rel: "E1", Vars: []query.Var{"x", "y"}},
		query.Atom{Rel: "E2", Vars: []query.Var{"x", "z"}},
		query.Atom{Rel: "E3", Vars: []query.Var{"x", "w"}},
		query.Atom{Rel: "E4", Vars: []query.Var{"y", "z"}},
		query.Atom{Rel: "E5", Vars: []query.Var{"y", "w"}},
		query.Atom{Rel: "E6", Vars: []query.Var{"z", "w"}},
	)
}

// joinTreeListing renders, one line per query, the root and parent array
// jointree.Build gives (or "cyclic"), and for cyclic shapes the bags of
// decomp.Decompose and the join tree of its bag query.
func joinTreeListing(t *testing.T) string {
	var b strings.Builder
	build := func(name string, q *query.Query) {
		tr, err := jointree.Build(q)
		if err != nil {
			fmt.Fprintf(&b, "%s: cyclic\n", name)
			return
		}
		parent := make([]int, len(tr.Nodes))
		for i, n := range tr.Nodes {
			parent[i] = n.Parent
		}
		fmt.Fprintf(&b, "%s: root %d parent %v\n", name, tr.Root, parent)
	}
	decompose := func(name string, q *query.Query) {
		build(name, q)
		d, err := decomp.Decompose(q, decomp.MaxDecompWidth)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&b, "%s bags: %v\n", name, d.Bags)
		build(name+" bag query", d.Query())
	}

	rng := rand.New(rand.NewSource(1))
	for _, inst := range testutil.FuzzCorpus(rng) {
		q, _ := query.Normalize(inst.Q, inst.DB)
		build("corpus "+inst.Name, q)
	}
	for k := 1; k <= 8; k++ {
		q, _ := workload.Path(rng, k, 2, 4)
		build(fmt.Sprintf("path%d", k), q)
	}
	for k := 1; k <= 6; k++ {
		q, _ := workload.Star(rng, k, 2, 2, 4)
		build(fmt.Sprintf("star%d", k), q)
	}
	for k := 3; k <= 6; k++ {
		q, _ := workload.Cycle(rng, k, 2, 4)
		decompose(fmt.Sprintf("cycle%d", k), q)
	}
	decompose("triangle", cycleQuery(3))
	decompose("four-cycle", cycleQuery(4))
	decompose("K4", k4Query())
	decompose("ring12", cycleQuery(12))
	return b.String()
}

// TestJoinTreesArePinned pins the root and parent array of every join tree
// over the differential corpus, the workload shapes and the bag queries of
// the decompositions, so a rewrite of ear removal that reorders a tree fails.
func TestJoinTreesArePinned(t *testing.T) {
	listing := joinTreeListing(t)
	h := fnv.New64a()
	h.Write([]byte(listing))
	if got := h.Sum64(); got != pinnedJoinTrees {
		t.Fatalf("join-tree digest %#x, want %#x; trees:\n%s", got, uint64(pinnedJoinTrees), listing)
	}
}
