package hypergraph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/quantilejoins/qjoin/internal/query"
)

func q3path() *query.Query {
	return query.New(
		query.Atom{Rel: "R1", Vars: []query.Var{"x1", "x2"}},
		query.Atom{Rel: "R2", Vars: []query.Var{"x2", "x3"}},
		query.Atom{Rel: "R3", Vars: []query.Var{"x3", "x4"}},
	)
}

func qTriangle() *query.Query {
	return query.New(
		query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}},
		query.Atom{Rel: "S", Vars: []query.Var{"y", "z"}},
		query.Atom{Rel: "T", Vars: []query.Var{"z", "x"}},
	)
}

func qFig1() *query.Query {
	// R(x1,x2), S(x1,x3), T(x2,x4), U(x4,x5) — the paper's Figure 1 query.
	return query.New(
		query.Atom{Rel: "R", Vars: []query.Var{"x1", "x2"}},
		query.Atom{Rel: "S", Vars: []query.Var{"x1", "x3"}},
		query.Atom{Rel: "T", Vars: []query.Var{"x2", "x4"}},
		query.Atom{Rel: "U", Vars: []query.Var{"x4", "x5"}},
	)
}

func TestAcyclicDetection(t *testing.T) {
	cases := []struct {
		q    *query.Query
		want bool
	}{
		{q3path(), true},
		{qTriangle(), false},
		{qFig1(), true},
	}
	for _, c := range cases {
		h, _ := FromQuery(c.q)
		if got := h.IsAcyclic(); got != c.want {
			t.Errorf("IsAcyclic(%s) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestJoinTreeRunningIntersection(t *testing.T) {
	for _, q := range []*query.Query{q3path(), qFig1()} {
		h, _ := FromQuery(q)
		parent, root, ok := h.JoinTree()
		if !ok {
			t.Fatalf("JoinTree(%s) failed", q)
		}
		adj := make([][]int, len(h.Edges))
		for e, p := range parent {
			if p >= 0 {
				adj[e] = append(adj[e], p)
				adj[p] = append(adj[p], e)
			}
		}
		if !h.IsJoinTree(adj) {
			t.Fatalf("GYO tree for %s violates running intersection", q)
		}
		if parent[root] != -1 {
			t.Fatal("root must have parent -1")
		}
	}
}

func TestSingleAtom(t *testing.T) {
	q := query.New(query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}})
	h, _ := FromQuery(q)
	parent, root, ok := h.JoinTree()
	if !ok || root != 0 || parent[0] != -1 {
		t.Fatal("single atom must be trivially acyclic")
	}
}

func TestDuplicateEdgesAcyclic(t *testing.T) {
	q := query.New(
		query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}},
		query.Atom{Rel: "S", Vars: []query.Var{"x", "y"}},
	)
	h, _ := FromQuery(q)
	if !h.IsAcyclic() {
		t.Fatal("duplicate edges must stay acyclic")
	}
}

func TestDisconnectedAcyclic(t *testing.T) {
	q := query.New(
		query.Atom{Rel: "R", Vars: []query.Var{"x"}},
		query.Atom{Rel: "S", Vars: []query.Var{"y"}},
	)
	h, _ := FromQuery(q)
	parent, _, ok := h.JoinTree()
	if !ok {
		t.Fatal("disconnected hypergraph must be acyclic")
	}
	// The two components must be linked into a single tree.
	linked := 0
	for _, p := range parent {
		if p >= 0 {
			linked++
		}
	}
	if linked != 1 {
		t.Fatalf("expected 1 tree edge, got %d", linked)
	}
}

func TestMaximalEdgeCount(t *testing.T) {
	cases := []struct {
		q    *query.Query
		want int
	}{
		{q3path(), 3},
		{qFig1(), 4},
		{query.New(
			query.Atom{Rel: "R", Vars: []query.Var{"x", "y", "z"}},
			query.Atom{Rel: "S", Vars: []query.Var{"x", "y"}},
		), 1},
		{query.New( // duplicates count once
			query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}},
			query.Atom{Rel: "S", Vars: []query.Var{"x", "y"}},
		), 1},
		{query.New(
			query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}},
			query.Atom{Rel: "S", Vars: []query.Var{"y", "z"}},
		), 2},
	}
	for _, c := range cases {
		h, _ := FromQuery(c.q)
		if got := h.MaximalEdgeCount(); got != c.want {
			t.Errorf("mh(%s) = %d, want %d", c.q, got, c.want)
		}
	}
}

func TestAdjacent(t *testing.T) {
	h, idx := FromQuery(q3path())
	if !h.Adjacent(idx["x1"], idx["x2"]) || h.Adjacent(idx["x1"], idx["x3"]) {
		t.Fatal("adjacency wrong")
	}
}

func TestIndependentSets(t *testing.T) {
	h, idx := FromQuery(q3path())
	all := []int{idx["x1"], idx["x2"], idx["x3"], idx["x4"]}
	if got := h.MaxIndependentSubset(all); got != 2 {
		t.Fatalf("max independent subset = %d, want 2", got)
	}
	// A 3-star has an independent triple among the leaves.
	star := query.New(
		query.Atom{Rel: "A", Vars: []query.Var{"e", "l1"}},
		query.Atom{Rel: "B", Vars: []query.Var{"e", "l2"}},
		query.Atom{Rel: "C", Vars: []query.Var{"e", "l3"}},
	)
	hs, idxs := FromQuery(star)
	leaves := []int{idxs["l1"], idxs["l2"], idxs["l3"]}
	if got := hs.MaxIndependentSubset(leaves); got != 3 {
		t.Fatalf("star max independent = %d", got)
	}
}

func TestChordlessPaths(t *testing.T) {
	h, idx := FromQuery(q3path())
	// x1..x4 is a chordless path with 4 vertices.
	if !h.HasLongChordlessPath([]int{idx["x1"], idx["x4"]}, 4) {
		t.Fatal("missed the x1-x2-x3-x4 chordless path")
	}
	// Between x1 and x3 the only chordless path has 3 vertices.
	if h.HasLongChordlessPath([]int{idx["x1"], idx["x3"]}, 4) {
		t.Fatal("phantom long chordless path x1..x3")
	}
	if !h.HasLongChordlessPath([]int{idx["x1"], idx["x3"]}, 3) {
		t.Fatal("missed the x1-x2-x3 path")
	}
	// The social-network star: l2-e-l3 has 3 vertices, nothing longer.
	star := query.New(
		query.Atom{Rel: "Admin", Vars: []query.Var{"u1", "e"}},
		query.Atom{Rel: "Share", Vars: []query.Var{"u2", "e", "l2"}},
		query.Atom{Rel: "Attend", Vars: []query.Var{"u3", "e", "l3"}},
	)
	hs, idxs := FromQuery(star)
	if hs.HasLongChordlessPath([]int{idxs["l2"], idxs["l3"]}, 4) {
		t.Fatal("star must not have a 4-vertex chordless path between l2 and l3")
	}
}

func TestAdjacentPairJoinTreeSingleNode(t *testing.T) {
	q := query.New(
		query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}},
		query.Atom{Rel: "S", Vars: []query.Var{"y", "z"}},
	)
	h, idx := FromQuery(q)
	_, _, a, b, err := h.AdjacentPairJoinTree([]int{idx["x"], idx["y"]})
	if err != nil {
		t.Fatal(err)
	}
	if a != 0 || b != -1 {
		t.Fatalf("want single node 0, got a=%d b=%d", a, b)
	}
}

func TestAdjacentPairJoinTreePair(t *testing.T) {
	// 3-path with U = {x1, x2, x3}: needs R1 and R2 adjacent.
	h, idx := FromQuery(q3path())
	parent, root, a, b, err := h.AdjacentPairJoinTree([]int{idx["x1"], idx["x2"], idx["x3"]})
	if err != nil {
		t.Fatal(err)
	}
	if b == -1 {
		t.Fatal("no single atom covers {x1,x2,x3}")
	}
	// The pair must be edges 0 and 1 (R1 and R2) and adjacent in the tree.
	if !((a == 0 && b == 1) || (a == 1 && b == 0)) {
		t.Fatalf("pair = (%d,%d)", a, b)
	}
	if parent[a] != b && parent[b] != a {
		t.Fatal("pair not adjacent in returned tree")
	}
	_ = root
}

func TestAdjacentPairJoinTreeImpossible(t *testing.T) {
	// Full-variable SUM on the 3-path cannot sit on two adjacent nodes.
	h, idx := FromQuery(q3path())
	_, _, _, _, err := h.AdjacentPairJoinTree([]int{idx["x1"], idx["x2"], idx["x3"], idx["x4"]})
	if err == nil {
		t.Fatal("expected failure for full-variable cover on 3-path")
	}
}

func TestEnumerateJoinTreesCounts(t *testing.T) {
	// A 2-atom query has exactly one spanning tree, which is a join tree.
	q := query.New(
		query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}},
		query.Atom{Rel: "S", Vars: []query.Var{"y", "z"}},
	)
	h, _ := FromQuery(q)
	count := 0
	if err := h.EnumerateJoinTrees(func(adj [][]int) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("2-atom join trees = %d", count)
	}
}

// Lemma D.1 (one direction): if the dichotomy conditions hold, an
// adjacent-pair join tree exists. Validated on random acyclic hypergraphs.
func TestLemmaD1OnRandomHypergraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vars := []query.Var{"a", "b", "c", "d", "e", "f"}
	for trial := 0; trial < 400; trial++ {
		nAtoms := 2 + rng.Intn(3)
		var atoms []query.Atom
		for i := 0; i < nAtoms; i++ {
			k := 1 + rng.Intn(3)
			seen := map[query.Var]bool{}
			var vs []query.Var
			for len(vs) < k {
				v := vars[rng.Intn(len(vars))]
				if !seen[v] {
					seen[v] = true
					vs = append(vs, v)
				}
			}
			atoms = append(atoms, query.Atom{Rel: fmt.Sprintf("R%d", i), Vars: vs})
		}
		q := query.New(atoms...)
		h, idx := FromQuery(q)
		if !h.IsAcyclic() {
			continue
		}
		// Random U over present variables.
		var U []int
		for _, v := range q.Vars() {
			if rng.Intn(2) == 0 {
				U = append(U, idx[v])
			}
		}
		if len(U) == 0 {
			continue
		}
		condOK := h.MaxIndependentSubset(U) <= 2 && !h.HasLongChordlessPath(U, 4)
		if !condOK {
			continue
		}
		if _, _, _, _, err := h.AdjacentPairJoinTree(U); err != nil {
			t.Fatalf("Lemma D.1 violated: query %s U=%v conditions hold but no adjacent-pair tree: %v", q, U, err)
		}
	}
}

// TestEnumerateJoinTreesEarlyStop pins the early-stop contract: once fn
// returns false the enumeration must halt immediately — no further join
// trees are produced, and the call still returns nil (stopping is not an
// error).
func TestEnumerateJoinTreesEarlyStop(t *testing.T) {
	// A 4-atom star: every atom shares x with every other, so every labeled
	// spanning tree (4^2 = 16 Prüfer decodings) satisfies the running
	// intersection property — plenty of trees to stop in the middle of.
	q := query.New(
		query.Atom{Rel: "R1", Vars: []query.Var{"x", "a"}},
		query.Atom{Rel: "R2", Vars: []query.Var{"x", "b"}},
		query.Atom{Rel: "R3", Vars: []query.Var{"x", "c"}},
		query.Atom{Rel: "R4", Vars: []query.Var{"x", "d"}},
	)
	h, _ := FromQuery(q)
	total := 0
	if err := h.EnumerateJoinTrees(func([][]int) bool { total++; return true }); err != nil {
		t.Fatal(err)
	}
	if total < 2 {
		t.Fatalf("star has %d join trees; need at least 2 for an early-stop test", total)
	}
	for stopAt := 1; stopAt < total; stopAt++ {
		calls := 0
		err := h.EnumerateJoinTrees(func([][]int) bool {
			calls++
			return calls < stopAt
		})
		if err != nil {
			t.Fatalf("stopAt=%d: early stop must not be an error: %v", stopAt, err)
		}
		if calls != stopAt {
			t.Fatalf("fn returned false on call %d but was called %d times", stopAt, calls)
		}
	}
}

// TestJoinTreeDisconnectedComponents exercises GYO on disconnected
// hypergraphs beyond the two-singleton case: several multi-edge components
// must still reduce, link into one tree (a cross product), and satisfy the
// running intersection property; a cyclic component must poison the whole
// hypergraph even when other components are acyclic.
func TestJoinTreeDisconnectedComponents(t *testing.T) {
	// Two 2-edge path components plus an isolated unary atom: 5 edges,
	// no shared variables across components.
	q := query.New(
		query.Atom{Rel: "A1", Vars: []query.Var{"a", "b"}},
		query.Atom{Rel: "A2", Vars: []query.Var{"b", "c"}},
		query.Atom{Rel: "B1", Vars: []query.Var{"p", "q"}},
		query.Atom{Rel: "B2", Vars: []query.Var{"q", "r"}},
		query.Atom{Rel: "C", Vars: []query.Var{"z"}},
	)
	h, _ := FromQuery(q)
	parent, root, ok := h.JoinTree()
	if !ok {
		t.Fatal("disconnected acyclic components must form a join tree")
	}
	if parent[root] != -1 {
		t.Fatalf("parent[root] = %d, want -1", parent[root])
	}
	// A tree over 5 edges has exactly 4 parent links, every node reaches the
	// root, and the adjacency form passes the package's own validity check.
	adj := make([][]int, len(h.Edges))
	links := 0
	for i, p := range parent {
		if i == root {
			continue
		}
		if p < 0 || p >= len(h.Edges) {
			t.Fatalf("node %d has parent %d", i, p)
		}
		links++
		adj[i] = append(adj[i], p)
		adj[p] = append(adj[p], i)
	}
	if links != len(h.Edges)-1 {
		t.Fatalf("%d tree links over %d edges", links, len(h.Edges))
	}
	if !h.IsJoinTree(adj) {
		t.Fatal("disconnected join tree violates the running intersection property")
	}

	// A triangle component alongside an acyclic one: not a join tree.
	qBad := query.New(
		query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}},
		query.Atom{Rel: "S", Vars: []query.Var{"y", "z"}},
		query.Atom{Rel: "T", Vars: []query.Var{"z", "x"}},
		query.Atom{Rel: "Far", Vars: []query.Var{"u", "v"}},
	)
	hBad, _ := FromQuery(qBad)
	if _, _, ok := hBad.JoinTree(); ok {
		t.Fatal("a cyclic component must make the whole hypergraph cyclic")
	}
}

// TestMaximalEdgeCountDuplicates pins the duplicate-edge convention of mh:
// every duplicate class is represented exactly once (by its first copy), and
// containment still eliminates non-maximal edges regardless of multiplicity.
func TestMaximalEdgeCountDuplicates(t *testing.T) {
	cases := []struct {
		name string
		q    *query.Query
		want int
	}{
		{"triple-duplicate", query.New(
			query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}},
			query.Atom{Rel: "S", Vars: []query.Var{"x", "y"}},
			query.Atom{Rel: "T", Vars: []query.Var{"x", "y"}},
		), 1},
		{"duplicate-pair-plus-distinct", query.New(
			query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}},
			query.Atom{Rel: "S", Vars: []query.Var{"x", "y"}},
			query.Atom{Rel: "U", Vars: []query.Var{"y", "z"}},
		), 2},
		{"duplicates-contained-in-super", query.New(
			query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}},
			query.Atom{Rel: "S", Vars: []query.Var{"x", "y"}},
			query.Atom{Rel: "Big", Vars: []query.Var{"x", "y", "z"}},
		), 1},
		{"duplicate-supers", query.New(
			query.Atom{Rel: "Big1", Vars: []query.Var{"x", "y", "z"}},
			query.Atom{Rel: "Big2", Vars: []query.Var{"x", "y", "z"}},
			query.Atom{Rel: "Small", Vars: []query.Var{"y", "z"}},
		), 1},
		{"same-vars-different-order", query.New(
			query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}},
			query.Atom{Rel: "S", Vars: []query.Var{"y", "x"}},
		), 1},
	}
	for _, c := range cases {
		h, _ := FromQuery(c.q)
		if got := h.MaximalEdgeCount(); got != c.want {
			t.Errorf("%s: mh = %d, want %d", c.name, got, c.want)
		}
	}
}

// pruferLinks is the reference for AdjacentPairJoinTree's two-node case: every
// pair of edges (a < b) that some join tree has adjacent, found by enumerating
// all join trees.
func pruferLinks(t *testing.T, h *Hypergraph) map[[2]int]bool {
	t.Helper()
	links := map[[2]int]bool{}
	err := h.EnumerateJoinTrees(func(adj [][]int) bool {
		for a := range adj {
			for _, b := range adj[a] {
				if a < b {
					links[[2]int{a, b}] = true
				}
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return links
}

// checkAdjacentPair compares AdjacentPairJoinTree(U) with the Prüfer search
// (links: pruferLinks(h)): it succeeds exactly when the search has a covering
// pair, on the lowest one, and what it returns is a join tree rooted at a with
// a–b adjacent and U ⊆ a ∪ b. It returns the pair, (-2, -2) when no tree was
// built.
func checkAdjacentPair(t *testing.T, h *Hypergraph, links map[[2]int]bool, U []int) (nodeA, nodeB int) {
	t.Helper()
	single := -1
	for e, edge := range h.Edges {
		if single < 0 && subset(U, edge) {
			single = e
		}
	}
	want := map[[2]int]bool{}
	for pr := range links {
		if coveredByPair(h.Edges[pr[0]], h.Edges[pr[1]], U) {
			want[pr] = true
		}
	}
	parent, root, a, b, err := h.AdjacentPairJoinTree(U)
	if wantOK := (single >= 0 && h.IsAcyclic()) || (single < 0 && len(want) > 0); (err == nil) != wantOK {
		t.Fatalf("edges %v U=%v: construction err=%v, Prüfer search finds %v (single cover %d)", h.Edges, U, err, want, single)
	}
	if err != nil {
		return -2, -2
	}
	adj := make([][]int, len(h.Edges))
	for e, p := range parent {
		if (p < 0) != (e == root) {
			t.Fatalf("edges %v U=%v: parent %v with root %d", h.Edges, U, parent, root)
		}
		if p >= 0 {
			adj[e] = append(adj[e], p)
			adj[p] = append(adj[p], e)
		}
	}
	if !h.IsJoinTree(adj) || len(RootTree(adj, root)) != len(h.Edges) || slices.Contains(RootTree(adj, root), -2) {
		t.Fatalf("edges %v U=%v: parent %v is not a join tree", h.Edges, U, parent)
	}
	if single >= 0 {
		if a != single || b != -1 {
			t.Fatalf("edges %v U=%v: got (%d,%d), want the single node %d", h.Edges, U, a, b, single)
		}
		return a, b
	}
	lowest := [2]int{len(h.Edges), len(h.Edges)}
	for pr := range want {
		if pr[0] < lowest[0] || (pr[0] == lowest[0] && pr[1] < lowest[1]) {
			lowest = pr
		}
	}
	if [2]int{a, b} != lowest || root != a || parent[b] != a || !coveredByPair(h.Edges[a], h.Edges[b], U) {
		t.Fatalf("edges %v U=%v: got pair (%d,%d) root %d parent %v, want lowest pair %v", h.Edges, U, a, b, root, parent, lowest)
	}
	return a, b
}

// TestAdjacentPairMatchesPruferSearch is the differential between the
// spanning-tree construction and the exhaustive search it replaced, over
// random hypergraphs of up to 7 edges: acyclic ones grown along a random join
// tree (an edge takes any subset of an earlier edge's vertices — none at all
// starts a new component, all of them and nothing fresh is a contained or
// duplicate edge) and unconstrained ones, cyclic included.
func TestAdjacentPairMatchesPruferSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	single, pair, refused, cyclic := 0, 0, 0, 0
	for trial := 0; trial < 900; trial++ {
		h := &Hypergraph{}
		ne := 2 + rng.Intn(6)
		for e := 0; e < ne; e++ {
			var edge []int
			if trial%3 == 0 { // unconstrained
				if h.NumVertices == 0 {
					h.NumVertices = 6
				}
				for v := 0; v < h.NumVertices; v++ {
					if rng.Intn(3) == 0 {
						edge = append(edge, v)
					}
				}
				if len(edge) == 0 {
					edge = []int{rng.Intn(h.NumVertices)}
				}
			} else {
				if e > 0 {
					for _, v := range h.Edges[rng.Intn(e)] {
						if rng.Intn(2) == 0 {
							edge = append(edge, v)
						}
					}
				}
				for fresh := rng.Intn(3); fresh > 0 || len(edge) == 0; fresh-- {
					edge = append(edge, h.NumVertices)
					h.NumVertices++
				}
			}
			h.Edges = append(h.Edges, edge)
		}
		if !h.IsAcyclic() {
			cyclic++
		} else if trial%3 != 0 && rng.Intn(2) == 0 {
			rng.Shuffle(ne, func(i, j int) { h.Edges[i], h.Edges[j] = h.Edges[j], h.Edges[i] })
		}
		links := pruferLinks(t, h)
		for rep := 0; rep < 4; rep++ {
			var U []int
			for v := 0; v < h.NumVertices; v++ {
				if rng.Intn(3) == 0 {
					U = append(U, v)
				}
			}
			if len(U) == 0 {
				continue
			}
			switch _, b := checkAdjacentPair(t, h, links, U); b {
			case -2:
				refused++
			case -1:
				single++
			default:
				pair++
			}
		}
	}
	if single < 300 || pair < 300 || refused < 300 || cyclic < 20 {
		t.Fatalf("corpus is lopsided: %d on one node, %d on a pair, %d refused, %d cyclic hypergraphs", single, pair, refused, cyclic)
	}
}

// TestAdjacentPairStructuralCases covers the shapes the weight identity has
// to get right by construction: components joined by zero-weight links,
// duplicate edges, and edges contained in others.
func TestAdjacentPairStructuralCases(t *testing.T) {
	cases := []struct {
		name  string
		edges [][]int
		nv    int
		U     []int
		a, b  int // -2: no tree
	}{
		{"two components, U across them", [][]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}}, 6, []int{0, 3}, 0, 2},
		{"two components, U needs three atoms", [][]int{{0, 1}, {1, 2}, {3, 4}}, 5, []int{0, 2, 3}, -2, -2},
		{"isolated unary atoms", [][]int{{0}, {1}, {2}}, 3, []int{1, 2}, 1, 2},
		{"duplicate edges, U on one copy and a neighbour", [][]int{{0, 1}, {0, 1}, {1, 2}}, 3, []int{0, 2}, 0, 2},
		{"contained edge between the pair", [][]int{{0, 1, 2}, {1}, {1, 3}}, 4, []int{0, 3}, 0, 2},
		{"contained edges only", [][]int{{0, 1, 2}, {0, 1}, {1, 2}, {1}}, 3, []int{0, 1, 2}, 0, -1},
		{"path ends are never adjacent", [][]int{{0, 1}, {1, 2}, {2, 3}}, 4, []int{0, 3}, -2, -2},
		{"star leaves are", [][]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}}, 5, []int{2, 4}, 1, 3},
	}
	for _, c := range cases {
		h := &Hypergraph{NumVertices: c.nv, Edges: c.edges}
		if a, b := checkAdjacentPair(t, h, pruferLinks(t, h), c.U); a != c.a || b != c.b {
			t.Fatalf("%s: pair (%d,%d), want (%d,%d)", c.name, a, b, c.a, c.b)
		}
	}
}

// ---- the Prüfer search, kept as the reference ---------------------------

// IsJoinTree checks the running-intersection property of a candidate tree
// given as an adjacency list over edge indexes: for every vertex, the edges
// containing it must induce a connected subtree.
func (h *Hypergraph) IsJoinTree(adj [][]int) bool {
	ne := len(h.Edges)
	for v := 0; v < h.NumVertices; v++ {
		var holder []int
		for e := 0; e < ne; e++ {
			if slices.Contains(h.Edges[e], v) {
				holder = append(holder, e)
			}
		}
		if len(holder) <= 1 {
			continue
		}
		inSet := make([]bool, ne)
		for _, e := range holder {
			inSet[e] = true
		}
		// BFS within holder starting from holder[0].
		seen := make([]bool, ne)
		queue := []int{holder[0]}
		seen[holder[0]] = true
		visited := 1
		for len(queue) > 0 {
			e := queue[0]
			queue = queue[1:]
			for _, f := range adj[e] {
				if inSet[f] && !seen[f] {
					seen[f] = true
					visited++
					queue = append(queue, f)
				}
			}
		}
		if visited != len(holder) {
			return false
		}
	}
	return true
}

// EnumerateJoinTrees calls fn with the adjacency list of every join tree of
// the hypergraph (every spanning tree over the edges that satisfies the
// running-intersection property). Enumeration is via Prüfer sequences —
// ℓ^(ℓ-2) trees, so for small hypergraphs only. fn may return false to stop
// early. It is the search AdjacentPairJoinTree ran before it built its tree
// directly, kept as the reference the construction is tested against.
func (h *Hypergraph) EnumerateJoinTrees(fn func(adj [][]int) bool) error {
	ne := len(h.Edges)
	if ne == 1 {
		fn([][]int{{}})
		return nil
	}
	if ne == 2 {
		adj := [][]int{{1}, {0}}
		if h.IsJoinTree(adj) {
			fn(adj)
		}
		return nil
	}
	seq := make([]int, ne-2)
	var rec func(pos int) bool
	rec = func(pos int) bool {
		if pos == len(seq) {
			adj := treeFromPrufer(seq, ne)
			if h.IsJoinTree(adj) {
				return fn(adj)
			}
			return true
		}
		for v := 0; v < ne; v++ {
			seq[pos] = v
			if !rec(pos + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
	return nil
}

// treeFromPrufer decodes a Prüfer sequence into an adjacency list on n nodes.
func treeFromPrufer(seq []int, n int) [][]int {
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 1
	}
	for _, v := range seq {
		degree[v]++
	}
	adj := make([][]int, n)
	addEdge := func(a, b int) {
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	used := make([]bool, n)
	for _, v := range seq {
		for leaf := 0; leaf < n; leaf++ {
			if degree[leaf] == 1 && !used[leaf] {
				addEdge(leaf, v)
				used[leaf] = true
				degree[v]--
				break
			}
		}
	}
	var last []int
	for v := 0; v < n; v++ {
		if !used[v] && degree[v] == 1 {
			last = append(last, v)
		}
	}
	if len(last) == 2 {
		addEdge(last[0], last[1])
	}
	return adj
}
