package hypergraph

import (
	"slices"
	"testing"
)

// treeAdj turns a parent array into the adjacency list IsJoinTree reads.
func treeAdj(parent []int) [][]int {
	adj := make([][]int, len(parent))
	for e, p := range parent {
		if p >= 0 {
			adj[e] = append(adj[e], p)
			adj[p] = append(adj[p], e)
		}
	}
	return adj
}

// checkOneTree fails unless parent is a single tree rooted at root — every
// edge reaches it in fewer than len(parent) steps — with the running
// intersection property.
func checkOneTree(t *testing.T, h *Hypergraph, parent []int, root int) {
	t.Helper()
	if root < 0 || root >= len(parent) || parent[root] != -1 {
		t.Fatalf("root %d, parent %v", root, parent)
	}
	for e := range parent {
		f, steps := e, 0
		for f != root {
			if f = parent[f]; f < 0 || steps == len(parent) {
				t.Fatalf("edge %d does not reach root %d: parent %v", e, root, parent)
			}
			steps++
		}
	}
	if !h.IsJoinTree(treeAdj(parent)) {
		t.Fatalf("parent %v violates running intersection", parent)
	}
}

// TestGYOPastSixtyFourVertices runs ear removal on hypergraphs whose bit sets
// span two words, so covering and isolation are decided across words.
func TestGYOPastSixtyFourVertices(t *testing.T) {
	const n = 70
	t.Run("path", func(t *testing.T) {
		h := &Hypergraph{NumVertices: n + 1}
		for i := range n {
			h.Edges = append(h.Edges, []int{i, i + 1})
		}
		parent, root, ok := h.JoinTree()
		if !ok {
			t.Fatal("a 70-atom path must be acyclic")
		}
		checkOneTree(t, h, parent, root)
	})
	t.Run("ring", func(t *testing.T) {
		h := &Hypergraph{NumVertices: n}
		for i := range n {
			h.Edges = append(h.Edges, []int{i, (i + 1) % n})
		}
		if h.IsAcyclic() {
			t.Fatal("a 70-ring must be cyclic")
		}
	})
	t.Run("disconnected", func(t *testing.T) {
		// Two paths, over vertices 0–39 and 40–68, and vertex 69 alone.
		h := &Hypergraph{NumVertices: n}
		for i := range n - 1 {
			if i != 39 {
				h.Edges = append(h.Edges, []int{i, i + 1})
			}
		}
		h.Edges = append(h.Edges, []int{n - 1})
		parent, root, ok := h.JoinTree()
		if !ok {
			t.Fatal("disconnected acyclic components must form a join tree")
		}
		checkOneTree(t, h, parent, root)
	})
}

// gyoInput encodes a hypergraph in FuzzGYO's byte format.
func gyoInput(numVertices int, edges ...[]int) []byte {
	b := []byte{byte(len(edges) - 1), byte(numVertices - 1)}
	for _, e := range edges {
		b = append(b, byte(len(e)))
		for _, v := range e {
			b = append(b, byte(v))
		}
	}
	return b
}

// readHypergraph decodes FuzzGYO's input: 1–8 edges over 1–130 vertices, each
// edge a size byte (mod 8) and that many vertex bytes (mod the vertex count);
// bytes past the end read as zero.
func readHypergraph(data []byte) *Hypergraph {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	ne, nv := 1+next()%8, 1+next()%130
	h := &Hypergraph{NumVertices: nv}
	for range ne {
		e := make([]int, next()%8)
		for i := range e {
			e[i] = next() % nv
		}
		slices.Sort(e)
		h.Edges = append(h.Edges, slices.Compact(e))
	}
	return h
}

// kruskalAcyclic is FuzzGYO's oracle: the hypergraph is acyclic iff a
// maximum-weight spanning tree over its edges, a link weighing |e∩f|, weighs
// Σ_v (deg(v) − 1) (see AdjacentPairJoinTree).
func kruskalAcyclic(h *Hypergraph) bool {
	type link struct{ e, f, w int }
	var links []link
	for e := range h.Edges {
		for f := e + 1; f < len(h.Edges); f++ {
			w := 0
			for _, v := range h.Edges[e] {
				if slices.Contains(h.Edges[f], v) {
					w++
				}
			}
			links = append(links, link{e, f, w})
		}
	}
	slices.SortStableFunc(links, func(x, y link) int { return y.w - x.w })
	comp := make([]int, len(h.Edges))
	for i := range comp {
		comp[i] = i
	}
	find := func(x int) int {
		for comp[x] != x {
			x = comp[x]
		}
		return x
	}
	weight := 0
	for _, l := range links {
		if ce, cf := find(l.e), find(l.f); ce != cf {
			comp[ce] = cf
			weight += l.w
		}
	}
	need := 0
	deg := make([]int, h.NumVertices)
	for _, e := range h.Edges {
		for _, v := range e {
			if deg[v] > 0 {
				need++
			}
			deg[v]++
		}
	}
	return weight == need
}

// FuzzGYO checks ear removal over multi-word bit sets against the spanning
// tree criterion, and every tree it builds for running intersection.
func FuzzGYO(f *testing.F) {
	f.Add(gyoInput(3, []int{0, 1}, []int{1, 2}, []int{2, 0}))              // triangle
	f.Add(gyoInput(4, []int{0, 1}, []int{1, 2}, []int{2, 3}))              // path
	f.Add(gyoInput(4, []int{0, 1}, []int{2, 3}))                           // disconnected pair
	f.Add(gyoInput(3, []int{0, 1}, []int{0, 1}, []int{1, 2}, []int{1, 2})) // duplicate edges
	f.Add(gyoInput(2, []int{0, 1}, []int{}, []int{1}))                     // an empty edge
	f.Add(gyoInput(130, []int{60, 70}, []int{70, 129}, []int{129, 60}))    // a triangle across words
	f.Fuzz(func(t *testing.T, data []byte) {
		h := readHypergraph(data)
		parent, root, ok := h.JoinTree()
		if want := kruskalAcyclic(h); ok != want {
			t.Fatalf("edges %v over %d vertices: acyclic %v, spanning tree says %v", h.Edges, h.NumVertices, ok, want)
		}
		if ok {
			checkOneTree(t, h, parent, root)
		}
	})
}
