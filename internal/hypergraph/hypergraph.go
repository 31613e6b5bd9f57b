// Package hypergraph implements the hypergraph machinery of Section 2.1:
// acyclicity testing and join-tree construction via GYO ear removal, the
// adjacent-pair join tree of Lemma D.1 as a maximum-weight spanning tree over
// the hyperedges, and the structural measures the partial-SUM dichotomy of
// Theorem 5.6 is stated in (maximal hyperedges, independent variable subsets,
// chordless paths).
//
// GYO is implemented once, over vertex bit sets of any width: it builds every
// join tree (jointree.Build) and tests every candidate partition of the
// hypertree-decomposition search (decomp.Decompose).
//
// The join-tree constructions are polynomial in the number of hyperedges.
// The measures of the classifier search exhaustively (independent subsets,
// chordless-path DFS); query size is a constant in the paper's
// data-complexity analysis, so they are bounded by the query, never by the
// database.
package hypergraph

import (
	"fmt"
	"slices"

	"github.com/quantilejoins/qjoin/internal/query"
)

// Hypergraph is a hypergraph with integer vertices 0..NumVertices-1 and
// hyperedges given as vertex index sets.
type Hypergraph struct {
	NumVertices int
	Edges       [][]int // each sorted ascending, no duplicates within an edge
}

// FromQuery builds the hypergraph H(Q) of a join query: vertices are the
// query variables (in Q.Vars() order), one hyperedge per atom.
func FromQuery(q *query.Query) (*Hypergraph, map[query.Var]int) {
	idx := q.VarIndex()
	h := &Hypergraph{NumVertices: len(idx)}
	for _, a := range q.Atoms {
		edge := make([]int, 0, len(a.Vars))
		seen := make(map[int]bool)
		for _, v := range a.UniqueVars() {
			if !seen[idx[v]] {
				seen[idx[v]] = true
				edge = append(edge, idx[v])
			}
		}
		slices.Sort(edge)
		h.Edges = append(h.Edges, edge)
	}
	return h, idx
}

func subset(a, b []int) bool {
	for _, v := range a {
		if !slices.Contains(b, v) {
			return false
		}
	}
	return true
}

// Adjacent reports whether vertices u and v co-occur in some hyperedge.
// A vertex is adjacent to itself.
func (h *Hypergraph) Adjacent(u, v int) bool {
	for _, e := range h.Edges {
		if slices.Contains(e, u) && slices.Contains(e, v) {
			return true
		}
	}
	return false
}

// MaximalEdgeCount returns mh(H): the number of hyperedges not strictly
// contained in another hyperedge. Duplicate edges count once.
func (h *Hypergraph) MaximalEdgeCount() int {
	n := 0
	for i, e := range h.Edges {
		maximal := true
		for j, f := range h.Edges {
			if i == j {
				continue
			}
			if subset(e, f) && (len(e) < len(f) || (slices.Equal(e, f) && j < i)) {
				// Strictly contained, or a duplicate where an earlier copy
				// represents the class.
				maximal = false
				break
			}
		}
		if maximal {
			n++
		}
	}
	return n
}

// Sets returns the edges as vertex bit sets of words 64-bit words each, the
// input of GYO: edge i is sets[i*words:(i+1)*words], and vertex v is bit v%64
// of its word v/64. words is at least 1.
func (h *Hypergraph) Sets() (sets []uint64, words int) {
	words = max(1, (h.NumVertices+63)/64)
	sets = make([]uint64, len(h.Edges)*words)
	for i, e := range h.Edges {
		for _, v := range e {
			sets[i*words+v/64] |= 1 << (v % 64)
		}
	}
	return sets, words
}

// JoinTree runs GYO ear removal over the edges (GYO(h.Sets())). It returns a
// parent array over edge indexes (parent[root] = -1) and whether the
// hypergraph is acyclic.
func (h *Hypergraph) JoinTree() (parent []int, root int, ok bool) {
	return GYO(h.Sets())
}

// GYO runs the GYO ear-removal algorithm over edges given as vertex bit sets,
// words ≥ 1 words an edge (see Sets), and is the one acyclicity test and
// join-tree builder: jointree.Build and the decomposition search both call
// it. Each round drops the vertices only one remaining edge holds, then
// visits the remaining edges in index order and removes each whose remaining
// vertices another remaining edge covers, the first such edge becoming its
// parent. The hypergraph is acyclic iff one edge — the root — is left.
// Disconnected acyclic hypergraphs yield a single tree whose cross-component
// links share no vertex (a cross product), which is a valid join tree. A call
// allocates the parent array and one buffer; on a cyclic hypergraph it
// returns a nil parent array.
func GYO(edges []uint64, words int) (parent []int, root int, ok bool) {
	ne := len(edges) / words
	parent = make([]int, ne) // an edge is active while its parent is negative
	for i := range parent {
		parent[i] = -1
	}
	if ne == 0 {
		return parent, -1, false
	}
	// reduced holds the still-shared vertices of each edge; once and twice,
	// the vertices at least one and at least two active edges hold.
	buf := make([]uint64, (ne+2)*words)
	reduced, once, twice := buf[:ne*words], buf[ne*words:(ne+1)*words], buf[(ne+1)*words:]
	copy(reduced, edges)
	set := func(e int) []uint64 { return reduced[e*words : (e+1)*words] }
	active := ne
	for active > 1 {
		clear(once)
		clear(twice)
		for e := range ne {
			if parent[e] < 0 {
				for w, m := range set(e) {
					twice[w] |= once[w] & m
					once[w] |= m
				}
			}
		}
		changed := false
		for e := range ne {
			if parent[e] < 0 {
				r := set(e)
				for w, m := range r {
					if m&^twice[w] != 0 {
						r[w] = m & twice[w]
						changed = true
					}
				}
			}
		}
		for e := 0; e < ne && active > 1; e++ {
			if parent[e] >= 0 {
				continue
			}
			r := set(e)
			for f := range ne {
				if f != e && parent[f] < 0 && covered(r, set(f)) {
					parent[e] = f
					active--
					changed = true
					break
				}
			}
		}
		if !changed {
			return nil, -1, false
		}
	}
	return parent, slices.Index(parent, -1), true
}

// covered reports whether bit set a is a subset of b.
func covered(a, b []uint64) bool {
	for w, m := range a {
		if m&^b[w] != 0 {
			return false
		}
	}
	return true
}

// IsAcyclic reports whether the hypergraph is α-acyclic.
func (h *Hypergraph) IsAcyclic() bool {
	_, _, ok := h.JoinTree()
	return ok
}

// RootTree converts an adjacency list into a parent array rooted at root.
func RootTree(adj [][]int, root int) []int {
	parent := make([]int, len(adj))
	for i := range parent {
		parent[i] = -2
	}
	parent[root] = -1
	stack := []int{root}
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range adj[e] {
			if parent[f] == -2 {
				parent[f] = e
				stack = append(stack, f)
			}
		}
	}
	return parent
}

// AdjacentPairJoinTree builds a join tree in which the vertex set U is
// covered by a single node or by two adjacent nodes (Lemma D.1). On success
// it returns the tree as a parent array rooted at nodeA, with nodeB = -1 when
// a single node suffices (then any join tree will do: GYO's).
//
// Otherwise the pair is the lowest (a, b), a < b, among the pairs of edges
// covering U that some join tree has adjacent. A spanning tree T over the
// edges is a join tree iff Σ_{(e,f)∈T} |e∩f| = Σ_v (deg(v)−1): per vertex, the
// tree links whose two ends both hold it form a forest on the deg(v) edges
// that hold it, so no tree weighs more, and one weighs that much exactly when
// every such forest is connected — the running-intersection property. A join
// tree with a–b adjacent therefore exists iff the heaviest spanning tree
// through the link a–b reaches that weight, and Kruskal's algorithm with a–b
// taken first builds it. Links of weight zero join the components of a
// disconnected hypergraph (a cross product); a cyclic hypergraph has no
// spanning tree of that weight at all.
func (h *Hypergraph) AdjacentPairJoinTree(U []int) (parent []int, root, nodeA, nodeB int, err error) {
	for e, edge := range h.Edges {
		if subset(U, edge) {
			p, r, ok := h.JoinTree()
			if !ok {
				return nil, -1, -1, -1, fmt.Errorf("hypergraph: cyclic")
			}
			return p, r, e, -1, nil
		}
	}
	ne := len(h.Edges)
	type link struct{ e, f, w int }
	links := make([]link, 0, ne*(ne-1)/2) // every pair e < f, lowest first
	for e := range h.Edges {
		for f := e + 1; f < ne; f++ {
			w := 0
			for _, v := range h.Edges[e] {
				if slices.Contains(h.Edges[f], v) {
					w++
				}
			}
			links = append(links, link{e, f, w})
		}
	}
	heaviest := slices.Clone(links)
	slices.SortStableFunc(heaviest, func(x, y link) int { return y.w - x.w })
	need := 0
	held := make([]bool, h.NumVertices)
	for _, edge := range h.Edges {
		for _, v := range edge {
			if held[v] {
				need++
			}
			held[v] = true
		}
	}
	comp := make([]int, ne) // union-find over the edges
	find := func(x int) int {
		for comp[x] != x {
			comp[x] = comp[comp[x]]
			x = comp[x]
		}
		return x
	}
	for _, ab := range links {
		if !coveredByPair(h.Edges[ab.e], h.Edges[ab.f], U) {
			continue
		}
		for i := range comp {
			comp[i] = i
		}
		adj := make([][]int, ne)
		weight := 0
		take := func(l link) {
			if ce, cf := find(l.e), find(l.f); ce != cf {
				comp[ce] = cf
				adj[l.e] = append(adj[l.e], l.f)
				adj[l.f] = append(adj[l.f], l.e)
				weight += l.w
			}
		}
		take(ab)
		for _, l := range heaviest {
			take(l)
		}
		if weight == need {
			return RootTree(adj, ab.e), ab.e, ab.e, ab.f, nil
		}
	}
	return nil, -1, -1, -1, fmt.Errorf("hypergraph: no join tree places U on two adjacent nodes")
}

func coveredByPair(ea, eb, U []int) bool {
	for _, v := range U {
		if !slices.Contains(ea, v) && !slices.Contains(eb, v) {
			return false
		}
	}
	return true
}

// MaxIndependentSubset returns the size of the largest subset of U whose
// vertices are pairwise non-adjacent. Exponential in |U|; U is bounded by
// query size.
func (h *Hypergraph) MaxIndependentSubset(U []int) int {
	best := 0
	n := len(U)
	if n > 20 {
		panic("hypergraph: MaxIndependentSubset limited to 20 vertices")
	}
	var rec func(pos int, chosen []int)
	rec = func(pos int, chosen []int) {
		if len(chosen)+(n-pos) <= best {
			return
		}
		if pos == n {
			if len(chosen) > best {
				best = len(chosen)
			}
			return
		}
		ok := true
		for _, c := range chosen {
			if h.Adjacent(c, U[pos]) {
				ok = false
				break
			}
		}
		if ok {
			rec(pos+1, append(chosen, U[pos]))
		}
		rec(pos+1, chosen)
	}
	rec(0, nil)
	return best
}

// HasLongChordlessPath reports whether there is a chordless path between two
// distinct vertices of U with at least minVertices vertices. A chordless
// path is a vertex sequence where consecutive vertices co-occur in a
// hyperedge and no two non-consecutive vertices do (Section 2.1).
// Theorem 5.6 uses minVertices = 4 ("length at most 3" on the positive side).
func (h *Hypergraph) HasLongChordlessPath(U []int, minVertices int) bool {
	inU := make(map[int]bool, len(U))
	for _, v := range U {
		inU[v] = true
	}
	// Precompute the co-occurrence graph.
	adj := make([][]bool, h.NumVertices)
	for i := range adj {
		adj[i] = make([]bool, h.NumVertices)
	}
	for _, e := range h.Edges {
		for i := 0; i < len(e); i++ {
			for j := i + 1; j < len(e); j++ {
				adj[e[i]][e[j]] = true
				adj[e[j]][e[i]] = true
			}
		}
	}
	var path []int
	onPath := make([]bool, h.NumVertices)
	var dfs func() bool
	dfs = func() bool {
		last := path[len(path)-1]
		for next := 0; next < h.NumVertices; next++ {
			if onPath[next] || !adj[last][next] {
				continue
			}
			// Chordless: next must not be adjacent to any path vertex except
			// the last one.
			chordless := true
			for _, p := range path[:len(path)-1] {
				if adj[p][next] {
					chordless = false
					break
				}
			}
			if !chordless {
				continue
			}
			if inU[next] && len(path)+1 >= minVertices {
				return true
			}
			if inU[next] {
				// Reaching a U-vertex too early closes this path; a longer
				// chordless path to it is a different path explored on
				// another branch. Continuing through it is allowed only if
				// some other U endpoint lies beyond, which the outer loop
				// over start vertices still finds — but extending beyond a
				// potential endpoint can also reveal longer paths to other
				// U vertices, so we do extend.
			}
			path = append(path, next)
			onPath[next] = true
			if dfs() {
				return true
			}
			onPath[next] = false
			path = path[:len(path)-1]
		}
		return false
	}
	for _, u := range U {
		path = path[:0]
		for i := range onPath {
			onPath[i] = false
		}
		path = append(path, u)
		onPath[u] = true
		if dfs() {
			return true
		}
		onPath[u] = false
	}
	return false
}
