// Package anyk implements ranked ("any-k") enumeration of join answers in
// weight order for subset-monotone ranking functions, after the Recursive
// Enumeration Algorithm line of work the paper builds on (Kimelfeld & Sagiv
// 2006 [15]; Tziavelis et al. 2022 [23]).
//
// The paper uses ranked enumeration as the conceptual home of
// subset-monotonicity (Section 2.2) and cites it as the source of the
// adjacent-pair SUM trimming [22]; this module completes the ecosystem: over
// the executable tree and its counts (Section 2.4) it streams answers in
// non-decreasing weight order with logarithmic delay, which gives Top-K and
// threshold queries over the same substrate the quantile algorithms run on.
//
// Construction: for every join group the solutions of its subtree form a
// lazily materialized sorted stream. A group's stream k-way-merges the
// streams of its tuples that carry an answer — cnt(t) > 0, so every child
// group a seeded tuple reaches holds one too and no stream stalls; the tree
// needs no full reduction — and a tuple's stream enumerates the product of
// its child-group streams best-first (coordinate-successor generation, valid
// because subset-monotone aggregates are monotone in every coordinate).
// Streams are memoized per group, so shared subtrees are enumerated once —
// the same factorization that makes message passing linear. Child groups are
// found through the edges' parent-gid arrays; no key is hashed.
package anyk

import (
	"container/heap"
	"errors"

	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/yannakakis"
)

// ErrExhausted is returned by Next after the last answer.
var ErrExhausted = errors.New("anyk: enumeration exhausted")

// solution is one ranked partial answer of a group's subtree: a tuple of the
// group plus, per child of that tuple's node, the index of a solution in the
// child group's stream.
type solution struct {
	weight   ranking.Weightv
	tupleIdx int   // index into the group's tuple list
	childSol []int // per child: solution index in the child group's stream
}

// candidate is a frontier entry of a tuple's product enumeration.
type candidate struct {
	weight   ranking.Weightv
	tupleIdx int
	childSol []int
}

// groupStream lazily enumerates the ranked solutions of one join group.
type groupStream struct {
	e      *Enumerator
	node   int
	tuples []int // tuple indexes of the group (or all root tuples)

	// found is the sorted prefix of solutions discovered so far.
	found []solution
	// frontier holds candidate solutions not yet emitted.
	frontier *candidateHeap
	// seen dedupes frontier pushes (same tuple + same child vector).
	seen map[string]bool
	done bool
}

// Enumerator streams the answers of an executable join tree in
// non-decreasing weight order.
type Enumerator struct {
	exec *jointree.Exec
	cnt  [][]counting.Count // per node and tuple: cnt(t), the exec's counting state
	f    *ranking.Func
	mu   map[query.Var]int

	weighers []*ranking.TupleWeigher
	// groups[node][gid] is the memoized stream of that join group.
	groups [][]*groupStream
	root   *groupStream

	varIdx  map[query.Var]int
	nodePos [][]int
	row     []relation.Value // the tuple being weighed
	emitted int
}

// New builds an enumerator over an executable tree and its counting state c
// (Section 2.4). It never mutates e or c, so any number of enumerators —
// including concurrent ones — may share one tree, and the streams are those
// of the tree's full reduction, answer for answer in the same order.
func New(e *jointree.Exec, c *yannakakis.Counts, f *ranking.Func) (*Enumerator, error) {
	if err := f.Validate(e.Q); err != nil {
		return nil, err
	}
	mu, err := f.AssignVars(e.Q)
	if err != nil {
		return nil, err
	}
	en := &Enumerator{exec: e, cnt: c.Tuple, f: f, mu: mu, varIdx: e.Q.VarIndex()}
	en.weighers = make([]*ranking.TupleWeigher, len(e.T.Nodes))
	en.groups = make([][]*groupStream, len(e.T.Nodes))
	en.nodePos = make([][]int, len(e.T.Nodes))
	width := 0
	for _, n := range e.T.Nodes {
		en.weighers[n.ID] = ranking.NewTupleWeigher(f, mu, n.Atom, n.Vars)
		if n.Parent >= 0 {
			en.groups[n.ID] = make([]*groupStream, e.Groups[n.ID].NumGroups())
		}
		pos := make([]int, len(n.Vars))
		for j, v := range n.Vars {
			pos[j] = en.varIdx[v]
		}
		en.nodePos[n.ID] = pos
		width = max(width, len(n.Vars))
	}
	en.row = make([]relation.Value, width)
	// Artificial root group: all root tuples.
	rootTuples := make([]int, e.Rels[e.T.Root].Len())
	for i := range rootTuples {
		rootTuples[i] = i
	}
	en.root = en.newStream(e.T.Root, rootTuples)
	return en, nil
}

func (en *Enumerator) newStream(node int, tuples []int) *groupStream {
	gs := &groupStream{
		e:        en,
		node:     node,
		tuples:   tuples,
		frontier: &candidateHeap{f: en.f},
		seen:     make(map[string]bool),
	}
	// Seed: the best candidate of every tuple in the group that carries an
	// answer.
	for ti, t := range tuples {
		if !en.cnt[node][t].IsZero() {
			gs.push(gs.bestOf(ti))
		}
	}
	return gs
}

// stream returns the memoized stream of a child group.
func (en *Enumerator) stream(node, gid int) *groupStream {
	if s := en.groups[node][gid]; s != nil {
		return s
	}
	s := en.newStream(node, en.exec.Groups[node].Tuples[gid])
	en.groups[node][gid] = s
	return s
}

// ownWeight returns the weight of the group's ti-th tuple on its own.
func (gs *groupStream) ownWeight(ti int) ranking.Weightv {
	en := gs.e
	row := en.exec.Rels[gs.node].CopyRow(en.row, gs.tuples[ti])
	return en.weighers[gs.node].WeightOf(row)
}

// bestOf builds the minimal candidate of the group's ti-th tuple, which
// carries an answer: the first solution of every child group, each of which
// therefore holds one.
func (gs *groupStream) bestOf(ti int) candidate {
	en := gs.e
	w := gs.ownWeight(ti)
	children := en.exec.T.Nodes[gs.node].Children
	for _, ch := range children {
		gid, _ := en.exec.ParentGroup(ch, gs.tuples[ti])
		sol, _ := en.stream(ch, gid).get(0)
		w = en.f.Combine(w, sol.weight)
	}
	return candidate{weight: w, tupleIdx: ti, childSol: make([]int, len(children))}
}

// weightOf recomputes a candidate's weight from its child solution indexes.
// Returns false if some child index does not (yet or ever) exist.
func (gs *groupStream) weightOf(ti int, childSol []int) (ranking.Weightv, bool) {
	en := gs.e
	w := gs.ownWeight(ti)
	for ci, ch := range en.exec.T.Nodes[gs.node].Children {
		gid, _ := en.exec.ParentGroup(ch, gs.tuples[ti])
		sol, ok := en.stream(ch, gid).get(childSol[ci])
		if !ok {
			return ranking.Weightv{}, false
		}
		w = en.f.Combine(w, sol.weight)
	}
	return w, true
}

func (gs *groupStream) push(c candidate) {
	key := candKey(c.tupleIdx, c.childSol)
	if gs.seen[key] {
		return
	}
	gs.seen[key] = true
	heap.Push(gs.frontier, c)
}

func candKey(ti int, childSol []int) string {
	buf := make([]byte, 0, 8*(1+len(childSol)))
	put := func(v int) {
		u := uint64(v)
		buf = append(buf, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
			byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	}
	put(ti)
	for _, s := range childSol {
		put(s)
	}
	return string(buf)
}

// get returns the idx-th solution of the stream, materializing lazily.
func (gs *groupStream) get(idx int) (solution, bool) {
	for len(gs.found) <= idx && !gs.done {
		gs.advance()
	}
	if idx < len(gs.found) {
		return gs.found[idx], true
	}
	return solution{}, false
}

// advance pops the frontier minimum into found and pushes its successors:
// the same tuple with exactly one child-solution index incremented.
func (gs *groupStream) advance() {
	if gs.frontier.Len() == 0 {
		gs.done = true
		return
	}
	c := heap.Pop(gs.frontier).(candidate)
	gs.found = append(gs.found, solution{weight: c.weight, tupleIdx: c.tupleIdx, childSol: c.childSol})
	for ci := range c.childSol {
		next := append(append([]int(nil), c.childSol...), 0)[:len(c.childSol)]
		next[ci]++
		if w, ok := gs.weightOf(c.tupleIdx, next); ok {
			gs.push(candidate{weight: w, tupleIdx: c.tupleIdx, childSol: next})
		}
	}
}

// Next returns the next answer in non-decreasing weight order, writing the
// assignment (laid out per Q.Vars()) into asn.
func (en *Enumerator) Next(asn []relation.Value) (ranking.Weightv, error) {
	idx := en.emitted
	sol, ok := en.root.get(idx)
	if !ok {
		return ranking.Weightv{}, ErrExhausted
	}
	en.emitted++
	en.fill(en.root, idx, asn)
	return sol.weight, nil
}

// fill reconstructs the assignment of the stream's idx-th solution.
func (en *Enumerator) fill(gs *groupStream, idx int, asn []relation.Value) {
	sol, _ := gs.get(idx)
	node, ti := gs.node, gs.tuples[sol.tupleIdx]
	cols := en.exec.Rels[node].Cols()
	for j, p := range en.nodePos[node] {
		asn[p] = cols[j][ti]
	}
	for ci, ch := range en.exec.T.Nodes[node].Children {
		gid, _ := en.exec.ParentGroup(ch, ti)
		en.fill(en.stream(ch, gid), sol.childSol[ci], asn)
	}
}

// candidateHeap orders candidates by weight under the ranking function.
type candidateHeap struct {
	f     *ranking.Func
	items []candidate
}

func (h *candidateHeap) Len() int { return len(h.items) }
func (h *candidateHeap) Less(i, j int) bool {
	return h.f.Compare(h.items[i].weight, h.items[j].weight) < 0
}
func (h *candidateHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *candidateHeap) Push(x any)    { h.items = append(h.items, x.(candidate)) }
func (h *candidateHeap) Pop() any {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}
