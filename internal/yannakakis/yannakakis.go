// Package yannakakis implements the classic algorithms for acyclic join
// queries that the paper uses as subroutines: linear-time answer counting via
// message passing (Section 2.4, Figure 1), constant-delay enumeration /
// materialization of the answer set [Yannakakis 1981], and on those counts
// positional access to it (AnswersAt, and the direct-access index of Section
// 3.1, Direct).
//
// Counting follows the ⊕/⊗ pattern of Example 2.1: within a join group
// counts are summed (⊕ = Σ), across children they are multiplied (⊗ = Π),
// so cnt(t) is the number of partial answers of the subtree rooted at t.
package yannakakis

import (
	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/parallel"
	"github.com/quantilejoins/qjoin/internal/relation"
)

// Counts holds the per-tuple and per-group subtree answer counts of one
// bottom-up counting pass.
type Counts struct {
	// Tuple[node][i] is the number of partial answers rooted at tuple i of
	// the node's relation.
	Tuple [][]counting.Count
	// Group[node][g] is the summed count of join group g of the node.
	Group [][]counting.Count
	// Total is |Q(D)|.
	Total counting.Count
}

// Scratch holds the reusable buffers of a counting pass. The pivot loop runs
// one pass per candidate instance per iteration; pooling the per-node count
// arrays across iterations removes the largest per-iteration allocations.
// A Scratch may be reused after the *Counts returned from its pass is no
// longer read; it is not safe for concurrent passes.
type Scratch struct {
	tuple [][]counting.Count
	group [][]counting.Count
}

// buffers returns per-node buffer slices of exactly n entries, reusing the
// scratch arrays when they are large enough.
func (s *Scratch) buffers(nNodes int) (tuple, group [][]counting.Count) {
	if s == nil {
		return make([][]counting.Count, nNodes), make([][]counting.Count, nNodes)
	}
	if cap(s.tuple) < nNodes {
		s.tuple = make([][]counting.Count, nNodes)
		s.group = make([][]counting.Count, nNodes)
	}
	s.tuple = s.tuple[:nNodes]
	s.group = s.group[:nNodes]
	return s.tuple, s.group
}

func growCounts(buf []counting.Count, n int) []counting.Count {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]counting.Count, n)
}

// CountWorkers runs the counting pass over a bounded worker pool: per-node
// tuple loops are chunked over row ranges and per-group sums over group
// ranges, with all writes disjoint by index. The node order stays the
// bottom-up tree order (each node consumes its children's finished group
// counts), and the final total folds per-chunk partial sums in chunk order,
// so the result is identical for every worker count.
func CountWorkers(e *jointree.Exec, workers int) *Counts {
	return CountScratch(e, workers, nil)
}

// CountScratch is CountWorkers drawing its count arrays from the given
// scratch (nil allocates fresh, which is what long-lived results — e.g. the
// engine's cached counting state — must use). Every written entry is fully
// assigned, so stale scratch contents never leak into the result.
func CountScratch(e *jointree.Exec, workers int, s *Scratch) *Counts {
	nNodes := len(e.T.Nodes)
	tuple, group := s.buffers(nNodes)
	c := &Counts{Tuple: tuple, Group: group}
	for _, id := range e.T.BottomUp {
		n := e.T.Nodes[id]
		rel := e.Rels[id]
		cnt := growCounts(c.Tuple[id], rel.Len())
		children := n.Children
		gids := make([][]int32, len(children))
		gcnt := make([][]counting.Count, len(children))
		for k, ch := range children {
			gids[k] = e.ParentGids(ch)
			gcnt[k] = c.Group[ch]
		}
		parallel.For(workers, rel.Len(), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := counting.One
				dead := false
				for k := range children {
					gid := gids[k][i]
					if gid < 0 || gcnt[k][gid].IsZero() {
						dead = true
						break
					}
					v = v.Mul(gcnt[k][gid])
				}
				if dead {
					v = counting.Zero
				}
				cnt[i] = v
			}
		})
		c.Tuple[id] = cnt
		if n.Parent >= 0 {
			groups := e.Groups[id]
			g := growCounts(c.Group[id], groups.NumGroups())
			parallel.For(workers, groups.NumGroups(), func(lo, hi int) {
				for gi := lo; gi < hi; gi++ {
					sum := counting.Zero
					for _, ti := range groups.Tuples[gi] {
						sum = sum.Add(cnt[ti])
					}
					g[gi] = sum
				}
			})
			c.Group[id] = g
		}
	}
	rootCnt := c.Tuple[e.T.Root]
	partials := parallel.MapRanges(workers, len(rootCnt), func(lo, hi int) counting.Count {
		sum := counting.Zero
		for i := lo; i < hi; i++ {
			sum = sum.Add(rootCnt[i])
		}
		return sum
	})
	total := counting.Zero
	for _, p := range partials {
		total = total.Add(p)
	}
	c.Total = total
	return c
}

// Enumerate streams every query answer as an assignment laid out per
// e.Q.Vars(). The callback must not retain the slice; it may return false to
// stop enumeration early.
//
// c must be e's counting state (Section 2.4): cnt(t) > 0 says exactly which
// tuples carry an answer, and the walk never binds one that does not (Walk).
// The whole enumeration allocates a handful of per-call slices, nothing per
// answer, and costs O(|D| + ℓ·|Q(D)|) — the bound of a walk over the full
// reduction, without building one, and in the same answer order.
func Enumerate(e *jointree.Exec, c *Counts, fn func(asn []relation.Value) bool) {
	enumerate(e, c, fn)
}

// enumerate is Enumerate returning the work it did (Walk's steps), for the
// test that holds it to its bound.
func enumerate(e *jointree.Exec, c *Counts, fn func(asn []relation.Value) bool) (steps int) {
	l := assignmentLayout(e)
	return Walk(e, c, func(_, node, ti int) bool {
		l.set(node, ti)
		return true
	}, func(node int, rows []int) bool {
		for _, ti := range rows {
			if l.set(node, ti); !fn(l.asn) {
				return false
			}
		}
		return true
	})
}

// Walk is the odometer under Enumerate, for a pass that wants the answers'
// order without the answers: it visits the answers of e in Enumerate's order
// and says what it chooses, a node at a time. bind(d, node, ti) reports that
// tuple ti of node — the d-th node of the tree's pre-order — is part of every
// answer until the next bind at a depth ≤ d, or, when it returns false, of
// none: the walk passes over the tuple and everything under it.
// inner(node, rows) hands over the candidates of the last pre-order node under
// the tuples bound so far, all at once: one answer per row, in order; it
// returns false to stop the walk. A pass keeps what it needs of the bound
// tuples per depth (the driver's tail keeps a prefix of the answer's weight)
// and spends its time in one loop over rows. Walk returns the work it did —
// tuples looked at plus rows scanned while packing live lists — for the tests
// that hold its callers to their bounds.
//
// c must be e's counting state. Root tuples are skipped by count; a leaf's
// join groups are read as they stand (every leaf tuple counts 1); an internal
// node's groups are read through lists of their live tuples, packed per call
// for the nodes that hold a zero-count tuple at all. Below a live root tuple
// every step therefore has a candidate and every candidate leads to an answer.
// The walk is an explicit odometer over the pre-order (children in declaration
// order, later positions varying faster) — the exact nesting the natural
// recursion produces, without its per-visit closure allocations.
func Walk(e *jointree.Exec, c *Counts, bind func(d, node, ti int) bool, inner func(node int, rows []int) bool) (steps int) {
	pre := preOrder(make([]int, 0, len(e.T.Nodes)), e.T, e.T.Root)
	m := len(pre)
	// Per pre-order depth: the node's live lists (nil: its groups serve as they
	// stand), its candidates under the tuples bound above — the root's are its
	// whole relation — and the odometer's position among them; per node (the
	// same count), the tuple bound.
	walk := make([]struct {
		live  *liveLists
		rows  []int
		pos   int
		curTi int
	}, m)
	for d := 1; d < m; d++ {
		if nd := pre[d]; len(e.T.Nodes[nd].Children) > 0 {
			walk[d].live = packLive(e.Groups[nd], c.Tuple[nd])
			steps += len(c.Tuple[nd])
		}
	}
	rootCnt := c.Tuple[e.T.Root]
	if m == 1 {
		// The root is the last node: its live tuples are the candidates.
		rows := make([]int, 0, len(rootCnt))
		for ti := range rootCnt {
			if !rootCnt[ti].IsZero() {
				rows = append(rows, ti)
			}
		}
		inner(e.T.Root, rows)
		return steps + len(rootCnt)
	}
	d := 0
	for {
		// Resolve the candidate at the depth's position, or backtrack when
		// exhausted.
		at := &walk[d]
		ti := at.pos
		if d == 0 {
			for ti < len(rootCnt) && rootCnt[ti].IsZero() {
				ti++
			}
			steps += ti - at.pos
			if at.pos = ti; ti == len(rootCnt) {
				return steps
			}
		} else {
			if at.pos >= len(at.rows) {
				d--
				walk[d].pos++
				continue
			}
			ti = at.rows[at.pos]
		}
		steps++
		node := pre[d]
		if !bind(d, node, ti) {
			at.pos++
			continue
		}
		walk[node].curTi = ti
		// Descend: the next pre-order node's candidates are the join group
		// matched by its parent's just-chosen tuple. That tuple is live, so
		// the group exists and holds a live tuple.
		nd, next := pre[d+1], &walk[d+1]
		gid, _ := e.ParentGroup(nd, walk[e.T.Nodes[nd].Parent].curTi)
		group := e.Groups[nd].Tuples[gid]
		if l := next.live; l != nil {
			group = l.rows[l.off[gid]:l.off[gid+1]]
		}
		if d+1 == m-1 {
			steps += len(group)
			if !inner(nd, group) {
				return steps
			}
			at.pos++
			continue
		}
		d++
		next.pos, next.rows = 0, group
	}
}

// AnswersAt streams the answers at the given positions of Enumerate's order,
// without forming the answers between them: fn(i, asn) is called for ords[i],
// in order, asn as Enumerate lays it out and as little retained. ords must be
// ascending (repeats allowed) and every one below c.Total; c must be e's
// counting state.
//
// It is Walk passing over what the counts say holds no wanted position: a tuple
// bound at some depth stays in cnt(t) · Π answers — the product over the join
// groups of the nodes still to come that are not below it, the digits of a
// mixed-radix number over the children's group counts in declaration order —
// and is passed over, with all of them, when the next position lies beyond.
// Root tuples and live group members are so skipped by count, one step each,
// and a position costs one descent: O(|D| + ℓ·m) steps for m positions, plus
// the live members of join groups below the root that are stepped over — each
// stands for at least one answer lying between two requested positions, so
// never more than Enumerate up to the last one. It returns Walk's steps.
func AnswersAt(e *jointree.Exec, c *Counts, ords []int, fn func(i int, asn []relation.Value)) (steps int) {
	if len(ords) == 0 {
		return 0
	}
	l := assignmentLayout(e)
	// after[node] is the number of answers per partial answer of node's
	// subtree, given the tuples bound above it: the product of the group
	// counts of the nodes that follow the subtree in pre-order.
	after := make([]counting.Count, len(e.T.Nodes))
	after[e.T.Root] = counting.One
	next, seen := 0, counting.Zero // ords[next] is wanted; seen answers lie before the walk
	return Walk(e, c, func(_, node, ti int) bool {
		if through := seen.Add(c.Tuple[node][ti].Mul(after[node])); through.Cmp(counting.FromInt(ords[next])) <= 0 {
			seen = through
			return false
		}
		l.set(node, ti)
		acc, children := after[node], e.T.Nodes[node].Children
		for k := len(children) - 1; k >= 0; k-- {
			after[children[k]] = acc
			gid, _ := e.ParentGroup(children[k], ti)
			acc = acc.Mul(c.Group[children[k]][gid])
		}
		return true
	}, func(node int, rows []int) bool {
		through := seen.AddUint64(uint64(len(rows)))
		for next < len(ords) && counting.FromInt(ords[next]).Less(through) {
			at, _ := counting.FromInt(ords[next]).Sub(seen).Uint64()
			l.set(node, rows[at])
			fn(next, l.asn)
			next++
		}
		seen = through
		return next < len(ords)
	})
}

// preOrder appends to pre the subtree of node id in pre-order with children in
// declaration order: the nesting of Enumerate's odometer.
func preOrder(pre []int, t *jointree.Tree, id int) []int {
	pre = append(pre, id)
	for _, ch := range t.Nodes[id].Children {
		pre = preOrder(pre, t, ch)
	}
	return pre
}

// liveLists holds, per join group of one node, the group's tuples with a
// non-zero count: group g's are rows[off[g]:off[g+1]], ascending — the
// GroupIndex layout restricted to the tuples that carry an answer.
type liveLists struct {
	off  []int32
	rows []int
}

// packLive counting-sorts a node's live tuples by join group in two passes
// over RowGid and the counts, without hashing a key. It returns nil when
// every tuple is live: the node's own groups are the live lists then.
func packLive(g *jointree.GroupIndex, cnt []counting.Count) *liveLists {
	// off is built one slot ahead — group g's count at off[g+2], its start
	// after the prefix sums at off[g+1] — so that the fill pass, advancing
	// off[g+1] to the group's end, leaves group g at [off[g], off[g+1]).
	off := make([]int32, g.NumGroups()+2)
	n := 0
	for i, gid := range g.RowGid {
		if !cnt[i].IsZero() {
			off[gid+2]++
			n++
		}
	}
	if n == len(cnt) {
		return nil
	}
	for gi := 2; gi < len(off); gi++ {
		off[gi] += off[gi-1]
	}
	rows := make([]int, n)
	for i, gid := range g.RowGid {
		if !cnt[i].IsZero() {
			rows[off[gid+1]] = i
			off[gid+1]++
		}
	}
	return &liveLists{off: off, rows: rows}
}

// layout is a buffer for an assignment laid out per e.Q.Vars() and, per node,
// where its relation's columns land in it, beside the columns themselves.
type layout struct {
	asn  []relation.Value
	pos  [][]int
	cols [][][]relation.Value
}

// set binds tuple ti of node in the assignment.
func (l *layout) set(node, ti int) {
	cols := l.cols[node]
	for j, p := range l.pos[node] {
		l.asn[p] = cols[j][ti]
	}
}

// assignmentLayout resolves the layout of e.
func assignmentLayout(e *jointree.Exec) layout {
	varIdx := e.Q.VarIndex()
	l := layout{
		asn:  make([]relation.Value, len(varIdx)),
		pos:  make([][]int, len(e.T.Nodes)),
		cols: make([][][]relation.Value, len(e.T.Nodes)),
	}
	pos := make([]int, 0, len(e.T.Nodes)*len(varIdx)) // every node's positions, never regrown
	for _, n := range e.T.Nodes {
		at := len(pos)
		for _, v := range n.Vars {
			pos = append(pos, varIdx[v])
		}
		l.pos[n.ID], l.cols[n.ID] = pos[at:], e.Rels[n.ID].Cols()
	}
	return l
}

// Materialize collects all answers, counting e for itself. Intended for
// instances already known to be small and for test oracles.
func Materialize(e *jointree.Exec) [][]relation.Value {
	var out [][]relation.Value
	Enumerate(e, CountWorkers(e, 1), func(asn []relation.Value) bool {
		out = append(out, append([]relation.Value(nil), asn...))
		return true
	})
	return out
}
