// Package yannakakis implements the classic algorithms for acyclic join
// queries that the paper uses as subroutines: linear-time answer counting via
// message passing (Section 2.4, Figure 1), constant-delay enumeration /
// materialization of the answer set [Yannakakis 1981], and on those counts
// positional access to it (AnswersAt: the ordinals Section 3.1's sampling
// draws, decoded by the count-guided walk).
//
// Counting follows the ⊕/⊗ pattern of Example 2.1: within a join group
// counts are summed (⊕ = Σ), across children they are multiplied (⊗ = Π),
// so cnt(t) is the number of partial answers of the subtree rooted at t.
package yannakakis

import (
	"math/bits"
	"sort"

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
	}, func(node int, rows []int32) bool {
		for _, ti := range rows {
			if l.set(node, int(ti)); !fn(l.asn) {
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
func Walk(e *jointree.Exec, c *Counts, bind func(d, node, ti int) bool, inner func(node int, rows []int32) bool) (steps int) {
	pre := preOrder(make([]int, 0, len(e.T.Nodes)), e.T, e.T.Root)
	m := len(pre)
	// Per pre-order depth: the node's live lists (nil: its groups serve as they
	// stand), its candidates under the tuples bound above — the root's are its
	// whole relation — and the odometer's position among them; per node (the
	// same count), the tuple bound.
	walk := make([]struct {
		live  *liveLists
		rows  []int32
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
		rows := make([]int32, 0, len(rootCnt))
		for ti := range rootCnt {
			if !rootCnt[ti].IsZero() {
				rows = append(rows, int32(ti))
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
			ti = int(at.rows[at.pos])
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

// AnswersAt streams the answers at the given positions of Enumerate's order —
// 128-bit counts, which reach every answer of Q(D) — without forming the
// answers between them: fn(i, asn) is called for ords[i], in order, asn as
// Enumerate lays it out and as little retained. ords must be ascending
// (repeats allowed) and every one below c.Total; c must be e's counting
// state. It is the one decoder of ordinals into answers: the pivot loop's
// tail recovers the members of its weight classes with it, and sampling
// (Section 3.1) decodes its uniform draws with it, many rounds per call.
//
// It is Enumerate's odometer passing over what the counts say holds no wanted
// position: a tuple bound at some depth stands for cnt(t) · Π answers — the
// product over the join groups of the nodes still to come that are not below
// it, the digits of a mixed-radix number over the children's group counts in
// declaration order — and is passed over, with all of them, when the next
// position lies beyond; a group the next position lies past is left at once.
// Inside a group the tuple holding a position is found without a scan. A
// leaf's tuples count one each, so it is a quotient away. A group of a node
// with children is read once per call, the first time the walk enters it —
// its live members and the running sum of their counts, the pass a scan would
// make — and from then on, on this entry or any later one (the tuple above it
// changed, its parent's did not), searched: the member the walk stands on
// first, then a binary search of the rest. Only the root is scanned, once. So
// m positions cost O(|D| + ℓ·m·⌈log |D|⌉) steps on any tree, ascending dense
// positions one probe per tuple bound, and nothing is kept between calls: a
// call for a few positions still passes over the root's counts, so callers
// decode all they need in one call. It returns the steps: tuples bound or
// passed over, probes, and rows of the groups it read.
//
// The []int form exists only for tests that pass int positions (it converts
// them); every other caller passes counts.
func AnswersAt[O int | counting.Count](e *jointree.Exec, c *Counts, ords []O, fn func(i int, asn []relation.Value)) (steps int) {
	at, ok := any(ords).([]counting.Count)
	for i := 0; !ok && i < len(ords); i++ {
		at = append(at, counting.FromInt(any(ords[i]).(int)))
	}
	return answersAt(e, c, at, fn)
}

func answersAt(e *jointree.Exec, c *Counts, ords []counting.Count, fn func(i int, asn []relation.Value)) (steps int) {
	if len(ords) == 0 {
		return 0
	}
	t := e.T
	l := assignmentLayout(e)
	pre := preOrder(make([]int, 0, len(t.Nodes)), t, t.Root)
	last := len(pre) - 1
	// Per node: under the tuples bound above it, its join group and the
	// answers per partial answer of its subtree (the product of the group
	// counts of the nodes that follow the subtree in pre-order); for a node
	// with children, the groups the call has read — group g's live members
	// are rows[read[g].lo:read[g].hi], ascending, and sums the running totals
	// of their counts.
	nodes := make([]struct {
		gid   int
		after counting.Count
		read  []struct{ lo, hi int32 }
		rows  []int32
		sums  []counting.Count
	}, len(t.Nodes))
	for _, nd := range pre[1:] {
		if len(t.Nodes[nd].Children) > 0 {
			nodes[nd].read = make([]struct{ lo, hi int32 }, e.Groups[nd].NumGroups())
		}
	}
	nodes[t.Root].after = counting.One
	// Per pre-order depth: the candidates (nil at the root: every row) with
	// their running counts (nil at the root and at leaves), the candidate the
	// walk stands on and the counts of those before it, and the answers the
	// group spans, [start, end).
	lv := make([]struct {
		rows       []int32
		sums       []counting.Count
		pos        int
		units      counting.Count
		start, end counting.Count
	}, len(pre))
	lv[0].end = c.Total
	for next, d := 0, 0; ; {
		o, at := ords[next], &lv[d]
		if !o.Less(at.end) {
			// o lies past the group, so past the tuple bound above it.
			d--
			up := &lv[d]
			up.units, up.pos = up.units.Add(c.Tuple[pre[d]][rowAt(up.rows, up.pos)]), up.pos+1
			continue
		}
		node := pre[d]
		if d == last {
			// A leaf nothing follows: o's tuple is the (o − start)-th.
			j, _ := o.Sub(at.start).Uint64()
			l.set(node, rowAt(at.rows, int(j)))
			fn(next, l.asn)
			if steps, next = steps+1, next+1; next == len(ords) {
				return steps
			}
			continue
		}
		ns, cnt := &nodes[node], c.Tuple[node]
		scaled := ns.after != counting.One
		q := o.Sub(at.start) // o's offset in the group, in units of ns.after
		if scaled {
			q, _ = q.DivMod(ns.after)
		}
		switch {
		case at.sums != nil:
			// The first member whose running count passes q: the one the walk
			// stands on when positions are dense, else found by binary search.
			if steps++; !q.Less(at.sums[at.pos]) {
				rest := at.sums[at.pos+1:]
				at.pos += 1 + sort.Search(len(rest), func(i int) bool { return q.Less(rest[i]) })
				steps += bits.Len(uint(len(rest)))
			}
			if at.units = counting.Zero; at.pos > 0 {
				at.units = at.sums[at.pos-1]
			}
		case d > 0: // a leaf
			j, _ := q.Uint64()
			at.pos, at.units = int(j), q
		default:
			for {
				u := at.units.Add(cnt[at.pos])
				if q.Less(u) {
					break
				}
				at.units, at.pos = u, at.pos+1
				steps++
			}
		}
		ti := rowAt(at.rows, at.pos)
		l.set(node, ti)
		steps++
		acc, children := ns.after, t.Nodes[node].Children
		for k := len(children) - 1; k >= 0; k-- {
			ch := &nodes[children[k]]
			ch.after, ch.gid = acc, int(e.ParentGids(children[k])[ti])
			if k > 0 {
				acc = acc.Mul(c.Group[children[k]][ch.gid])
			}
		}
		// The tuple's answers are those of the next node's join group.
		before, span := at.units, cnt[ti]
		if scaled {
			before, span = before.Mul(ns.after), span.Mul(ns.after)
		}
		d++
		nd := pre[d]
		nn := &nodes[nd]
		rows, sums := e.Groups[nd].Tuples[nn.gid], []counting.Count(nil)
		if nn.read != nil {
			r := &nn.read[nn.gid]
			if r.hi == 0 { // a live group has a live member: hi > 0 once read
				if nn.rows == nil {
					nn.rows, nn.sums = make([]int32, 0, len(c.Tuple[nd])), make([]counting.Count, 0, len(c.Tuple[nd]))
				}
				// Appended through locals: a slice stored into nn per member
				// would pay a write barrier each time while the GC runs.
				live, lsums, sum := nn.rows, nn.sums, counting.Zero
				for _, ti := range rows {
					if x := c.Tuple[nd][ti]; !x.IsZero() {
						sum = sum.Add(x)
						live, lsums = append(live, ti), append(lsums, sum)
					}
				}
				r.lo, r.hi = int32(len(nn.rows)), int32(len(live))
				nn.rows, nn.sums = live, lsums
				steps += len(rows)
			}
			rows, sums = nn.rows[r.lo:r.hi], nn.sums[r.lo:r.hi]
		}
		lv[d].rows, lv[d].sums, lv[d].pos, lv[d].units = rows, sums, 0, counting.Zero
		lv[d].start = at.start.Add(before)
		lv[d].end = lv[d].start.Add(span)
	}
}

// rowAt is the tuple at position pos of a candidate list; nil lists every row.
func rowAt(rows []int32, pos int) int {
	if rows == nil {
		return pos
	}
	return int(rows[pos])
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
	rows []int32
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
	rows := make([]int32, n)
	for i, gid := range g.RowGid {
		if !cnt[i].IsZero() {
			rows[off[gid+1]] = int32(i)
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
