// Package yannakakis implements the classic algorithms for acyclic join
// queries that the paper uses as subroutines: linear-time answer counting via
// message passing (Section 2.4, Figure 1) and constant-delay enumeration /
// materialization of the answer set [Yannakakis 1981].
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
					var gid int
					var ok bool
					if pg := gids[k]; pg != nil {
						gid = int(pg[i])
						ok = pg[i] >= 0
					} else {
						gid, ok = e.ParentGroup(children[k], i)
					}
					if !ok || gcnt[k][gid].IsZero() {
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
// tuples carry an answer, and the walk never binds one that does not. Root
// tuples are skipped by count; a leaf's join groups are read as they stand
// (every leaf tuple counts 1); an internal node's groups are read through
// lists of their live tuples, packed per call for the nodes that hold a
// zero-count tuple at all. Below a live root tuple every step therefore has a
// candidate, every candidate leads to an answer, and the whole walk costs
// O(|D| + ℓ·|Q(D)|) — the bound of a walk over the full reduction, without
// building one, and in the same answer order.
//
// The walk is an explicit odometer over the tree's pre-order (children in
// declaration order, later positions varying faster) — the exact nesting the
// natural recursion produces, without its per-visit closure allocations: the
// whole enumeration allocates a handful of per-call slices, nothing per
// answer.
func Enumerate(e *jointree.Exec, c *Counts, fn func(asn []relation.Value) bool) {
	enumerate(e, c, fn)
}

// enumerate is Enumerate returning the work it did, for the test that holds
// it to its bound: tuples looked at by the walk plus rows scanned while
// packing live lists.
func enumerate(e *jointree.Exec, c *Counts, fn func(asn []relation.Value) bool) (steps int) {
	nodePos, nodeCols := assignmentLayout(e)
	asn := make([]relation.Value, len(e.Q.Vars()))

	// Pre-order with children in declaration order.
	pre := make([]int, 0, len(e.T.Nodes))
	var push func(id int)
	push = func(id int) {
		pre = append(pre, id)
		for _, ch := range e.T.Nodes[id].Children {
			push(ch)
		}
	}
	push(e.T.Root)

	m := len(pre)
	live := make([]*liveLists, m) // per depth; nil: the node's groups serve as they stand
	for d := 1; d < m; d++ {
		if nd := pre[d]; len(e.T.Nodes[nd].Children) > 0 {
			live[d] = packLive(e.Groups[nd], c.Tuple[nd])
			steps += len(c.Tuple[nd])
		}
	}
	// The candidates at depth d are rows[d]; the root's are its whole relation.
	rows := make([][]int, m)
	pos := make([]int, m) // odometer position per depth
	curTi := make([]int, len(e.T.Nodes))
	rootCnt := c.Tuple[e.T.Root]

	d := 0
	for {
		// Resolve the candidate at pos[d], or backtrack when exhausted.
		var ti int
		if d == 0 {
			ti = pos[0]
			for ti < len(rootCnt) && rootCnt[ti].IsZero() {
				ti++
			}
			steps += ti - pos[0]
			if pos[0] = ti; ti == len(rootCnt) {
				return steps
			}
		} else {
			if pos[d] >= len(rows[d]) {
				d--
				pos[d]++
				continue
			}
			ti = rows[d][pos[d]]
		}
		steps++
		node := pre[d]
		cols := nodeCols[node]
		for j, p := range nodePos[node] {
			asn[p] = cols[j][ti]
		}
		curTi[node] = ti
		if d == m-1 {
			if !fn(asn) {
				return steps
			}
			pos[d]++
			continue
		}
		// Descend: the next pre-order node's candidates are the join group
		// matched by its parent's just-chosen tuple. That tuple is live, so
		// the group exists and holds a live tuple.
		d++
		nd := pre[d]
		pos[d] = 0
		gid, _ := e.ParentGroup(nd, curTi[e.T.Nodes[nd].Parent])
		if l := live[d]; l != nil {
			rows[d] = l.rows[l.off[gid]:l.off[gid+1]]
		} else {
			rows[d] = e.Groups[nd].Tuples[gid]
		}
	}
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

// assignmentLayout resolves, per node, where its relation's columns land in
// an assignment laid out per e.Q.Vars(), beside the columns themselves.
func assignmentLayout(e *jointree.Exec) (nodePos [][]int, nodeCols [][][]relation.Value) {
	varIdx := e.Q.VarIndex()
	nodePos = make([][]int, len(e.T.Nodes))
	nodeCols = make([][][]relation.Value, len(e.T.Nodes))
	for _, n := range e.T.Nodes {
		pos := make([]int, len(n.Vars))
		for j, v := range n.Vars {
			pos[j] = varIdx[v]
		}
		nodePos[n.ID] = pos
		nodeCols[n.ID] = e.Rels[n.ID].Cols()
	}
	return nodePos, nodeCols
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
