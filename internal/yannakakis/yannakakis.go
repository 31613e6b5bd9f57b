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

// Count runs the counting pass over an executable join tree sequentially;
// CountWorkers is the data-parallel variant.
func Count(e *jointree.Exec) *Counts { return CountWorkers(e, 1) }

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

// SumTotals adds the Total fields of the given counting states, treating
// nil as zero. This is the count merge of the sharded driver: hash shards
// partition the answer set, so disjoint per-shard totals add up to the
// global |Q(D)| exactly — the property that lets sharded quantiles stay
// exact instead of approximate.
func SumTotals(states ...*Counts) counting.Count {
	t := counting.Zero
	for _, s := range states {
		if s != nil {
			t = t.Add(s.Total)
		}
	}
	return t
}

// CountAnswers returns |Q(D)| for an executable join tree.
func CountAnswers(e *jointree.Exec) counting.Count { return Count(e).Total }

// CountAnswersWorkers is CountAnswers over a bounded worker pool.
func CountAnswersWorkers(e *jointree.Exec, workers int) counting.Count {
	return CountWorkers(e, workers).Total
}

// Enumerate streams every query answer as an assignment laid out per
// e.Q.Vars(). The callback must not retain the slice; it may return false to
// stop enumeration early. Dangling tuples are skipped on the fly, so a prior
// FullReduce is not required for correctness (only for speed guarantees).
//
// The walk is an explicit odometer over the tree's pre-order (children in
// declaration order, later positions varying faster) — the exact nesting the
// natural recursion produces, without its per-visit closure allocations: the
// whole enumeration allocates a handful of per-call slices, nothing per
// answer.
func Enumerate(e *jointree.Exec, fn func(asn []relation.Value) bool) {
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
	lists := make([][]int, m) // candidate tuples at depth d (nil at the root)
	pos := make([]int, m)     // odometer position per depth
	curTi := make([]int, len(e.T.Nodes))
	rootN := e.Rels[e.T.Root].Len()

	d := 0
	for {
		// Resolve the candidate at pos[d], or backtrack when exhausted.
		var ti int
		if d == 0 {
			if pos[0] >= rootN {
				return
			}
			ti = pos[0]
		} else {
			if pos[d] >= len(lists[d]) {
				d--
				pos[d]++
				continue
			}
			ti = lists[d][pos[d]]
		}
		node := pre[d]
		cols := nodeCols[node]
		for j, p := range nodePos[node] {
			asn[p] = cols[j][ti]
		}
		curTi[node] = ti
		if d == m-1 {
			if !fn(asn) {
				return
			}
			pos[d]++
			continue
		}
		// Descend: the next pre-order node's candidates are the join group
		// matched by its parent's just-chosen tuple. A missing group empties
		// the list, which backtracks — exactly the recursion's "no answers
		// under this tuple on this branch".
		d++
		nd := pre[d]
		if gid, ok := e.ParentGroup(nd, curTi[e.T.Nodes[nd].Parent]); ok {
			lists[d] = e.Groups[nd].Tuples[gid]
		} else {
			lists[d] = nil
		}
		pos[d] = 0
	}
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

// Materialize collects all answers. Intended for instances already known to
// be small (the termination step of Algorithm 1) and for test oracles.
func Materialize(e *jointree.Exec) [][]relation.Value {
	var out [][]relation.Value
	Enumerate(e, func(asn []relation.Value) bool {
		out = append(out, append([]relation.Value(nil), asn...))
		return true
	})
	return out
}
