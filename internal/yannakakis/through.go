package yannakakis

import (
	"slices"

	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/relation"
)

// NodeRows names rows of one join-tree node's relation.
type NodeRows struct {
	Node int
	Rows []int // tuple indexes into the node's relation, ascending
}

// EnumerateThrough streams, each exactly once, the answers of e that use at
// least one of the listed rows — the answers a delta adds (rows appended to
// the derived tree) or takes away (rows removed from the base tree). The walk
// starts at the listed rows and moves outward over the join groups, so its
// cost follows the rows' join neighbourhood and the answers through them,
// never the root relation: Enumerate re-rooted at the changed node.
//
// Several nodes telescope in the usual way: the answers through the first
// entry's rows, then those through the second's that avoid the first's, and
// so on. Each node may be listed once. c must be e's counting state; tuples
// with a zero subtree count are pruned, which leaves dead ends only on the way
// up from a listed row to the root. The callback contract is Enumerate's: the
// assignment is laid out per e.Q.Vars(), must not be retained, and returning
// false stops the walk.
func EnumerateThrough(e *jointree.Exec, c *Counts, through []NodeRows, fn func(asn []relation.Value) bool) {
	w := &throughWalk{e: e, c: c, fn: fn, layout: assignmentLayout(e),
		avoid: make([][]int, len(e.T.Nodes)),
		cur:   make([]int, len(e.T.Nodes)),
	}
	for _, t := range through {
		if len(t.Rows) > 0 && !w.from(t) {
			return
		}
		w.avoid[t.Node] = t.Rows
	}
}

// throughWalk is the state EnumerateThrough shares across its start nodes.
type throughWalk struct {
	e  *jointree.Exec
	c  *Counts
	fn func([]relation.Value) bool
	layout
	avoid [][]int // per node: rows of earlier entries, which later walks skip
	cur   []int   // per node: the tuple the walk currently sits on
}

// throughStep is one position of the re-rooted pre-order: the node to bind
// and the already-bound neighbour its candidates come from — the node's tree
// parent, or, on the way up to the root, its child.
type throughStep struct {
	node, from int
	up         bool
}

// from enumerates the answers through start's rows; false means fn stopped it.
func (w *throughWalk) from(start NodeRows) bool {
	e, t := w.e, w.e.T
	// Order: the start node, its ancestors up to the root, then the subtrees
	// hanging off that chain. Once the chain is bound, zero-count pruning
	// guarantees every remaining step has a live candidate.
	order := []throughStep{{node: start.Node, from: -1}}
	for ch := start.Node; t.Nodes[ch].Parent >= 0; ch = t.Nodes[ch].Parent {
		order = append(order, throughStep{node: t.Nodes[ch].Parent, from: ch, up: true})
	}
	var hang func(id int)
	hang = func(id int) {
		order = append(order, throughStep{node: id, from: t.Nodes[id].Parent})
		for _, ch := range t.Nodes[id].Children {
			hang(ch)
		}
	}
	for on, below := start.Node, -1; on >= 0; on, below = t.Nodes[on].Parent, on {
		for _, ch := range t.Nodes[on].Children {
			if ch != below {
				hang(ch)
			}
		}
	}
	// Going up needs the inverse of the per-edge gid arrays: the parent rows
	// matching a child's join group. One scan of each ancestor's gid array —
	// the pass UpdateCounts makes to mark dirty parents — collects them for
	// exactly the groups the walk can reach.
	upRows := make(map[int]map[int32][]int)
	reach := start.Rows
	for ch := start.Node; t.Nodes[ch].Parent >= 0; ch = t.Nodes[ch].Parent {
		parent := t.Nodes[ch].Parent
		rowGid := e.Groups[ch].RowGid
		need := make([]bool, e.Groups[ch].NumGroups())
		for _, ti := range reach {
			need[rowGid[ti]] = true
		}
		byGid := make(map[int32][]int)
		reach = reach[:0:0]
		live := w.c.Tuple[parent]
		for i := range live {
			if gid, ok := e.ParentGroup(ch, i); ok && need[gid] && !live[i].IsZero() {
				byGid[int32(gid)] = append(byGid[int32(gid)], i)
				reach = append(reach, i)
			}
		}
		upRows[ch] = byGid
	}

	lists := make([][]int, len(order))
	pos := make([]int, len(order))
	lists[0] = start.Rows
	for d := 0; ; {
		if pos[d] >= len(lists[d]) {
			if d == 0 {
				return true
			}
			d--
			pos[d]++
			continue
		}
		node, ti := order[d].node, lists[d][pos[d]]
		if _, avoided := slices.BinarySearch(w.avoid[node], ti); avoided || w.c.Tuple[node][ti].IsZero() {
			pos[d]++
			continue
		}
		w.set(node, ti)
		w.cur[node] = ti
		if d == len(order)-1 {
			if !w.fn(w.asn) {
				return false
			}
			pos[d]++
			continue
		}
		d++
		next := order[d]
		lists[d], pos[d] = nil, 0
		if next.up {
			lists[d] = upRows[next.from][e.Groups[next.from].RowGid[w.cur[next.from]]]
		} else if gid, ok := e.ParentGroup(next.node, w.cur[next.from]); ok {
			lists[d] = e.Groups[next.node].Tuples[gid]
		}
	}
}
