// Package jointree turns a join tree of an acyclic query into an executable
// structure: per tree node the relation of its atom — the database's own, not
// a copy; the query is in normal form (query.Normalize), so an atom's columns
// are its node's variables — and, for every parent-child pair, the "join
// groups" of Section 2.4: child tuples grouped by the variables shared with
// the parent.
//
// Every message-passing algorithm in the paper (counting, pivot selection,
// sketch propagation) and the Yannakakis operations (full reduction,
// enumeration) run over this structure.
package jointree

import (
	"fmt"
	"slices"

	"github.com/quantilejoins/qjoin/internal/hypergraph"
	"github.com/quantilejoins/qjoin/internal/parallel"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/relation"
)

// Node is one join-tree node, owning one query atom.
type Node struct {
	ID               int
	Atom             int // index into the query's atom list
	Vars             []query.Var
	Parent           int // node id, -1 for the root
	Children         []int
	SharedWithParent []query.Var
}

// Tree is a rooted join tree over the atoms of a query.
type Tree struct {
	Nodes    []*Node
	Root     int
	BottomUp []int // node ids, every child before its parent
	TopDown  []int // reverse of BottomUp
}

// Build constructs a join tree for q via GYO ear removal. It fails if the
// query is cyclic.
func Build(q *query.Query) (*Tree, error) {
	h, _ := hypergraph.FromQuery(q)
	parent, root, ok := h.JoinTree()
	if !ok {
		return nil, fmt.Errorf("jointree: query %s is cyclic", q)
	}
	return FromParent(q, parent, root), nil
}

// BuildAdjacentPair constructs a join tree in which the variables U sit on a
// single node or two adjacent nodes (Lemma D.1), returning the node ids of
// the pair (nodeB = -1 if one node suffices; otherwise the lowest pair of
// atoms any join tree has adjacent). The tree is a maximum-weight spanning
// tree over the atoms (hypergraph.AdjacentPairJoinTree), polynomial in their
// number; an error means no join tree covers U that way — the negative side
// of Theorem 5.6.
func BuildAdjacentPair(q *query.Query, U []query.Var) (t *Tree, nodeA, nodeB int, err error) {
	h, idx := hypergraph.FromQuery(q)
	uIdx := make([]int, 0, len(U))
	for _, v := range U {
		i, ok := idx[v]
		if !ok {
			return nil, -1, -1, fmt.Errorf("jointree: ranked variable %s not in query", v)
		}
		uIdx = append(uIdx, i)
	}
	parent, root, a, b, err := h.AdjacentPairJoinTree(uIdx)
	if err != nil {
		return nil, -1, -1, err
	}
	t = FromParent(q, parent, root)
	// Edge indexes equal atom indexes equal node ids in FromParent.
	return t, a, b, nil
}

// FromParent builds a Tree from a parent array over atom indexes.
func FromParent(q *query.Query, parent []int, root int) *Tree {
	t := &Tree{Root: root}
	for i, a := range q.Atoms {
		t.Nodes = append(t.Nodes, &Node{
			ID:     i,
			Atom:   i,
			Vars:   a.UniqueVars(),
			Parent: parent[i],
		})
	}
	for i, p := range parent {
		if p >= 0 {
			t.Nodes[p].Children = append(t.Nodes[p].Children, i)
			t.Nodes[i].SharedWithParent = sharedVars(t.Nodes[i].Vars, t.Nodes[p].Vars)
		}
	}
	t.computeOrders()
	return t
}

func sharedVars(a, b []query.Var) []query.Var {
	var out []query.Var
	for _, v := range a {
		for _, w := range b {
			if v == w {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

func (t *Tree) computeOrders() {
	t.TopDown = t.TopDown[:0]
	stack := []int{t.Root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		t.TopDown = append(t.TopDown, id)
		stack = append(stack, t.Nodes[id].Children...)
	}
	t.BottomUp = make([]int, len(t.TopDown))
	for i, id := range t.TopDown {
		t.BottomUp[len(t.TopDown)-1-i] = id
	}
}

// Height returns the maximum number of edges on a root-to-leaf path.
func (t *Tree) Height() int {
	depth := make([]int, len(t.Nodes))
	h := 0
	for _, id := range t.TopDown {
		n := t.Nodes[id]
		if n.Parent >= 0 {
			depth[id] = depth[n.Parent] + 1
			if depth[id] > h {
				h = depth[id]
			}
		}
	}
	return h
}

// Binarize returns a tree, query and database in which every node has at most
// two children (the "binary join tree" of Section 6). Nodes with more
// children are split into a chain of copies; each copy is a fresh atom over
// the same variables whose relation shares the original's data. The answer
// sets of the old and new queries are in bijection (the duplicated atom is
// forced to the same tuple).
func Binarize(t *Tree, q *query.Query, db *relation.Database) (*Tree, *query.Query, *relation.Database) {
	needs := false
	for _, n := range t.Nodes {
		if len(n.Children) > 2 {
			needs = true
			break
		}
	}
	if !needs {
		return t, q, db
	}
	q2 := q.Clone()
	db2 := db.View()
	// Mutable copy of the parent structure over atom indexes.
	parent := make([]int, len(t.Nodes))
	children := make([][]int, len(t.Nodes))
	for _, n := range t.Nodes {
		parent[n.ID] = n.Parent
		children[n.ID] = append([]int(nil), n.Children...)
	}
	for id := 0; id < len(children); id++ { // new nodes appended are re-checked
		for len(children[id]) > 2 {
			orig := q2.Atoms[id]
			fresh := query.FreshRelName(db2, orig.Rel)
			db2.Add(db2.Get(orig.Rel).Rename(fresh))
			q2.Atoms = append(q2.Atoms, query.Atom{Rel: fresh, Vars: append([]query.Var(nil), orig.Vars...)})
			newID := len(q2.Atoms) - 1
			parent = append(parent, id)
			// Move all but the first child under the copy.
			moved := children[id][1:]
			children[id] = []int{children[id][0], newID}
			children = append(children, moved)
			for _, c := range moved {
				parent[c] = newID
			}
		}
	}
	root := t.Root
	t2 := FromParent(q2, parent, root)
	return t2, q2, db2
}

// Exec is the runnable form of a join tree over a concrete database: the
// per-node relations, the per-node join-group indexes, and the per-edge
// parent-to-group id arrays that let every message-passing pass run on
// integers alone.
//
// Rels[id] aliases DB's relation of node id's atom — the same *Relation, no
// second copy of any column — until FullReduceWorkers replaces the entry with
// the surviving rows. Every constructor keeps that:
// NewExecWorkers, ApplyDelta, DeriveSubset and DeriveGathered (whose callers
// fill DB) and RestoreExec.
type Exec struct {
	Q  *query.Query
	T  *Tree
	DB *relation.Database

	Rels   []*relation.Relation // per node, columns follow Node.Vars
	Groups []*GroupIndex        // per non-root node; nil for the root

	keyPosChild  [][]int // positions of SharedWithParent within child Vars
	keyPosParent [][]int // positions of SharedWithParent within parent Vars

	// parentGid[child][i] is the group id of child's index matched by row i
	// of the PARENT's relation, -1 when no group exists. Every Exec has one
	// per edge: built with the group indexes, maintained by ApplyDelta and the
	// derivations, taken from the stream by RestoreExec. No pass hashes a key
	// to find a group — counting, pivoting, reduction, enumeration, direct
	// access and ranked enumeration read one int32 per (parent tuple, child)
	// pair.
	parentGid [][]int32
}

// GroupIndex groups the tuples of a child node by their shared-variable key.
// Group ids are the dense interned ids of the key tuples, assigned in first-
// appearance order over the child relation — exactly the numbering the
// string-keyed index of earlier revisions produced.
//
// An index derived by ApplyDelta shares the immutable key interner of its
// base and records incrementally created groups in a small overlay
// derivation. Derived indexes may also retain groups whose tuple lists have
// become empty — every consumer treats an empty group exactly like a missing
// key (zero count, no enumeration, dead semijoin), so the retained ids are
// invisible in answers.
//
// An index whose groups the gathered derivation numbered from an identifier
// column (DeriveGathered, subset.go) has no interner: its keys were never
// formed. Every reader of answers uses RowGid, Tuples and the edge's
// parent-gid array, which such an index always has; only the keys' own
// users — ApplyDelta extending an index, a snapshot writing one — need the
// interner, and they run on engine trees alone.
type GroupIndex struct {
	keys   *relation.Interner // key tuple -> group id (dense, first appearance); nil: numbered from identifiers
	Tuples [][]int            // group id -> tuple indexes into the child relation
	// RowGid[i] is the group id of tuple i of the child relation — the
	// inverse of Tuples, materialized because the trim constructions and the
	// delta-counting pass both need it and it falls out of the build for free.
	RowGid []int32
}

// NumGroups returns the number of distinct join groups.
func (g *GroupIndex) NumGroups() int { return len(g.Tuples) }

// Keys returns the group-key interner, nil for an index numbered from
// identifiers (see GroupIndex). It is the index's own state and must be
// treated as read-only — exposed so snapshots can serialize the key tuples in
// group-id order (TupleOf over [0, Len())).
func (g *GroupIndex) Keys() *relation.Interner { return g.keys }

// GroupIndexFromFlat reconstructs a GroupIndex from its serialized parts: the
// key interner (keys re-interned in group-id order), the per-row group-id
// array, and flat, the per-group tuple lists flattened in group-id order —
// exactly the backing array packTuples would build — so a restore costs one
// validating read pass and no fill pass. Tuples subslices flat with full caps,
// preserving the copy-on-append behavior of the packed layout. Validation
// keeps the structure memory-safe under arbitrary input — RowGid partitions
// flat exactly, every row index is in range, runs are strictly ascending —
// and ok=false on any violation; it does not re-derive flat from RowGid (the
// snapshot CRC covers bit corruption, and no consistency check can stop a
// writer that lies consistently).
func GroupIndexFromFlat(keys *relation.Interner, rowGid []int32, flat []int) (*GroupIndex, bool) {
	n := len(rowGid)
	if len(flat) != n {
		return nil, false
	}
	ng := keys.Len()
	counts := make([]int32, ng)
	for _, gid := range rowGid {
		if gid < 0 || int(gid) >= ng {
			return nil, false
		}
		counts[gid]++
	}
	g := &GroupIndex{keys: keys, RowGid: rowGid, Tuples: make([][]int, ng)}
	off := 0
	for gid := 0; gid < ng; gid++ {
		c := int(counts[gid])
		seg := flat[off : off+c : off+c]
		prev := -1
		for _, row := range seg {
			if row <= prev || row >= n {
				return nil, false
			}
			prev = row
		}
		g.Tuples[gid] = seg
		off += c
	}
	return g, true
}

// NewExecWorkers builds the group indexes of q's join tree over db on a
// bounded worker pool; the result is byte-identical to the sequential build
// for every worker count. q must be in normal form — an atom that repeats a
// variable is an error, like an arity mismatch: query.Normalize rewrites it
// away. A node's relation is db's relation of its atom. Relations are sets
// (Section 2.1), so a relation not marked distinct is deduplicated first, and
// the Exec's DB is then a view of db holding the deduplicated relation in its
// place; db itself is never modified.
func NewExecWorkers(q *query.Query, db *relation.Database, t *Tree, workers int) (*Exec, error) {
	e := &Exec{Q: q, T: t, DB: db}
	e.Rels = make([]*relation.Relation, len(t.Nodes))
	e.Groups = make([]*GroupIndex, len(t.Nodes))
	for _, n := range t.Nodes {
		rel, err := nodeRelation(q.Atoms[n.Atom], n, e.DB)
		if err != nil {
			return nil, err
		}
		if !rel.IsDistinct() {
			if e.DB == db {
				e.DB = db.View()
			}
			rel = rel.DedupedWorkers(workers)
			e.DB.Add(rel)
		}
		e.Rels[n.ID] = rel
	}
	e.keyPosChild, e.keyPosParent = keyPositions(t)
	e.rebuildGroups(workers)
	return e, nil
}

// nodeRelation looks up the relation a node reads and checks it against the
// atom: present, of the atom's arity, no variable repeated.
func nodeRelation(atom query.Atom, n *Node, db *relation.Database) (*relation.Relation, error) {
	rel := db.Get(atom.Rel)
	switch {
	case rel == nil:
		return nil, fmt.Errorf("jointree: relation %q missing", atom.Rel)
	case rel.Arity() != len(atom.Vars):
		return nil, fmt.Errorf("jointree: atom %s arity mismatch with relation arity %d", atom, rel.Arity())
	case len(n.Vars) != len(atom.Vars):
		return nil, fmt.Errorf("jointree: atom %s repeats a variable; rewrite the query with query.Normalize first", atom)
	}
	return rel, nil
}

// keyPositions returns, per non-root node, the positions of its
// SharedWithParent variables within its own and within its parent's variables
// — pure functions of the tree.
func keyPositions(t *Tree) (child, parent [][]int) {
	child = make([][]int, len(t.Nodes))
	parent = make([][]int, len(t.Nodes))
	for _, n := range t.Nodes {
		if n.Parent >= 0 {
			child[n.ID] = varPositions(n.SharedWithParent, n.Vars)
			parent[n.ID] = varPositions(n.SharedWithParent, t.Nodes[n.Parent].Vars)
		}
	}
	return child, parent
}

// RestoreExec rebuilds an Exec from snapshot-decoded parts: the group indexes
// and parent-gid arrays are taken as given (they are the expensive hashed
// state a snapshot exists to preserve), the node relations are looked up in
// db as NewExecWorkers does, under the same checks, and the shared-variable
// key positions are recomputed from the tree. The caller guarantees the parts
// were produced by an Exec over the same query and database, an index and a
// gid array per edge (it may fill the two slices after the call).
func RestoreExec(q *query.Query, db *relation.Database, t *Tree, groups []*GroupIndex, parentGid [][]int32) (*Exec, error) {
	e := &Exec{Q: q, T: t, DB: db, Groups: groups, parentGid: parentGid}
	e.Rels = make([]*relation.Relation, len(t.Nodes))
	for _, n := range t.Nodes {
		rel, err := nodeRelation(q.Atoms[n.Atom], n, db)
		if err != nil {
			return nil, err
		}
		e.Rels[n.ID] = rel
	}
	e.keyPosChild, e.keyPosParent = keyPositions(t)
	return e, nil
}

func varPositions(vars, within []query.Var) []int {
	out := make([]int, len(vars))
	for i, v := range vars {
		out[i] = slices.Index(within, v)
	}
	return out
}

func (e *Exec) rebuildGroups(workers int) {
	for _, n := range e.T.Nodes {
		if n.Parent < 0 {
			e.Groups[n.ID] = nil
			continue
		}
		e.Groups[n.ID] = NewGroupIndex(e.Rels[n.ID], e.keyPosChild[n.ID], workers)
	}
	e.rebuildParentGids(workers)
}

// rebuildParentGids materializes, for every edge, the group id each parent
// row resolves to — the one hashed pass per edge that lets every subsequent
// pass over this Exec run hash-free.
func (e *Exec) rebuildParentGids(workers int) {
	e.parentGid = make([][]int32, len(e.T.Nodes))
	for _, n := range e.T.Nodes {
		if n.Parent < 0 {
			continue
		}
		prel := e.Rels[n.Parent]
		pcols := prel.Cols()
		pos := e.keyPosParent[n.ID]
		keys := e.Groups[n.ID].keys
		arr := make([]int32, prel.Len())
		parallel.For(workers, prel.Len(), func(lo, hi int) {
			var buf [maxKeyWidth]relation.Value
			for i := lo; i < hi; i++ {
				key := relation.GatherAt(buf[:0], pcols, pos, i)
				if id, ok := keys.Lookup(key); ok {
					arr[i] = int32(id)
				} else {
					arr[i] = -1
				}
			}
		})
		e.parentGid[n.ID] = arr
	}
}

// maxKeyWidth bounds the stack scratch for gathered key tuples; keys wider
// than this (queries sharing >16 variables across one edge) spill to heap.
const maxKeyWidth = 16

// NewGroupIndex groups a relation's tuples by the key in columns pos — a
// child node's by its shared-variable key, or the build side of any other
// hash join (decomp's bag materialization). The parallel path builds one
// partial index per row chunk and merges them in chunk order: group ids
// follow global first-appearance order and tuple lists stay ascending,
// exactly as in the sequential build.
func NewGroupIndex(rel *relation.Relation, pos []int, workers int) *GroupIndex {
	n := rel.Len()
	cols := rel.Cols()
	if len(parallel.Ranges(workers, n)) <= 1 {
		g := &GroupIndex{keys: relation.NewInterner(len(pos), n), RowGid: make([]int32, n)}
		var buf [maxKeyWidth]relation.Value
		for i := 0; i < n; i++ {
			key := relation.GatherAt(buf[:0], cols, pos, i)
			id, _ := g.keys.Intern(key)
			g.RowGid[i] = int32(id)
		}
		g.packTuples(g.keys.Len())
		return g
	}
	// Partial index per chunk: the chunk's own interner assigns local ids in
	// local first-appearance order; the merge re-interns each distinct local
	// key once (pre-computed hash) in chunk order, which reproduces the
	// sequential global numbering.
	type partialIndex struct {
		keys   *relation.Interner
		lo     int
		rowGid []int32 // per chunk row: LOCAL id
	}
	parts := parallel.MapRanges(workers, n, func(lo, hi int) partialIndex {
		p := partialIndex{keys: relation.NewInterner(len(pos), hi-lo), lo: lo, rowGid: make([]int32, hi-lo)}
		var buf [maxKeyWidth]relation.Value
		for i := lo; i < hi; i++ {
			key := relation.GatherAt(buf[:0], cols, pos, i)
			id, _ := p.keys.Intern(key)
			p.rowGid[i-lo] = int32(id)
		}
		return p
	})
	// Chunk 0's local ids are already the sequential global ids of its
	// prefix (first-appearance order), so its interner seeds the merged
	// index as-is and only later chunks re-intern; reserving the summed
	// distinct count up front avoids intermediate rehashes.
	total := 0
	for _, p := range parts {
		total += p.keys.Len()
	}
	g := &GroupIndex{keys: parts[0].keys, RowGid: make([]int32, n)}
	g.keys.Reserve(total)
	copy(g.RowGid, parts[0].rowGid)
	for _, p := range parts[1:] {
		trans := make([]int32, p.keys.Len())
		for li := range trans {
			gid, _ := g.keys.InternHashed(p.keys.TupleOf(uint32(li)), p.keys.HashOf(uint32(li)))
			trans[li] = int32(gid)
		}
		for j, li := range p.rowGid {
			g.RowGid[p.lo+j] = trans[li]
		}
	}
	g.packTuples(g.keys.Len())
	return g
}

// packTuples materializes the Tuples of ng groups from RowGid into one flat
// backing array: counts per group, prefix-sum offsets, then a fill pass in row
// order (tuple lists come out ascending). Zero-length-capped subslices keep
// later copy-on-append derivations from writing into the shared backing.
func (g *GroupIndex) packTuples(ng int) {
	counts := make([]int32, ng)
	for _, gid := range g.RowGid {
		counts[gid]++
	}
	flat := make([]int, len(g.RowGid))
	g.Tuples = make([][]int, ng)
	off := 0
	for gid := 0; gid < ng; gid++ {
		c := int(counts[gid])
		g.Tuples[gid] = flat[off : off : off+c]
		off += c
	}
	for i, gid := range g.RowGid {
		g.Tuples[gid] = append(g.Tuples[gid], i)
	}
}

// ParentGroup returns the join-group id of child matched by row i of the
// PARENT's relation, and whether such a group exists: one read of the edge's
// parent-gid array.
func (e *Exec) ParentGroup(child, i int) (int, bool) {
	gid := e.parentGid[child][i]
	return int(gid), gid >= 0
}

// ParentGids returns the raw per-parent-row group-id array of the given edge
// (-1 = no group). Hot passes bounds-check it once and index directly.
func (e *Exec) ParentGids(child int) []int32 { return e.parentGid[child] }

// FullReduceWorkers removes all dangling tuples with one bottom-up and one
// top-down semijoin pass (the Yannakakis full reducer) and rebuilds the group
// indexes; afterwards every remaining tuple participates in at least one
// query answer. Per-tuple survival checks are chunked over row ranges on a
// bounded worker pool (writes to the keep vectors are disjoint by index),
// surviving-group sets are built as
// per-chunk bitmaps and unioned, and the surviving relations are rebuilt from
// per-chunk filters concatenated in chunk order — so the reduced tree is
// byte-identical to the sequential reducer's for every worker count. Both
// semijoin passes run on the precomputed gid arrays; no key is hashed until
// the final index rebuild.
func (e *Exec) FullReduceWorkers(workers int) {
	keep := make([][]bool, len(e.T.Nodes))
	for id, rel := range e.Rels {
		keep[id] = make([]bool, rel.Len())
		for i := range keep[id] {
			keep[id][i] = true
		}
	}
	// Bottom-up: a tuple survives if every child has a matching group with at
	// least one surviving tuple. Children finish before their parent (tree
	// order), so each chunk only reads finalized child state.
	for _, id := range e.T.BottomUp {
		n := e.T.Nodes[id]
		if len(n.Children) == 0 {
			continue // leaves: every tuple survives the bottom-up pass
		}
		rel := e.Rels[id]
		kid := keep[id]
		parallel.For(workers, rel.Len(), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				ok := true
				for _, c := range n.Children {
					gid, found := e.ParentGroup(c, i)
					if !found {
						ok = false
						break
					}
					anyLive := false
					for _, ti := range e.Groups[c].Tuples[gid] {
						if keep[c][ti] {
							anyLive = true
							break
						}
					}
					if !anyLive {
						ok = false
						break
					}
				}
				kid[i] = ok
			}
		})
	}
	// Top-down: a tuple survives if its join group is hit by a surviving
	// parent tuple.
	liveGroups := make([][]bool, len(e.T.Nodes))
	for _, id := range e.T.TopDown {
		n := e.T.Nodes[id]
		rel := e.Rels[id]
		kid := keep[id]
		if n.Parent >= 0 {
			lg := liveGroups[id]
			rowGid := e.Groups[id].RowGid
			parallel.For(workers, rel.Len(), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					if kid[i] && !lg[rowGid[i]] {
						kid[i] = false
					}
				}
			})
		}
		// Publish this node's surviving groups for each child: per-chunk
		// bitmaps unioned into one (set union is order-independent).
		for _, c := range n.Children {
			ng := e.Groups[c].NumGroups()
			parts := parallel.MapRanges(workers, rel.Len(), func(lo, hi int) []bool {
				local := make([]bool, ng)
				for i := lo; i < hi; i++ {
					if !kid[i] {
						continue
					}
					if gid, ok := e.ParentGroup(c, i); ok {
						local[gid] = true
					}
				}
				return local
			})
			live := make([]bool, ng)
			if len(parts) > 0 {
				live = parts[0]
				for _, part := range parts[1:] {
					for g, v := range part {
						if v {
							live[g] = true
						}
					}
				}
			}
			liveGroups[c] = live
		}
	}
	// Rebuild relations and groups: per-chunk survivor lists concatenated in
	// chunk order, one column gather per relation.
	for id, rel := range e.Rels {
		kid := keep[id]
		parts := parallel.MapRanges(workers, rel.Len(), func(lo, hi int) []int {
			var rows []int
			for i := lo; i < hi; i++ {
				if kid[i] {
					rows = append(rows, i)
				}
			}
			return rows
		})
		total := 0
		for _, p := range parts {
			total += len(p)
		}
		rows := make([]int, 0, total)
		for _, p := range parts {
			rows = append(rows, p...)
		}
		e.Rels[id] = rel.GatherRows(rel.Name(), rows)
	}
	e.rebuildGroups(workers)
}
