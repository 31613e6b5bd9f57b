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

// Build constructs a join tree for q via GYO ear removal
// (hypergraph.GYO over the atoms' variable sets): atoms are removed in index
// order, each under the first atom covering it. It fails if the query is
// cyclic.
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
// second copy of any column — until FullReduce replaces the entry with the
// surviving rows. Every constructor keeps that: NewExec, ApplyDelta,
// DeriveSubset and DeriveGathered (whose callers fill DB) and RestoreExec.
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
	Tuples [][]int32          // group id -> tuple indexes into the child relation, ascending
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
// exactly the backing array packTuples would build, in the ints a snapshot
// stores it as — so a restore costs one validating pass, which narrows the
// lists to int32 as it reads them, and no fill pass. Tuples subslices one
// array with full caps, preserving the copy-on-append behavior of the packed
// layout. Validation keeps the structure memory-safe under arbitrary input —
// RowGid partitions flat exactly, every row index is in range, runs are
// strictly ascending — and ok=false on any violation; it does not re-derive
// flat from RowGid (the snapshot CRC covers bit corruption, and no
// consistency check can stop a writer that lies consistently).
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
	g := &GroupIndex{keys: keys, RowGid: rowGid, Tuples: make([][]int32, ng)}
	packed := make([]int32, n)
	off := 0
	for gid := 0; gid < ng; gid++ {
		c := int(counts[gid])
		seg := packed[off : off+c : off+c]
		prev := -1
		for j, row := range flat[off : off+c] {
			if row <= prev || row >= n {
				return nil, false
			}
			seg[j] = int32(row)
			prev = row
		}
		g.Tuples[gid] = seg
		off += c
	}
	return g, true
}

// NewExec builds the group indexes of q's join tree over db. q must be in
// normal form — an atom that repeats a variable is an error, like an arity
// mismatch: query.Normalize rewrites it away. A node's relation is db's
// relation of its atom. Relations are sets (Section 2.1), so a relation not
// marked distinct is deduplicated first, and the Exec's DB is then a view of
// db holding the deduplicated relation in its place; db itself is never
// modified.
func NewExec(q *query.Query, db *relation.Database, t *Tree) (*Exec, error) {
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
			rel = rel.Deduped()
			e.DB.Add(rel)
		}
		e.Rels[n.ID] = rel
	}
	e.keyPosChild, e.keyPosParent = keyPositions(t)
	e.rebuildGroups()
	return e, nil
}

// NewExecWorkers is NewExec; workers is unread. Kept for the bench module's
// probes, which call it by this name.
func NewExecWorkers(q *query.Query, db *relation.Database, t *Tree, _ int) (*Exec, error) {
	return NewExec(q, db, t)
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
// db as NewExec does, under the same checks, and the shared-variable
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

func (e *Exec) rebuildGroups() {
	most := 0
	for _, rel := range e.Rels {
		most = max(most, rel.Len())
	}
	hashes := make([]uint64, most)
	for _, n := range e.T.Nodes {
		if n.Parent < 0 {
			e.Groups[n.ID] = nil
			continue
		}
		e.Groups[n.ID], hashes = newGroupIndex(e.Rels[n.ID], e.keyPosChild[n.ID], hashes)
	}
	e.rebuildParentGids(hashes)
}

// rebuildParentGids materializes, for every edge, the group id each parent
// row resolves to — the one hashed pass per edge that lets every subsequent
// pass over this Exec run hash-free. A parent row whose key's bit is clear in
// the child's KeyBits has no group and skips the probe. hashes is scratch of
// a hash a parent row.
func (e *Exec) rebuildParentGids(hashes []uint64) {
	e.parentGid = make([][]int32, len(e.T.Nodes))
	for _, n := range e.T.Nodes {
		if n.Parent < 0 {
			continue
		}
		prel := e.Rels[n.Parent]
		pcols := prel.Cols()
		pos := e.keyPosParent[n.ID]
		keys := e.Groups[n.ID].keys
		bits := relation.NewKeyBits(keys, 0)
		arr := make([]int32, prel.Len())
		hashes = relation.HashRows(hashes, pcols, pos, len(arr))
		for i, h := range hashes {
			arr[i] = -1
			if !bits.MayHave(h) {
				continue
			}
			if id, ok := keys.LookupAt(pcols, pos, i, h); ok {
				arr[i] = int32(id)
			}
		}
		e.parentGid[n.ID] = arr
	}
}

// NewGroupIndex groups a relation's tuples by the key in columns pos — a
// child node's by its shared-variable key, or the build side of any other
// hash join (decomp's bag materialization). Group ids follow first
// appearance and tuple lists are ascending. The interner is sized for a key
// per row while it fills; an index with fewer groups than half its rows keeps
// a copy sized for its groups instead, since a plan holds its indexes for
// life.
func NewGroupIndex(rel *relation.Relation, pos []int) *GroupIndex {
	g, _ := newGroupIndex(rel, pos, nil)
	return g
}

// newGroupIndex is NewGroupIndex hashing the keys into hashes, scratch that
// is returned for reuse (reallocated when shorter than rel).
func newGroupIndex(rel *relation.Relation, pos []int, hashes []uint64) (*GroupIndex, []uint64) {
	n := rel.Len()
	cols := rel.Cols()
	g := &GroupIndex{keys: relation.NewInterner(len(pos), n), RowGid: make([]int32, n)}
	hashes = relation.HashRows(hashes, cols, pos, n)
	for i, h := range hashes {
		id, _ := g.keys.InternAt(cols, pos, i, h)
		g.RowGid[i] = int32(id)
	}
	if g.keys.Len() < n/2 {
		g.keys = g.keys.Compact()
	}
	g.packTuples(g.keys.Len(), nil)
	return g, hashes
}

// packTuples materializes the Tuples of ng groups from RowGid into one flat
// backing array: counts per group, prefix-sum offsets, then a fill pass in row
// order (tuple lists come out ascending). Zero-length-capped subslices keep
// later copy-on-append derivations from writing into the shared backing. The
// arrays are carved from a (nil: allocated).
func (g *GroupIndex) packTuples(ng int, a *relation.Arena) {
	counts := a.Int32s(ng)
	clear(counts)
	for _, gid := range g.RowGid {
		counts[gid]++
	}
	flat := a.Int32s(len(g.RowGid))
	g.Tuples = a.Int32Lists(ng)
	off := 0
	for gid := 0; gid < ng; gid++ {
		c := int(counts[gid])
		g.Tuples[gid] = flat[off : off : off+c]
		off += c
	}
	for i, gid := range g.RowGid {
		g.Tuples[gid] = append(g.Tuples[gid], int32(i))
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

// FullReduce removes all dangling tuples with one bottom-up and one top-down
// semijoin pass (the Yannakakis full reducer, ReduceRows over every row) and
// rebuilds the relations and the group indexes; afterwards every remaining
// tuple participates in at least one query answer. The survivors keep their
// order. Both semijoin passes run on the precomputed gid arrays; no key is
// hashed until the final index rebuild.
func (e *Exec) FullReduce() {
	lists := make([][]int, len(e.Rels))
	for id, rel := range e.Rels {
		lists[id] = make([]int, rel.Len())
		for i := range lists[id] {
			lists[id][i] = i
		}
	}
	e.ReduceRows(lists, nil)
	for id, rel := range e.Rels {
		e.Rels[id] = rel.GatherRows(rel.Name(), lists[id])
	}
	e.rebuildGroups()
}

// FullReduceWorkers is FullReduce; workers is unread. Kept for the bench
// module's probes, which call it by this name.
func (e *Exec) FullReduceWorkers(_ int) { e.FullReduce() }

// ReduceRows is the full reducer over row subsets of e's relations, leaving e
// as it is. lists holds, part after part, one ascending list of row indexes
// per node (len(e.Rels) lists a part), and each part selects a sub-instance;
// every list is shortened in place to the rows that lie on an answer of its
// part, in their order. The passes are the Yannakakis full reducer's, on a
// part's rows: bottom-up a row survives when every child's group it points at
// holds a surviving row, top-down when its own group is hit by a surviving
// parent row. Groups are marked in one int32 array per edge, carved from a:
// part k marks with 2k+1 bottom-up and 2k+2 top-down, so a mark is current
// exactly when it equals the pass's, and no part clears what the one before it
// left.
func (e *Exec) ReduceRows(lists [][]int, a *relation.Arena) {
	n := len(e.Rels)
	marks := make([][]int32, n)
	for _, nd := range e.T.Nodes {
		if nd.Parent >= 0 {
			marks[nd.ID] = a.Int32s(len(e.Groups[nd.ID].Tuples))
			clear(marks[nd.ID])
		}
	}
	for k := 0; k*n < len(lists); k++ {
		rows := lists[k*n : (k+1)*n]
		up, down := int32(2*k+1), int32(2*k+2)
		for _, id := range e.T.BottomUp {
			nd := e.T.Nodes[id]
			r := rows[id]
			if len(nd.Children) > 0 {
				kept := 0
				for _, i := range r {
					ok := true
					for _, c := range nd.Children {
						if g := e.parentGid[c][i]; g < 0 || marks[c][g] != up {
							ok = false
							break
						}
					}
					if ok {
						r[kept] = i
						kept++
					}
				}
				r = r[:kept]
				rows[id] = r
			}
			if nd.Parent >= 0 {
				m, rowGid := marks[id], e.Groups[id].RowGid
				for _, i := range r {
					m[rowGid[i]] = up
				}
			}
		}
		for _, id := range e.T.TopDown {
			nd := e.T.Nodes[id]
			r := rows[id]
			if nd.Parent >= 0 {
				m, rowGid := marks[id], e.Groups[id].RowGid
				kept := 0
				for _, i := range r {
					if m[rowGid[i]] == down {
						r[kept] = i
						kept++
					}
				}
				r = r[:kept]
				rows[id] = r
			}
			for _, c := range nd.Children {
				m, pgid := marks[c], e.parentGid[c]
				for _, i := range r {
					m[pgid[i]] = down // every surviving row has the group: bottom-up saw to it
				}
			}
		}
	}
}
