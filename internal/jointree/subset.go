// Derivation of an executable join tree for an instance gathered out of
// another. Every exact trim of the pivot loop builds its output relations by
// copying rows of the input's: a filter trim (a one-box band, single-node SUM)
// keeps a subset of each, a partitioned band copies every row on an answer of
// a box once per such box (ReduceRows finds them) and tags it with the box
// number, the staircase copies the two weight-bearing relations once per
// dyadic segment and tags the copies with the segment id. The trim knows the source row of every output row, and
// the input's Exec holds that row's group id on every edge, so the output's
// Exec follows by integer passes alone — no key is projected, hashed or
// interned, nothing is deduplicated, and the cost is proportional to the
// output rows. It is the shrinkage analogue of ApplyDelta's copy-on-write
// derivation for general deltas.
//
// Per edge the derivation is one of two things. Where an end of the edge
// carries no identifier the join key is the input's and group ids are stable:
// RowGid and the parent-gid array are gathered through the source rows, the
// index shares the input's key interner, and a group whose tuples all went is
// retained empty (consumers treat it like a missing key). Where both ends carry
// the identifier the key is the pair (input key, identifier), and the pairs are
// numbered in the order a fresh build would meet them — see boxGids and
// segmentGids; such an index has no interner.
//
// Every array a derivation makes — the gathered relations' columns, RowGid,
// the parent-gid arrays, the packed Tuples — is carved from the arena it is
// given, so the derived tree lives exactly as long as that arena's carve (a
// nil arena allocates them).
package jointree

import (
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/relation"
)

// Gathered is one node of an instance gathered out of an Exec's.
type Gathered struct {
	// Rel is the node's relation in the output.
	Rel *relation.Relation
	// Rows lists, part after part, the row of the input node's relation that
	// each row of Rel copies. nil: Rel is the input's relation, untouched.
	Rows [][]int
	// ID says Rel's last column is the output's identifier column, whose
	// variable the output query adds to this node's atom.
	ID bool
}

// DeriveSubset derives the executable tree of a row-subset instance.
// keep[node][i] reports whether row i of node's relation survives; a nil
// keep[node] keeps the node untouched (its relation, group index and — when
// the parent is untouched too — gid array are shared, not copied). q is the
// subset instance's query (it must have the same join structure — typically a
// Clone of e.Q — since the tree is shared) and db becomes the derived Exec's
// DB as given: a caller that goes on to use it puts the derived Rels there
// (trim.subsetOf does), which is what makes them the instance's relations.
//
// It is the gathered derivation with no identifier anywhere: group ids are
// stable on every edge. The derived relations hold the surviving rows in their
// old relative order, so a fresh NewExec over them would build the same tree
// up to that numbering, and answers are unchanged versus the rebuild path.
// The parent Exec is not modified and stays safe for concurrent readers.
// DeriveSubset is DeriveSubsetIn with a nil arena; the last argument is
// unread, kept for the bench module's probe, which passes it.
func (e *Exec) DeriveSubset(q *query.Query, db *relation.Database, keep [][]bool, _ int) *Exec {
	return e.DeriveSubsetIn(q, db, keep, nil)
}

// DeriveSubsetIn is DeriveSubset carving the derived tree's arrays from a.
func (e *Exec) DeriveSubsetIn(q *query.Query, db *relation.Database, keep [][]bool, a *relation.Arena) *Exec {
	nodes := make([]Gathered, len(e.Rels))
	for id, rel := range e.Rels {
		nodes[id].Rel = rel
		k := keep[id]
		if k == nil {
			continue
		}
		rows := a.Ints(len(k))[:0]
		for i, ok := range k {
			if ok {
				rows = append(rows, i)
			}
		}
		nodes[id] = Gathered{Rel: filterRows(rel, k, len(rows), a), Rows: [][]int{rows}}
	}
	return e.derive(q, db, e.T, nodes, false, a)
}

// DeriveGathered derives the executable tree of a partitioned instance: q is
// the output query — e.Q with the identifier, a variable e.Q lacks, added to
// the atoms of the nodes marked ID — db its database, and nodes[id] says how
// node id's relation was gathered; the derived arrays are carved from a.
// segments names the identifier's kind. A box number (false): part
// b of every node's Rows holds the rows of box b+1, so a pair (key, box) is
// first met, on either end of an edge, while box b is swept. A staircase
// segment id (true): ids are 1, 2, … with no gap, each belongs to one join
// group of the one edge that carries it, and on both ends an id is first used
// after every smaller one.
//
// The derived tree is e.T's parent array over q's atoms, and the contract is
// DeriveSubset's: node relations, RowGid, Tuples and the parent-gid arrays
// are those of Build(q) + NewExec on the output, up to retained empty
// groups where gids are stable — provided Build(q) has e.T's shape, which the
// caller knows from where it put the identifier (see SameShape). It returns
// nil when e never materialized the gid array of an edge whose groups are
// renumbered, and the caller builds afresh.
func (e *Exec) DeriveGathered(q *query.Query, db *relation.Database, nodes []Gathered, segments bool, a *relation.Arena) *Exec {
	parent := make([]int, len(e.T.Nodes))
	for id, n := range e.T.Nodes {
		parent[id] = n.Parent
	}
	return e.derive(q, db, FromParent(q, parent, e.T.Root), nodes, segments, a)
}

// SameShape reports whether Build(q) has t's root and parents.
func SameShape(q *query.Query, t *Tree) bool {
	b, err := Build(q)
	if err != nil || b.Root != t.Root {
		return false
	}
	for id, n := range b.Nodes {
		if n.Parent != t.Nodes[id].Parent {
			return false
		}
	}
	return true
}

// derive is the derivation over t, which has e.T's shape.
func (e *Exec) derive(q *query.Query, db *relation.Database, t *Tree, nodes []Gathered, segments bool, a *relation.Arena) *Exec {
	out := &Exec{
		Q:            q,
		T:            t,
		DB:           db,
		Rels:         make([]*relation.Relation, len(nodes)),
		Groups:       make([]*GroupIndex, len(nodes)),
		keyPosChild:  e.keyPosChild,
		keyPosParent: e.keyPosParent,
		parentGid:    make([][]int32, len(nodes)),
	}
	if t != e.T {
		out.keyPosChild, out.keyPosParent = keyPositions(t)
	}
	for id := range nodes {
		out.Rels[id] = nodes[id].Rel
	}
	for _, n := range t.Nodes {
		if n.Parent < 0 {
			continue
		}
		c, p := &nodes[n.ID], &nodes[n.Parent]
		g, old := e.Groups[n.ID], e.parentGid[n.ID]
		if c.ID && p.ID {
			ng := &GroupIndex{}
			var num int
			switch {
			case segments:
				ng.RowGid, num = segmentGids(c.Rel, a)
				out.parentGid[n.ID], _ = segmentGids(p.Rel, a)
			case old == nil:
				return nil
			default:
				ng.RowGid, out.parentGid[n.ID], num = boxGids(g, old, c, p, a)
			}
			ng.packTuples(num, a)
			out.Groups[n.ID] = ng
			continue
		}
		// Stable gids. A nil gid array stays nil: the base never materialized
		// the edge, and lookups fall back on the shared interner.
		out.Groups[n.ID], out.parentGid[n.ID] = g, old
		if c.Rows != nil {
			ng := &GroupIndex{keys: g.keys, RowGid: gatherGids(g.RowGid, c, a)}
			ng.packTuples(len(g.Tuples), a)
			out.Groups[n.ID] = ng
		}
		if p.Rows != nil && old != nil {
			out.parentGid[n.ID] = gatherGids(old, p, a)
		}
	}
	return out
}

// gatherGids reads a per-row gid array of the input through a node's source
// rows.
func gatherGids(gids []int32, nd *Gathered, a *relation.Arena) []int32 {
	out := a.Int32s(nd.Rel.Len())
	i := 0
	for _, part := range nd.Rows {
		for _, src := range part {
			out[i] = gids[src]
			i++
		}
	}
	return out
}

// boxGids numbers the groups of an edge whose two ends carry a box number: the
// group of the pair (input gid, box), in the order the child's rows first show
// them, box after box. One stamp array over the input's gids serves every box:
// it holds the new id, plus one, that a gid was given in the box being swept,
// which is current exactly when it is past the ids handed out before the box.
// The child's rows of a box number its groups; the parent's rows of the box
// then read theirs through the same stamp, −1 when the box left the group
// empty.
func boxGids(g *GroupIndex, parentGid []int32, c, p *Gathered, a *relation.Arena) (rowGid, pgid []int32, num int) {
	stamp := a.Int32s(len(g.Tuples))
	clear(stamp)
	rowGid = a.Int32s(c.Rel.Len())
	pgid = a.Int32s(p.Rel.Len())
	next, ci, pi := int32(0), 0, 0
	for b := range c.Rows {
		first := next
		for _, src := range c.Rows[b] {
			og := g.RowGid[src]
			if stamp[og] <= first {
				next++
				stamp[og] = next
			}
			rowGid[ci] = stamp[og] - 1
			ci++
		}
		for _, src := range p.Rows[b] {
			pgid[pi] = -1
			if og := parentGid[src]; og >= 0 && stamp[og] > first {
				pgid[pi] = stamp[og] - 1
			}
			pi++
		}
	}
	return rowGid, pgid, int(next)
}

// segmentGids numbers the groups of the edge that carries staircase segment
// ids: an id names one group, and both ends first use the ids in ascending
// order without a gap, so the group a fresh build would number k-th is the one
// of id k+1. It returns the gid of every row of rel and the number of groups.
func segmentGids(rel *relation.Relation, a *relation.Arena) (gids []int32, num int) {
	ids := rel.Col(rel.Arity() - 1)
	gids = a.Int32s(len(ids))
	for i, id := range ids {
		gids[i] = int32(id - 1)
		num = max(num, int(id))
	}
	return gids, num
}

// filterRows returns the rows of rel marked true in keep, kept of them, in
// order, copied segment-wise into columns carved from a.
func filterRows(rel *relation.Relation, keep []bool, kept int, a *relation.Arena) *relation.Relation {
	cols := make([][]relation.Value, rel.Arity())
	for j := range cols {
		cols[j] = a.Values(kept)
	}
	n, at, runStart := rel.Len(), 0, -1
	for i := 0; i <= n; i++ {
		if i < n && keep[i] {
			if runStart < 0 {
				runStart = i
			}
			continue
		}
		if runStart >= 0 {
			for j, col := range cols {
				copy(col[at:], rel.Col(j)[runStart:i])
			}
			at += i - runStart
			runStart = -1
		}
	}
	return relation.FromColumns(rel.Name(), cols, rel.IsDistinct())
}
