// Derivation of an executable join tree for an instance gathered out of
// another. Every exact trim of the pivot loop builds its output relations by
// copying rows of the input's: a filter trim (a one-box band, single-node SUM)
// keeps a subset of each, a partitioned band copies every surviving row once
// per box it lies in and tags it with the box number, the staircase copies the
// two weight-bearing relations once per dyadic segment and tags the copies
// with the segment id. The trim knows the source row of every output row, and
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
// old relative order, so a fresh NewExecWorkers over them would build the same
// tree up to that numbering, and answers are unchanged versus the rebuild
// path. The parent Exec is not modified and stays safe for concurrent
// readers. The last argument is a worker count nothing reads: the passes are
// memory-bound integer work.
func (e *Exec) DeriveSubset(q *query.Query, db *relation.Database, keep [][]bool, _ int) *Exec {
	nodes := make([]Gathered, len(e.Rels))
	for id, rel := range e.Rels {
		nodes[id].Rel = rel
		k := keep[id]
		if k == nil {
			continue
		}
		rows := make([]int, 0, len(k))
		for i, ok := range k {
			if ok {
				rows = append(rows, i)
			}
		}
		nodes[id] = Gathered{Rel: filterRows(rel, k, len(rows)), Rows: [][]int{rows}}
	}
	return e.derive(q, db, e.T, nodes, false)
}

// DeriveGathered derives the executable tree of a partitioned instance: q is
// the output query — e.Q with the identifier variable added to the atoms of the
// nodes marked ID — db its database, and nodes[id] says how node id's relation
// was gathered. segments names the identifier's kind. A box number (false): part
// b of every node's Rows holds the rows of box b+1, so a pair (key, box) is
// first met, on either end of an edge, while box b is swept. A staircase
// segment id (true): ids are 1, 2, … with no gap, each belongs to one join
// group of the one edge that carries it, and on both ends an id is first used
// after every smaller one.
//
// The contract is DeriveSubset's: node relations, RowGid, Tuples and the
// parent-gid arrays are those of Build(q) + NewExecWorkers on the output, up to
// retained empty groups where gids are stable. It returns nil when the
// derivation does not apply — Build(q) re-roots or re-parents e's tree (the
// identifier can make another atom the ear), or e never materialized the gid
// array of an edge whose groups are renumbered — and the caller builds afresh.
func (e *Exec) DeriveGathered(q *query.Query, db *relation.Database, nodes []Gathered, segments bool) *Exec {
	t, err := Build(q)
	if err != nil || t.Root != e.T.Root {
		return nil
	}
	for id, n := range t.Nodes {
		if n.Parent != e.T.Nodes[id].Parent {
			return nil
		}
	}
	return e.derive(q, db, t, nodes, segments)
}

// derive is the derivation over t, which has e.T's shape.
func (e *Exec) derive(q *query.Query, db *relation.Database, t *Tree, nodes []Gathered, segments bool) *Exec {
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
				ng.RowGid, num = segmentGids(c.Rel)
				out.parentGid[n.ID], _ = segmentGids(p.Rel)
			case old == nil:
				return nil
			default:
				ng.RowGid, out.parentGid[n.ID], num = boxGids(g, old, c, p)
			}
			ng.packTuples(num)
			out.Groups[n.ID] = ng
			continue
		}
		// Stable gids. A nil gid array stays nil: the base never materialized
		// the edge, and lookups fall back on the shared interner.
		out.Groups[n.ID], out.parentGid[n.ID] = g, old
		if c.Rows != nil {
			ng := &GroupIndex{keys: g.keys, RowGid: gatherGids(g.RowGid, c)}
			ng.packTuples(len(g.Tuples))
			out.Groups[n.ID] = ng
		}
		if p.Rows != nil && old != nil {
			out.parentGid[n.ID] = gatherGids(old, p)
		}
	}
	return out
}

// gatherGids reads a per-row gid array of the input through a node's source
// rows.
func gatherGids(gids []int32, nd *Gathered) []int32 {
	out := make([]int32, nd.Rel.Len())
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
func boxGids(g *GroupIndex, parentGid []int32, c, p *Gathered) (rowGid, pgid []int32, num int) {
	stamp := make([]int32, len(g.Tuples))
	rowGid = make([]int32, c.Rel.Len())
	pgid = make([]int32, p.Rel.Len())
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
func segmentGids(rel *relation.Relation) (gids []int32, num int) {
	ids := rel.Col(rel.Arity() - 1)
	gids = make([]int32, len(ids))
	for i, id := range ids {
		gids[i] = int32(id - 1)
		num = max(num, int(id))
	}
	return gids, num
}

// filterRows returns the rows of rel marked true in keep, in order, copied
// segment-wise.
func filterRows(rel *relation.Relation, keep []bool, kept int) *relation.Relation {
	out := relation.NewWithCapacity(rel.Name(), rel.Arity(), kept)
	n := rel.Len()
	runStart := -1
	for i := 0; i <= n; i++ {
		if i < n && keep[i] {
			if runStart < 0 {
				runStart = i
			}
			continue
		}
		if runStart >= 0 {
			out.AppendRows(rel, runStart, i)
			runStart = -1
		}
	}
	if rel.IsDistinct() {
		out.MarkDistinct()
	}
	return out
}
