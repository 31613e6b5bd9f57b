package yannakakis

import (
	"fmt"
	"math/big"
	"math/rand"

	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/relation"
)

// Direct is the direct-access index of Section 3.1 [Brault-Baron 2013;
// Carmeli et al. 2022]: after one linear pass over a tree's counts, At(i) is
// the i-th answer of Enumerate's order (AnswersAt's, position for position) in
// O(ℓ · log |D|) steps, which also draws uniform samples of Q(D).
//
// It reads the tree and its counting state, and adds one prefix sum per tuple
// of every node with children: a position is split into a tuple of the
// node's candidates (a binary search over the sums) and a mixed-radix residue
// over its children's join groups, child 0 most significant — the pre-order
// nesting of Walk. A node without children needs no sums: each of its tuples
// counts one, so a position is a tuple. Groups are found through the edges'
// parent-gid arrays and values read from the columns: no key is hashed and
// nothing is allocated per step. A Direct is read-only and safe for
// concurrent use.
type Direct struct {
	e *jointree.Exec
	c *Counts
	l layout // positions and columns; asn is the caller's

	// prefix[node][ti] sums the counts of ti's join group up to and including
	// ti, in group order — the root's, of the rows up to ti; nil for a node
	// without children.
	prefix [][]counting.Count
}

// NewDirect builds the index over e's answers; c must be e's counting state,
// and neither may change while the index is in use.
func NewDirect(e *jointree.Exec, c *Counts) *Direct {
	d := &Direct{e: e, c: c, l: assignmentLayout(e), prefix: make([][]counting.Count, len(e.T.Nodes))}
	for _, n := range e.T.Nodes {
		if len(n.Children) == 0 {
			continue
		}
		cnt := c.Tuple[n.ID]
		sums := make([]counting.Count, len(cnt))
		if n.Parent < 0 {
			acc := counting.Zero
			for ti, x := range cnt {
				acc = acc.Add(x)
				sums[ti] = acc
			}
		} else {
			for _, tuples := range e.Groups[n.ID].Tuples {
				acc := counting.Zero
				for _, ti := range tuples {
					acc = acc.Add(cnt[ti])
					sums[ti] = acc
				}
			}
		}
		d.prefix[n.ID] = sums
	}
	return d
}

// N returns the total number of answers.
func (d *Direct) N() counting.Count { return d.c.Total }

// At writes the i-th answer into asn, laid out per e.Q.Vars(). It panics if
// i ≥ N().
func (d *Direct) At(i counting.Count, asn []relation.Value) {
	if !i.Less(d.c.Total) {
		panic(fmt.Sprintf("yannakakis: index %s out of range (N = %s)", i, d.c.Total))
	}
	l := d.l
	l.asn = asn
	root := d.e.T.Root
	ti, r := d.pick(root, nil, i)
	d.decode(l, root, ti, r)
}

// decode binds tuple ti of node and, below it, the r-th partial answer of its
// subtree.
func (d *Direct) decode(l layout, node, ti int, r counting.Count) {
	l.set(node, ti)
	children := d.e.T.Nodes[node].Children
	for k := len(children) - 1; k >= 0; k-- {
		ch := children[k]
		gid := d.e.ParentGids(ch)[ti]
		q := r
		if k > 0 {
			r, q = r.DivMod(d.c.Group[ch][gid])
		}
		cti, cr := d.pick(ch, d.e.Groups[ch].Tuples[gid], q)
		d.decode(l, ch, cti, cr)
	}
}

// pick returns the tuple among rows (nil: every row of the node) whose
// partial answers hold position q of theirs together, and q's position among
// that tuple's own.
func (d *Direct) pick(node int, rows []int, q counting.Count) (int, counting.Count) {
	row := func(p int) int {
		if rows == nil {
			return p
		}
		return rows[p]
	}
	sums := d.prefix[node]
	if sums == nil {
		p, _ := q.Uint64()
		return row(int(p)), counting.Zero
	}
	n := len(sums)
	if rows != nil {
		n = len(rows)
	}
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sums[row(mid)].Cmp(q) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 {
		q = q.Sub(sums[row(lo-1)])
	}
	return row(lo), q
}

// Sample writes a uniformly random answer into asn using rng. It panics if
// the query has no answers.
func (d *Direct) Sample(rng *rand.Rand, asn []relation.Value) {
	n := d.c.Total
	if n.IsZero() {
		panic("yannakakis: sampling from an empty answer set")
	}
	var i counting.Count
	if lo, ok := n.Uint64(); ok && lo <= 1<<62 {
		i = counting.FromUint64(uint64(rng.Int63n(int64(lo))))
	} else {
		i, _ = counting.FromBig(new(big.Int).Rand(rng, n.Big()))
	}
	d.At(i, asn)
}
