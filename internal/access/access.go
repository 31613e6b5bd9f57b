// Package access provides the direct-access structure of Section 3.1: after
// linear-time preprocessing, the i-th answer of an acyclic join query (in a
// fixed but arbitrary order) can be returned in logarithmic time, which also
// yields uniform random sampling of answers [Brault-Baron 2013; Carmeli et
// al. 2022].
//
// The structure stores, per join group, prefix sums of the subtree answer
// counts of the group's tuples. Decoding walks the join tree top-down,
// splitting the index into a tuple choice (binary search over prefix sums)
// and a mixed-radix residue across the children.
package access

import (
	"fmt"
	"math/big"
	"math/rand"

	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/yannakakis"
)

// Direct is a direct-access structure over the answers of one executable
// join tree.
type Direct struct {
	e      *jointree.Exec
	counts *yannakakis.Counts

	// rootOrder lists root tuples with non-zero counts; rootPrefix[i] is the
	// cumulative count of rootOrder[:i+1].
	rootOrder  []int
	rootPrefix []counting.Count

	// groupOrder[node][g] lists the group's live tuples;
	// groupPrefix[node][g][i] is the cumulative count of groupOrder[:i+1].
	groupOrder  [][][]int
	groupPrefix [][][]counting.Count

	nodePos [][]int // per node: positions of node vars in the global layout
}

// NewWorkers builds the structure in linear time (one counting pass plus
// prefix sums); the executable tree must not be mutated afterwards. The
// counting pass runs on a bounded worker pool; the prefix sums stay
// sequential (they are inherently cumulative).
func NewWorkers(e *jointree.Exec, workers int) *Direct {
	d := &Direct{e: e, counts: yannakakis.CountWorkers(e, workers)}
	varIdx := e.Q.VarIndex()
	d.nodePos = make([][]int, len(e.T.Nodes))
	d.groupOrder = make([][][]int, len(e.T.Nodes))
	d.groupPrefix = make([][][]counting.Count, len(e.T.Nodes))
	for _, n := range e.T.Nodes {
		pos := make([]int, len(n.Vars))
		for j, v := range n.Vars {
			pos[j] = varIdx[v]
		}
		d.nodePos[n.ID] = pos
		if n.Parent < 0 {
			continue
		}
		groups := e.Groups[n.ID]
		d.groupOrder[n.ID] = make([][]int, groups.NumGroups())
		d.groupPrefix[n.ID] = make([][]counting.Count, groups.NumGroups())
		for g, tuples := range groups.Tuples {
			var order []int
			var prefix []counting.Count
			acc := counting.Zero
			for _, ti := range tuples {
				c := d.counts.Tuple[n.ID][ti]
				if c.IsZero() {
					continue
				}
				acc = acc.Add(c)
				order = append(order, ti)
				prefix = append(prefix, acc)
			}
			d.groupOrder[n.ID][g] = order
			d.groupPrefix[n.ID][g] = prefix
		}
	}
	root := e.T.Root
	acc := counting.Zero
	for ti, c := range d.counts.Tuple[root] {
		if c.IsZero() {
			continue
		}
		acc = acc.Add(c)
		d.rootOrder = append(d.rootOrder, ti)
		d.rootPrefix = append(d.rootPrefix, acc)
	}
	return d
}

// N returns the total number of answers.
func (d *Direct) N() counting.Count { return d.counts.Total }

// At writes the i-th answer (0-indexed, in the structure's fixed order) into
// asn, which must have length len(e.Q.Vars()). It panics if i ≥ N().
func (d *Direct) At(i counting.Count, asn []relation.Value) {
	if i.Cmp(d.counts.Total) >= 0 {
		panic(fmt.Sprintf("access: index %s out of range (N = %s)", i, d.counts.Total))
	}
	pos, residual := searchPrefix(d.rootPrefix, i)
	d.decode(d.e.T.Root, d.rootOrder[pos], residual, asn)
}

// searchPrefix finds the first position whose cumulative count exceeds i and
// returns it with the residual index inside that position.
func searchPrefix(prefix []counting.Count, i counting.Count) (int, counting.Count) {
	lo, hi := 0, len(prefix)
	for lo < hi {
		mid := (lo + hi) / 2
		if prefix[mid].Cmp(i) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	residual := i
	if lo > 0 {
		residual = i.Sub(prefix[lo-1])
	}
	return lo, residual
}

func (d *Direct) decode(node, ti int, r counting.Count, asn []relation.Value) {
	rel := d.e.Rels[node]
	cols := rel.Cols()
	for j, p := range d.nodePos[node] {
		asn[p] = cols[j][ti]
	}
	n := d.e.T.Nodes[node]
	if len(n.Children) == 0 {
		return
	}
	row := rel.RowValues(ti)
	// Group counts of each child for this tuple.
	gids := make([]int, len(n.Children))
	counts := make([]counting.Count, len(n.Children))
	for j, ch := range n.Children {
		gid, ok := d.e.GroupForParentRow(ch, row)
		if !ok {
			panic("access: decoding reached a dangling tuple")
		}
		gids[j] = gid
		counts[j] = d.counts.Group[ch][gid]
	}
	// Mixed radix, child 0 most significant.
	for j := range n.Children {
		stride := counting.One
		for l := j + 1; l < len(n.Children); l++ {
			stride = stride.Mul(counts[l])
		}
		q, rem := r.DivMod(stride)
		r = rem
		ch := n.Children[j]
		pos, residual := searchPrefix(d.groupPrefix[ch][gids[j]], q)
		d.decode(ch, d.groupOrder[ch][gids[j]][pos], residual, asn)
	}
}

// Sample writes a uniformly random answer into asn using rng.
// It panics if the query has no answers.
func (d *Direct) Sample(rng *rand.Rand, asn []relation.Value) {
	n := d.counts.Total
	if n.IsZero() {
		panic("access: sampling from an empty answer set")
	}
	var i counting.Count
	if lo, ok := n.Uint64(); ok && lo <= 1<<62 {
		i = counting.FromUint64(uint64(rng.Int63n(int64(lo))))
	} else {
		b := new(big.Int).Rand(rng, n.Big())
		i, _ = counting.FromBig(b)
	}
	d.At(i, asn)
}
