package trim

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"

	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
)

// A weight order lists the rows of one relation, or the join groups of one
// child node, ascending by the weight of one ranked variable under the default
// weight (the value itself). It lets a box of a partitioned band start from
// the rows of its narrowest interval instead of scanning every relation: two
// binary searches give the interval's rows, and the join tree the rest
// (partitionBoxes, reach). A variable held by one atom gets the order of that
// atom's rows; a join variable that is some child's whole group key gets the
// order of that child's groups — a group's key is the variable's value on every
// row of the group, on the child's side and on the parent's.
type weightOrder struct {
	node int
	// A row order: rel's rows by the column col.
	rel *relation.Relation
	col []relation.Value
	// A group order: grp's groups by key; cum[k] is the number of child rows
	// in the groups ids[:k].
	grp *jointree.GroupIndex
	cum []int32
	ids []int32
}

// seedShare is the largest share of its relation a box's narrowest interval
// may cover and still seed the box: a seed of 1/seedShare of one relation
// reaches, through the join, at most the rows a scan tests, and on the dense
// joins a warm descent slices far less.
const seedShare = 16

// valid reports whether the order was built from e's relation or index — an
// engine derived with a changed relation has a new one, and no order outlives
// it.
func (o *weightOrder) valid(e *jointree.Exec) bool {
	if o.grp != nil {
		return e.Groups[o.node] == o.grp
	}
	return e.Rels[o.node] == o.rel
}

// weight is the weight at position k of the order.
func (o *weightOrder) weight(k int) int64 {
	if o.grp != nil {
		return o.grp.Keys().TupleOf(uint32(o.ids[k]))[0]
	}
	return o.col[o.ids[k]]
}

// span returns the positions [k1, k2) of the order whose weights lie in iv.
func (o *weightOrder) span(iv interval) (k1, k2 int) {
	k1 = sort.Search(len(o.ids), func(k int) bool { return o.weight(k) >= iv.lo })
	k2 = k1 + sort.Search(len(o.ids)-k1, func(k int) bool { return o.weight(k1+k) > iv.hi })
	return k1, k2
}

// rows returns the number of rows the positions [k1, k2) stand for, and the
// length of the relation they are rows of.
func (o *weightOrder) rows(k1, k2 int) (n, of int) {
	if o.grp != nil {
		return int(o.cum[k2] - o.cum[k1]), len(o.grp.RowGid)
	}
	return k2 - k1, o.rel.Len()
}

// WeightOrders builds the weight orders of inst's tree that the variables f
// ranks can have and the cache does not hold yet, and keeps them: from then on
// every partitioned band cut from an instance carrying the cache starts each
// box from its narrowest interval when that is narrow enough (partitionBoxes).
// Beside each order it builds the parent rows by child group of every edge
// between the order's node and the root (parentRows) — the edges a box seeded
// there climbs. The pivot loop asks for them where a plan is queried again
// under one ranking — a descent that slices a remembered leaf — so a plan
// answered once builds none. A ranking with a custom weight, or one whose
// bands are never partitioned — SUM, and a ranking of one variable, whose band
// is one box — builds nothing. Each order and each inverse is built once:
// concurrent callers wait for the first.
func (c *Cache) WeightOrders(inst Instance, f *ranking.Func) {
	if c == nil || inst.Exec == nil || f.Weight != nil || f.Agg == ranking.Sum || len(f.Vars) < 2 {
		return
	}
	e := inst.Exec
	c.ordMu.Lock()
	defer c.ordMu.Unlock()
	for _, v := range f.Vars {
		o := c.orders[v]
		if o == nil || !o.valid(e) {
			if o = buildOrder(e, v); o == nil {
				continue
			}
			if c.orders == nil {
				c.orders = make(map[query.Var]*weightOrder)
			}
			c.orders[v] = o
			c.ordersBuilt++
		}
		for n := o.node; e.T.Nodes[n].Parent >= 0; n = e.T.Nodes[n].Parent {
			if pr := c.climbs[n]; pr != nil && pr.valid(e, n) {
				continue
			}
			if c.climbs == nil {
				c.climbs = make(map[int]*parentRows)
			}
			c.climbs[n] = newParentRows(e.ParentGids(n), e.Groups[n].NumGroups())
			c.climbsBuilt++
		}
	}
}

// OrdersBuilt returns the number of weight orders built into the cache over
// its life.
func (c *Cache) OrdersBuilt() int {
	c.ordMu.Lock()
	defer c.ordMu.Unlock()
	return c.ordersBuilt
}

// InversesBuilt returns the number of parent-row inverses (parentRows) built
// into the cache over its life.
func (c *Cache) InversesBuilt() int {
	c.ordMu.Lock()
	defer c.ordMu.Unlock()
	return c.climbsBuilt
}

// ordersFor returns the cache's valid order of each variable of f, in f.Vars
// order, nil where there is none or where an edge between the order's node and
// the root has no valid inverse — nil altogether when there is none at all —
// and, per node of e's tree, the valid inverse of the edge above it: a box
// seeded from an order climbs to the root through them (reacher.parents).
func (c *Cache) ordersFor(f *ranking.Func, e *jointree.Exec) ([]*weightOrder, []*parentRows) {
	if c == nil || e == nil || f.Weight != nil {
		return nil, nil
	}
	c.ordMu.Lock()
	defer c.ordMu.Unlock()
	if len(c.orders) == 0 {
		return nil, nil
	}
	climbs := make([]*parentRows, len(e.T.Nodes))
	for n, pr := range c.climbs {
		if pr.valid(e, n) {
			climbs[n] = pr
		}
	}
	climbable := func(n int) bool {
		for ; e.T.Nodes[n].Parent >= 0; n = e.T.Nodes[n].Parent {
			if climbs[n] == nil {
				return false
			}
		}
		return true
	}
	var out []*weightOrder
	for p, v := range f.Vars {
		if o := c.orders[v]; o != nil && o.valid(e) && climbable(o.node) {
			if out == nil {
				out = make([]*weightOrder, len(f.Vars))
			}
			out[p] = o
		}
	}
	return out, climbs
}

// parentRows is the inverse of one edge's parent-gid array: the parent's rows
// grouped by the child group they join, those of group g at
// rows[off[g]:off[g+1]], ascending; a row that joins no group is in none. A
// seeded box climbs the edge through it (reacher.parents) in the rows it
// reaches, not in every parent row; a box is seeded only from an order whose
// every edge to the root has one (ordersFor). It is valid while the Exec's array
// of the edge is pgid: the array it was built from, held so that no other can
// take its address. A derivation (jointree.ApplyDelta) that leaves the parent
// relation as it was and adds no child group keeps the array, and so the
// inverse: deleted child rows leave every parent row's group as it was.
type parentRows struct {
	pgid []int32
	off  []int32
	rows []int32
}

// newParentRows inverts the parent-gid array pgid of an edge whose child has
// the given number of groups, by one counting sort.
func newParentRows(pgid []int32, groups int) *parentRows {
	off := make([]int32, groups+1)
	for _, g := range pgid {
		if g >= 0 {
			off[g+1]++
		}
	}
	for g := range groups {
		off[g+1] += off[g]
	}
	rows := make([]int32, off[groups])
	next := slices.Clone(off[:groups])
	for i, g := range pgid {
		if g >= 0 {
			rows[next[g]] = int32(i)
			next[g]++
		}
	}
	return &parentRows{pgid: pgid, off: off, rows: rows}
}

// valid reports whether pr inverts the array e holds for the edge above node n.
func (pr *parentRows) valid(e *jointree.Exec, n int) bool {
	a := e.ParentGids(n)
	return len(a) == len(pr.pgid) && (len(a) == 0 || &a[0] == &pr.pgid[0])
}

// of returns the parent rows that join child group g, ascending.
func (pr *parentRows) of(g int32) []int32 { return pr.rows[pr.off[g]:pr.off[g+1]] }

// buildOrder builds the order of variable v over e: of the rows of the one
// node that holds it, or of the groups of a child whose whole key it is; nil
// when v has neither.
func buildOrder(e *jointree.Exec, v query.Var) *weightOrder {
	holder, holders := -1, 0
	for _, n := range e.T.Nodes {
		if slices.Contains(n.Vars, v) {
			holder, holders = n.ID, holders+1
		}
	}
	if holders == 1 {
		rel := e.Rels[holder]
		col := rel.Col(slices.Index(e.T.Nodes[holder].Vars, v))[:rel.Len()] // a shared column may run on
		return &weightOrder{node: holder, rel: rel, col: col, ids: sortedBy(len(col), func(i int) int64 { return col[i] })}
	}
	for _, n := range e.T.Nodes {
		g := e.Groups[n.ID]
		if n.Parent < 0 || len(n.SharedWithParent) != 1 || n.SharedWithParent[0] != v || g.Keys() == nil {
			continue
		}
		ids := sortedBy(g.NumGroups(), func(gid int) int64 { return g.Keys().TupleOf(uint32(gid))[0] })
		cum := make([]int32, len(ids)+1)
		for k, gid := range ids {
			cum[k+1] = cum[k] + int32(len(g.Tuples[gid]))
		}
		return &weightOrder{node: n.ID, grp: g, cum: cum, ids: ids}
	}
	return nil
}

// sortedBy returns 0..n-1 ascending by w, ties by index. Weights that span
// less than 2³² are sorted packed beside their index in one word.
func sortedBy(n int, w func(i int) int64) []int32 {
	ids := make([]int32, n)
	if n == 0 {
		return ids
	}
	lo, hi := w(0), w(0)
	for i := 1; i < n; i++ {
		lo, hi = min(lo, w(i)), max(hi, w(i))
	}
	if uint64(hi)-uint64(lo) < 1<<32 {
		packed := make([]uint64, n)
		for i := range packed {
			packed[i] = (uint64(w(i))-uint64(lo))<<32 | uint64(i)
		}
		slices.Sort(packed)
		for k, p := range packed {
			ids[k] = int32(uint32(p))
		}
		return ids
	}
	for i := range ids {
		ids[i] = int32(i)
	}
	slices.SortFunc(ids, func(a, b int32) int {
		return cmp.Or(cmp.Compare(w(int(a)), w(int(b))), cmp.Compare(a, b))
	})
	return ids
}

// seed is where a box's row lists start: the positions [k1, k2) of an order.
type seed struct {
	o      *weightOrder
	k1, k2 int
}

// seedOf returns the narrowest of the box's intervals that has an order, when
// it covers at most 1/seedShare of its relation.
func seedOf(bx box, ords []*weightOrder) (seed, bool) {
	var best seed
	bestRows, bestOf := -1, 0
	for p, iv := range bx {
		o := ords[p]
		if o == nil || iv == unbounded {
			continue
		}
		k1, k2 := o.span(iv)
		if n, of := o.rows(k1, k2); bestRows < 0 || n < bestRows {
			best, bestRows, bestOf = seed{o, k1, k2}, n, of
		}
	}
	return best, bestRows >= 0 && bestRows*seedShare <= bestOf
}

// reacher builds the row lists of seeded boxes over one tree: per node, the
// rows that join a row of the seed through the tree and pass the box's tests,
// ascending. marks holds one stamp per join group of every edge, a box's own
// stamp showing the groups its rows reach — group g's at g+1, so that the gid
// −1 of a parent row with no group reads slot 0, which no box stamps; words is
// a bit per row of the largest relation, for putting rows gathered out of
// order back in order; climbs holds per node the inverse of the edge above it,
// on every edge a seeded box climbs.
type reacher struct {
	e      *jointree.Exec
	marks  [][]int32
	words  []uint64
	climbs []*parentRows
	from   []int // per node, the node its rows were reached from (−1: the seed)
}

// newReacher returns a reacher over e whose marks and bit set are s's, and
// that climbs each edge through its inverse in climbs.
func newReacher(e *jointree.Exec, s *Scratch, climbs []*parentRows) *reacher {
	r := &reacher{e: e, marks: make([][]int32, len(e.Rels)), climbs: climbs, from: make([]int, len(e.Rels))}
	n := 0
	for id, rel := range e.Rels {
		n = max(n, rel.Len())
		if g := e.Groups[id]; g != nil {
			r.marks[id] = s.carve().Int32s(g.NumGroups() + 1)
			clear(r.marks[id])
		}
	}
	if s == nil {
		s = new(Scratch)
	}
	if len(s.words) < (n+63)/64 {
		s.words = make([]uint64, (n+63)/64)
	}
	r.words = s.words[:(n+63)/64] // collect leaves every word it reads zero
	return r
}

// box fills lists — one per node, each with room for its relation — with the
// seeded box's rows, stamping its marks with stamp (> every stamp before), and
// returns the number of rows it put through the tests. The seed's rows are
// those of the order's positions — of its groups, for a group order, on the
// child's side — and the tree is walked out from them, each node from the
// neighbour it was reached from: a child takes the rows of the groups its
// parent's rows point at, a parent the rows that point at a group its child's
// rows are in, read from the edge's inverse.
func (r *reacher) box(sd seed, ts []tests, lists [][]int, stamp int32) (tested int) {
	e, o := r.e, sd.o
	var queue []int
	visit := func(id, from int) {
		tested += len(lists[id])
		lists[id] = ts[id].keep(lists[id])
		r.from[id] = from
		queue = append(queue, id)
	}
	if o.grp == nil {
		for _, i := range o.ids[sd.k1:sd.k2] {
			r.set(int(i))
		}
		lists[o.node] = r.collect(lists[o.node])
	} else {
		lists[o.node] = r.children(o.node, o.ids[sd.k1:sd.k2], lists[o.node])
	}
	visit(o.node, -1)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		nd := e.T.Nodes[id]
		if p := nd.Parent; p >= 0 && r.from[id] != p {
			lists[p] = r.parents(id, lists[id], lists[p], stamp)
			visit(p, id)
		}
		for _, c := range nd.Children {
			if r.from[id] == c {
				continue
			}
			m, pgid := r.marks[c], e.ParentGids(c)
			var gids []int32
			for _, i := range lists[id] {
				if g := pgid[i]; m[g+1] != stamp && g >= 0 {
					m[g+1] = stamp
					gids = append(gids, g)
				}
			}
			lists[c] = r.children(c, gids, lists[c])
			visit(c, id)
		}
	}
	return tested
}

// children returns in dst the rows of child c's groups gids, ascending.
func (r *reacher) children(c int, gids []int32, dst []int) []int {
	g := r.e.Groups[c]
	for _, gid := range gids {
		for _, i := range g.Tuples[gid] {
			r.set(int(i))
		}
	}
	return r.collect(dst)
}

// parents returns in dst, ascending, the rows of c's parent that join the
// group of one of rows, rows of c: it marks each distinct group with stamp and
// puts the group's parent rows, from the edge's inverse, in the bit set.
func (r *reacher) parents(c int, rows, dst []int, stamp int32) []int {
	m, rowGid, pr := r.marks[c], r.e.Groups[c].RowGid, r.climbs[c]
	for _, i := range rows {
		if g := rowGid[i]; m[g+1] != stamp {
			m[g+1] = stamp
			for _, j := range pr.of(g) {
				r.set(int(j))
			}
		}
	}
	return r.collect(dst)
}

// set puts row i in the bit set.
func (r *reacher) set(i int) { r.words[i>>6] |= 1 << (i & 63) }

// collect empties the bit set into dst, ascending.
func (r *reacher) collect(dst []int) []int {
	dst = dst[:0]
	for w, word := range r.words {
		if word == 0 {
			continue
		}
		r.words[w] = 0
		for ; word != 0; word &= word - 1 {
			dst = append(dst, w<<6+bits.TrailingZeros64(word))
		}
	}
	return dst
}
