package trim

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
)

// SumAdjacentBand trims low ≺ Σ_{x∈U_w} w_x(x) ≺ high when the ranked
// variables sit on one join-tree node or two adjacent nodes (Lemma 5.5, after
// Tziavelis et al. [22]); low may be −∞ and high +∞. It runs in O(n log n),
// produces an instance of size O(n log n), and the answers of the output are
// in bijection (drop the helper variable) with the satisfying answers of the
// input. The output stays in the class: the two weight-bearing atoms remain
// adjacent (they now additionally share the helper variable), so the trim
// composes with itself.
//
// Construction, per join group of the adjacent pair (A, B): sort the B-side
// rows by their partial sum. For an A-row with partial sum s, the admissible
// B-rows are the contiguous range holding sums in (low - s, high - s) — a
// "staircase" with a step at both ends. Both ends only fall as s rises, so
// the ranges of a group's A rows are found by one merge, the A rows taken in
// order of partial sum (staircase), in O(|A_g| + |B_g|) steps. Each range is
// decomposed into O(log n) canonical dyadic segments of an implicit segment
// tree over the sorted order; a fresh variable shared by A and B carries the
// segment identity, so each admissible pair joins on exactly one segment and
// no inadmissible pair joins at all. Both bounds cost one pass: Algorithm 1's
// candidate band never needs a trim of a trim.
//
// Everything that does not depend on the bounds — the grouped A and B sides,
// the per-row partial sums, the per-group sorts of both sides — is a *preparation*
// that Algorithm 1 re-uses verbatim every iteration: only the bounds change
// between pivoting rounds. When the instance carries a Cache (the driver's
// original always does), the preparation is computed once per ranking and
// every subsequent call pays only for the staircase emission, which is
// proportional to the output.
func SumAdjacentBand(inst Instance, f *ranking.Func, low, high ranking.Bound) (Instance, error) {
	if f.Agg != ranking.Sum {
		return Instance{}, fmt.Errorf("trim: SumAdjacent requires SUM, got %s", f.Agg)
	}
	if low.Inf > 0 || high.Inf < 0 {
		return Instance{}, fmt.Errorf("trim: band bounds out of order (low = +∞ or high = −∞)")
	}
	if err := requireNormalized(inst.Q); err != nil {
		return Instance{}, err
	}
	prep, err := sumAdjPrepFor(inst, f)
	if err != nil {
		return Instance{}, err
	}
	if prep.single {
		return sumAdjFilter(inst, f, prep, low, high)
	}
	return sumAdjEmit(inst, prep, low, high)
}

// SumAdjacent trims Σ ≺ λ (dir = Less) or Σ ≻ λ (dir = Greater): the band
// with the other bound at infinity.
func SumAdjacent(inst Instance, f *ranking.Func, lambda int64, dir Dir) (Instance, error) {
	l := ranking.Finite(ranking.Weightv{K: lambda})
	if dir == Less {
		return SumAdjacentBand(inst, f, ranking.NegInf(), l)
	}
	return SumAdjacentBand(inst, f, l, ranking.PosInf())
}

// sumAdjPrep is the bound-independent preparation of SumAdjacentBand: the
// adjacent pair, the μ-split ranked columns, both sides grouped by their
// shared join key (B-side whole-row deduplicated, sums sorted ascending for
// the staircase search), and the per-row partial sums.
type sumAdjPrep struct {
	atomIdxA, atomIdxB int // atom indexes in inst.Q (== node ids)
	atomA, atomB       query.Atom
	single             bool
	// derives says Build gives the staircase's output query the join tree of
	// the instance's Exec (jointree.SameShape), so a band derives its tree
	// from that one. The segment variable on the pair can re-root or
	// re-parent it; a band then carries no Exec, and the driver builds its
	// tree afresh.
	derives bool

	// Single-node state.
	colsA []int
	varsA []query.Var

	// Two-node state.
	bGroups    []bGroupPrep
	aGroupRows [][]int32 // per A-group, row indexes into relA, ascending
	aPartner   []int     // A-group -> index into bGroups, -1 when keyless
	aSums      []int64   // the partial sums of aGroupRows' rows, group after group
	// aBySum lies beside aSums: per A-group, the positions of its rows within
	// the group, ordered by partial sum — the order the staircase merge reads
	// them in.
	aBySum []int32
}

type bGroupPrep struct {
	rows []int32 // relB row indexes, sorted by sums
	sums []int64 // ascending, aligned with rows
}

// sumAdjPrepFor returns the preparation, from the instance's cache when one
// is attached (built at most once per ranking per plan).
func sumAdjPrepFor(inst Instance, f *ranking.Func) (*sumAdjPrep, error) {
	c := inst.Cache
	if c == nil {
		return buildSumAdjPrep(inst, f)
	}
	key := f.Key()
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.sumAdj[key]; ok {
		return p, nil
	}
	p, err := buildSumAdjPrep(inst, f)
	if err != nil {
		return nil, err
	}
	if c.sumAdj == nil || len(c.sumAdj) >= cacheMaxEntries {
		c.sumAdj = make(map[ranking.Key]*sumAdjPrep)
	}
	c.sumAdj[key] = p
	return p, nil
}

// Adjacent reports whether f's variables sit on one atom or two adjacent
// atoms of a join tree of q (jointree.BuildAdjacentPair, Lemma D.1): the
// tractable side of Theorem 5.6, where SumAdjacentBand cuts exactly. q is the
// query of the instances the cache serves. A ranking whose preparation the
// cache holds is tractable — the preparation is that tree's pair — so a plan
// decides it with BuildAdjacentPair until its first exact SUM cut.
func (c *Cache) Adjacent(q *query.Query, f *ranking.Func) bool {
	if c != nil {
		c.mu.Lock()
		_, ok := c.sumAdj[f.Key()]
		c.mu.Unlock()
		if ok {
			return true
		}
	}
	_, _, _, err := jointree.BuildAdjacentPair(q, f.Vars)
	return err == nil
}

func buildSumAdjPrep(inst Instance, f *ranking.Func) (*sumAdjPrep, error) {
	tree, nodeA, nodeB, err := jointree.BuildAdjacentPair(inst.Q, f.Vars)
	if err != nil {
		return nil, fmt.Errorf("trim: U_w not coverable by adjacent nodes: %w", err)
	}
	p := &sumAdjPrep{atomIdxA: tree.Nodes[nodeA].Atom}
	p.atomA = inst.Q.Atoms[p.atomIdxA]
	if nodeB == -1 {
		// All ranked variables in one atom: a linear filter on its relation.
		p.single = true
		p.colsA, p.varsA = rankedColumns(p.atomA, f)
		return p, nil
	}
	p.atomIdxB = tree.Nodes[nodeB].Atom
	p.atomB = inst.Q.Atoms[p.atomIdxB]
	if inst.Exec != nil {
		p.derives = jointree.SameShape(p.outQuery(inst.Q), inst.Exec.T)
	}

	// μ-split the ranked variables: a variable appearing in both atoms
	// contributes on the A side only.
	var aVars, bVars []query.Var
	for _, v := range f.Vars {
		if p.atomA.HasVar(v) {
			aVars = append(aVars, v)
		} else {
			bVars = append(bVars, v)
		}
	}
	colsA := firstColumns(p.atomA, aVars)
	colsB := firstColumns(p.atomB, bVars)

	// Join key between the pair in the *current* query (includes helper
	// variables from earlier trims automatically).
	keyVars := sharedVars(p.atomA, p.atomB)
	keyA := firstColumns(p.atomA, keyVars)
	keyB := firstColumns(p.atomB, keyVars)

	relA := inst.rel(p.atomIdxA)
	relB := inst.rel(p.atomIdxB)
	aCols, bCols := relA.Cols(), relB.Cols()

	// Group the B side, deduplicating whole rows on the way: relations are
	// sets, and a duplicate row would receive distinct segment memberships
	// (positions differ) and duplicate answers downstream. Grouping interns
	// the key columns — dense group ids in first-appearance order, no string
	// keys anywhere.
	// Both sides use a CSR layout: one pass interns keys and records each
	// surviving row's dense group id, a counting prefix sum carves one shared
	// backing array into per-group sub-slices, and a second pass drops the
	// rows in. Group order and within-group row order match the old
	// append-per-group build (first-appearance groups, ascending rows), with
	// two flat arrays instead of one growing slice per group.
	keys := relation.NewInterner(len(keyVars), relB.Len())
	var seenB *relation.Interner
	if !relB.IsDistinct() {
		seenB = relation.NewInterner(relB.Arity(), relB.Len())
	}
	keyBuf := make([]relation.Value, 0, len(keyVars))
	rowBuf := make([]relation.Value, relB.Arity())
	bRows := make([]int32, 0, relB.Len()) // surviving B rows, in scan order
	bGids := make([]int32, 0, relB.Len()) // their dense group ids
	for i, n := 0, relB.Len(); i < n; i++ {
		if seenB != nil {
			if _, fresh := seenB.Intern(relB.CopyRow(rowBuf, i)); !fresh {
				continue
			}
		}
		keyBuf = relation.GatherAt(keyBuf, bCols, keyB, i)
		gid, _ := keys.Intern(keyBuf)
		bRows = append(bRows, int32(i))
		bGids = append(bGids, int32(gid))
	}
	p.bGroups = make([]bGroupPrep, keys.Len())
	fillCSR(keys.Len(), bGids, bRows, true, func(gid int32, rows []int32, sums []int64) {
		p.bGroups[gid] = bGroupPrep{rows: rows, sums: sums}
	})
	// Partial sums and the per-group staircase sort.
	for k := range p.bGroups {
		g := &p.bGroups[k]
		for j, ri := range g.rows {
			g.sums[j] = rowSumAt(f, bVars, colsB, bCols, int(ri))
		}
		sort.Sort(&sumRowSorter{sums: g.sums, rows: g.rows})
	}

	// Group the A side by the same key, in first-appearance order — map
	// order would make the output row order (and with it downstream pivot
	// tie-breaks) vary between runs, breaking the engine's repeatable-answer
	// guarantee. Each A-group resolves its B partner once.
	aKeys := relation.NewInterner(len(keyVars), relA.Len())
	aGids := make([]int32, relA.Len())
	for i, n := 0, relA.Len(); i < n; i++ {
		keyBuf = relation.GatherAt(keyBuf, aCols, keyA, i)
		gid, fresh := aKeys.Intern(keyBuf)
		if fresh {
			if b, ok := keys.Lookup(keyBuf); ok {
				p.aPartner = append(p.aPartner, int(b))
			} else {
				p.aPartner = append(p.aPartner, -1)
			}
		}
		aGids[i] = int32(gid)
	}
	p.aGroupRows = make([][]int32, aKeys.Len())
	fillCSR(aKeys.Len(), aGids, nil, false, func(gid int32, rows []int32, _ []int64) {
		p.aGroupRows[gid] = rows
	})
	// The sums lie in the order the emission reads them in, and each group's
	// positions by sum beside them.
	p.aSums = make([]int64, 0, relA.Len())
	p.aBySum = make([]int32, 0, relA.Len())
	for _, rows := range p.aGroupRows {
		off := len(p.aSums)
		for j, i := range rows {
			p.aSums = append(p.aSums, rowSumAt(f, aVars, colsA, aCols, int(i)))
			p.aBySum = append(p.aBySum, int32(j))
		}
		sums := p.aSums[off:]
		slices.SortFunc(p.aBySum[off:], func(x, y int32) int { return cmp.Compare(sums[x], sums[y]) })
	}
	return p, nil
}

// sumAdjFilter handles the single-node case: a pure row filter (subsetOf) on
// the one relation that holds every ranked variable, each row's sum taken
// once.
func sumAdjFilter(inst Instance, f *ranking.Func, p *sumAdjPrep, low, high ranking.Bound) (Instance, error) {
	src := inst.rel(p.atomIdxA)
	cols := src.Cols()
	k := make([]bool, src.Len())
	for i := range k {
		s := rowSumAt(f, p.varsA, p.colsA, cols, i)
		k[i] = (!low.IsFinite() || s > low.W.K) && (!high.IsFinite() || s < high.W.K)
	}
	keep := make([][]bool, len(inst.Q.Atoms))
	keep[p.atomIdxA] = k
	return subsetOf(inst, keep), nil
}

// segKey identifies one dyadic segment of a group's sorted B side.
type segKey struct {
	lvl, start int
}

// emitPlan is sumAdjEmit's emission plan: source row indexes plus segment
// ids. A band's plan is its scratch's own, reused by the next band cut into
// it.
type emitPlan struct {
	rowsA, rowsB []int            // source row indexes of emitted copies
	segA, segB   []relation.Value // aligned segment ids, 1 the band's first

	// span holds the admissible B range [from, to) of each A row of the group
	// being emitted, at 2j and 2j+1 for the row at position j (staircase).
	span []int32

	// segAt is the id table of the group being emitted, over the implicit
	// segment tree of its sorted B side: segment (lvl, start) of a group of m
	// rows sits at (P+start)>>lvl, P the power of two ≥ m. An entry holds the
	// count of ids the plan had handed out, over its lifetime (segRun), when
	// the segment got its own: it is the current group's exactly when it is
	// past the count at the group's start, so no group clears the table.
	segAt     []int64
	segRun    int64
	usedOrder []segKey // the group's segments in allocation order
}

func (c *emitPlan) reset() {
	c.rowsA, c.rowsB = c.rowsA[:0], c.rowsB[:0]
	c.segA, c.segB = c.segA[:0], c.segB[:0]
}

// sumAdjEmit is the per-band staircase emission over a two-node preparation.
func sumAdjEmit(inst Instance, p *sumAdjPrep, low, high ranking.Bound) (Instance, error) {
	a := inst.Scratch.carve()
	relA := inst.rel(p.atomIdxA)
	relB := inst.rel(p.atomIdxB)

	// An emission *plan* — source row indexes plus segment ids, numbered
	// from 1 in first-use order — instead of materialized relations: the
	// final materialization is one bulk gather per output column, so the
	// inner loops never copy a row. The plan is the scratch's: Algorithm 1
	// re-emits every pivoting round, and regrowing the plan lists each round
	// is pure GC churn.
	c := inst.Scratch.emitPlan()
	c.reset()
	first := c.segRun            // the band's ids are those past it
	usedOrder := c.usedOrder[:0] // allocation order, for deterministic emission
	aOff := 0                    // where the group's sums start in aSums
	for gk, rows := range p.aGroupRows {
		sums, bySum := p.aSums[aOff:aOff+len(rows)], p.aBySum[aOff:aOff+len(rows)]
		aOff += len(rows)
		bi := p.aPartner[gk]
		if bi < 0 {
			continue // A-rows with no B partner participate in no answer
		}
		g := &p.bGroups[bi]
		m := len(g.rows)
		pow := 1 << bits.Len(uint(m-1)) // a group holds at least the row that made it
		if len(c.segAt) < 2*pow {
			c.segAt = append(c.segAt, make([]int64, 2*pow-len(c.segAt))...)
		}
		base := c.segRun
		usedOrder = usedOrder[:0]
		if cap(c.span) < 2*len(rows) {
			c.span = make([]int32, 2*len(rows))
		}
		span := c.span[:2*len(rows)]
		if !staircase(g.sums, sums, bySum, low, high, span) {
			continue
		}
		for j, ai := range rows {
			from, to := int(span[2*j]), int(span[2*j+1])
			// Canonical dyadic cover of [from, to), left to right: at each
			// position the largest aligned segment that still fits.
			for pos := from; pos < to; {
				lvl := bits.Len(uint(to-pos)) - 1
				if pos != 0 {
					lvl = min(lvl, bits.TrailingZeros(uint(pos)))
				}
				at := &c.segAt[(pow+pos)>>uint(lvl)]
				if *at <= base {
					c.segRun++
					*at = c.segRun
					usedOrder = append(usedOrder, segKey{lvl, pos})
				}
				c.rowsA = append(c.rowsA, int(ai))
				c.segA = append(c.segA, relation.Value(*at-first))
				pos += 1 << uint(lvl)
			}
		}
		// Emit B-side memberships for the segments actually used, in
		// allocation order: the k-th is the band's id base-first+k+1.
		for k, sk := range usedOrder {
			id := relation.Value(base - first + int64(k) + 1)
			for pos, hi := sk.start, sk.start+1<<uint(sk.lvl); pos < hi; pos++ {
				c.rowsB = append(c.rowsB, int(g.rows[pos]))
				c.segB = append(c.segB, id)
			}
		}
	}
	c.usedOrder = usedOrder
	// Materialize each output with one gather per column; the plan's id
	// lists become the identifier columns as they stand (they are the
	// scratch's, as the band's columns are).
	rowsA, rowsB := [][]int{c.rowsA}, [][]int{c.rowsB}
	outA := relA.GatherRowsPlus(p.atomA.Rel, rowsA, c.segA, a)
	outB := relB.GatherRowsPlus(p.atomB.Rel, rowsB, c.segB, a)

	// Segment membership emits each (B-row, segment) pair once, and A-copies
	// carry pairwise-distinct segment ids per row, so distinctness of the
	// inputs carries over.
	outB.MarkDistinct()
	if relA.IsDistinct() {
		outA.MarkDistinct()
	}
	out := Instance{Q: p.outQuery(inst.Q), DB: relation.NewDatabase()}
	nodes := make([]jointree.Gathered, len(inst.Q.Atoms))
	for i := range inst.Q.Atoms {
		nodes[i].Rel = inst.rel(i) // read-only; shared, not cloned
	}
	nodes[p.atomIdxA] = jointree.Gathered{Rel: outA, Rows: rowsA, ID: true}
	nodes[p.atomIdxB] = jointree.Gathered{Rel: outB, Rows: rowsB, ID: true}
	for _, nd := range nodes {
		out.DB.Add(nd.Rel)
	}
	// The segment ids are the groups of the pair's edge, in a fresh build's
	// order: per group they are allocated as the A side first uses them and
	// listed in that order on the B side, groups ascending on both.
	if inst.Exec != nil && p.derives {
		out.Exec = inst.Exec.DeriveGathered(out.Q, out.DB, nodes, true, a)
	}
	return out, nil
}

// outQuery is the staircase's output query: q with a fresh segment variable
// added to the pair's two atoms.
func (p *sumAdjPrep) outQuery(q *query.Query) *query.Query {
	out := q.Clone()
	v := freshHelperVar(q, "s")
	out.Atoms[p.atomIdxA].Vars = append(out.Atoms[p.atomIdxA].Vars, v)
	out.Atoms[p.atomIdxB].Vars = append(out.Atoms[p.atomIdxB].Vars, v)
	return out
}

// staircase writes the admissible range [from, to) of a group's B side for
// each of its A rows — the B positions whose sums lie strictly between low−s
// and high−s, s the row's partial sum — to span[2j] and span[2j+1], j the
// row's position in the group. bSums is the B side's ascending sums, aSums the
// A rows' sums and bySum their positions ordered by sum. The first row in that
// order finds both ends by binary search; as the sum rises both ends only fall,
// so each later row walks them down from where the row before left them, and a
// group costs O(log |B_g| + |A_g| + |B_g|) steps. Each walk also steps up while
// it must, so an end is the binary search's for any threshold, monotone or not.
// A group whose answer sums all lie outside the band, or all inside, is
// settled from its extreme sums without the merge (groupExtremes): staircase
// returns false for one that emits nothing, and leaves span unwritten.
func staircase(bSums, aSums []int64, bySum []int32, low, high ranking.Bound, span []int32) bool {
	m := len(bSums)
	switch none, all := groupExtremes(bSums, aSums, bySum, low, high); {
	case none:
		return false
	case all:
		for j := range bySum {
			span[2*j], span[2*j+1] = 0, int32(m)
		}
		return true
	}
	from, to := 0, m
	for k, j := range bySum {
		s := aSums[j]
		if low.IsFinite() {
			x := low.W.K - s
			if k == 0 {
				from = searchAbove(bSums, x)
			}
			for from > 0 && bSums[from-1] > x {
				from--
			}
			for from < m && bSums[from] <= x {
				from++
			}
		}
		if high.IsFinite() {
			x := high.W.K - s
			if k == 0 {
				to, _ = slices.BinarySearch(bSums, x)
			}
			for to > 0 && bSums[to-1] >= x {
				to--
			}
			for to < m && bSums[to] < x {
				to++
			}
		}
		span[2*j], span[2*j+1] = int32(from), int32(max(from, to))
	}
	return true
}

// groupExtremes reports whether no pair of a group's A and B rows has its sum
// inside the band (none) or every pair has (all), from the least and greatest
// sum of either side: A's at the ends of bySum, B's at the ends of bSums. The
// merge compares a B sum with low − s and high − s; where those differences
// stay in int64 at both of A's extremes they do at every A sum between, are
// exact, and the extremes decide every row as the merge would. Where one would
// wrap, neither is reported and the merge decides.
func groupExtremes(bSums, aSums []int64, bySum []int32, low, high ranking.Bound) (none, all bool) {
	m := len(bSums)
	if m == 0 || len(bySum) == 0 {
		return true, false
	}
	aMin, aMax := aSums[bySum[0]], aSums[bySum[len(bySum)-1]]
	bMin, bMax := bSums[0], bSums[m-1]
	above, below := true, true // every pair's sum is > low, < high
	if low.IsFinite() {
		hi, ok1 := sub(low.W.K, aMin)
		lo, ok2 := sub(low.W.K, aMax)
		if !ok1 || !ok2 {
			return false, false
		}
		if bMax <= lo {
			return true, false
		}
		above = bMin > hi
	}
	if high.IsFinite() {
		hi, ok1 := sub(high.W.K, aMin)
		lo, ok2 := sub(high.W.K, aMax)
		if !ok1 || !ok2 {
			return false, false
		}
		if bMin >= hi {
			return true, false
		}
		below = bMax < lo
	}
	return false, above && below
}

// sub returns a − b and whether it is exact: it wraps exactly when a and b
// differ in sign and the result's sign is not a's.
func sub(a, b int64) (int64, bool) {
	d := a - b
	return d, (a^b)&(a^d) >= 0
}

// searchAbove returns the first j with sums[j] > x, len(sums) when there is
// none; sums is ascending.
func searchAbove(sums []int64, x int64) int {
	lo, hi := 0, len(sums)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if sums[h] <= x {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

type sumRowSorter struct {
	sums []int64
	rows []int32
}

func (s *sumRowSorter) Len() int           { return len(s.sums) }
func (s *sumRowSorter) Less(i, j int) bool { return s.sums[i] < s.sums[j] }
func (s *sumRowSorter) Swap(i, j int) {
	s.sums[i], s.sums[j] = s.sums[j], s.sums[i]
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
}

// fillCSR carves per-group row lists out of one shared backing array: count
// per group id, prefix-sum the offsets, then fill in scan order so each
// group's rows stay ascending. src maps scan position to source row index
// (nil means the identity). With withSums an int64 backing array is carved
// the same way, zero-filled for the caller to populate. assign is invoked
// once per group id, in id order.
func fillCSR(nGroups int, gids []int32, src []int32, withSums bool, assign func(gid int32, rows []int32, sums []int64)) {
	counts := make([]int32, nGroups)
	for _, g := range gids {
		counts[g]++
	}
	offs := make([]int32, nGroups+1)
	for g, c := range counts {
		offs[g+1] = offs[g] + c
	}
	rowsBacking := make([]int32, len(gids))
	var sumsBacking []int64
	if withSums {
		sumsBacking = make([]int64, len(gids))
	}
	next := make([]int32, nGroups)
	copy(next, offs[:nGroups])
	for j, g := range gids {
		pos := next[g]
		next[g] = pos + 1
		if src != nil {
			rowsBacking[pos] = src[j]
		} else {
			rowsBacking[pos] = int32(j)
		}
	}
	for g := 0; g < nGroups; g++ {
		rows := rowsBacking[offs[g]:offs[g+1]]
		var sums []int64
		if withSums {
			sums = sumsBacking[offs[g]:offs[g+1]]
		}
		assign(int32(g), rows, sums)
	}
}

// rankedColumns returns the ranked variables present in atom with the column
// of their first occurrence.
func rankedColumns(atom query.Atom, f *ranking.Func) (cols []int, vars []query.Var) {
	for _, v := range f.Vars {
		for j, av := range atom.Vars {
			if av == v {
				cols = append(cols, j)
				vars = append(vars, v)
				break
			}
		}
	}
	return cols, vars
}

// firstColumns maps each variable to its first column in the atom.
func firstColumns(atom query.Atom, vars []query.Var) []int {
	out := make([]int, len(vars))
	for i, v := range vars {
		out[i] = -1
		for j, av := range atom.Vars {
			if av == v {
				out[i] = j
				break
			}
		}
	}
	return out
}

// sharedVars returns the distinct variables two atoms have in common.
func sharedVars(a, b query.Atom) []query.Var {
	var out []query.Var
	for _, v := range a.UniqueVars() {
		if b.HasVar(v) {
			out = append(out, v)
		}
	}
	return out
}

// rowSumAt computes Σ w_v(relCols[col_v][i]) — the columnar row sum: one
// contiguous column read per ranked variable.
func rowSumAt(f *ranking.Func, vars []query.Var, cols []int, relCols [][]relation.Value, i int) int64 {
	var s int64
	for k, c := range cols {
		s += f.W(vars[k], relCols[c][i])
	}
	return s
}
