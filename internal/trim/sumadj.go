package trim

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/parallel"
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
// B-rows are the contiguous range holding sums in (low - s, high - s) — two
// binary searches, a "staircase" with a step at both ends. Each range is
// decomposed into O(log n) canonical dyadic segments of an implicit segment
// tree over the sorted order; a fresh variable shared by A and B carries the
// segment identity, so each admissible pair joins on exactly one segment and
// no inadmissible pair joins at all. Both bounds cost one pass: Algorithm 1's
// candidate band never needs a trim of a trim.
//
// Everything that does not depend on the bounds — the grouped A and B sides,
// the per-row partial sums, the per-group staircase sort — is a *preparation*
// that Algorithm 1 re-uses verbatim every iteration: only the bounds change
// between pivoting rounds. When the instance carries a Cache (the driver's
// original always does), the preparation is computed once per ranking and
// every subsequent call pays only for the staircase emission, which is
// proportional to the output.
//
// Join groups are independent, so with inst.Workers > 1 the per-group
// staircase constructions run on the worker pool over contiguous group
// ranges: each group allocates segment ids locally in the sequential
// first-use order, a prefix sum over the per-group id counts (taken in group
// order) rebases them to the global sequence, and per-chunk outputs
// concatenate in group order — reproducing the sequential output byte for
// byte at any worker count.
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

	// Single-node state.
	colsA []int
	varsA []query.Var

	// Two-node state.
	bGroups    []bGroupPrep
	aGroupRows [][]int // per A-group, row indexes into relA, ascending
	aPartner   []int   // A-group -> index into bGroups, -1 when keyless
	aSums      []int64 // per relA row: partial sum
}

type bGroupPrep struct {
	rows []int   // relB row indexes, sorted by sums
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

func buildSumAdjPrep(inst Instance, f *ranking.Func) (*sumAdjPrep, error) {
	tree, nodeA, nodeB, err := jointree.BuildAdjacentPair(inst.Q, f.Vars)
	if err != nil {
		return nil, fmt.Errorf("trim: U_w not coverable by adjacent nodes: %w", err)
	}
	workers := inst.workers()
	if inst.DB.Size() < parallel.SeqThreshold {
		workers = 1
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
	fillCSR(keys.Len(), bGids, bRows, true, func(gid int32, rows []int, sums []int64) {
		p.bGroups[gid] = bGroupPrep{rows: rows, sums: sums}
	})
	// Partial sums and the per-group staircase sort: groups are independent,
	// and each group's sort sees the same input regardless of worker count.
	parallel.Do(workers, len(p.bGroups), func(k int) {
		g := &p.bGroups[k]
		for j, ri := range g.rows {
			g.sums[j] = rowSumAt(f, bVars, colsB, bCols, ri)
		}
		sort.Sort(&sumRowSorter{sums: g.sums, rows: g.rows})
	})

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
	p.aGroupRows = make([][]int, aKeys.Len())
	fillCSR(aKeys.Len(), aGids, nil, false, func(gid int32, rows []int, _ []int64) {
		p.aGroupRows[gid] = rows
	})
	p.aSums = make([]int64, relA.Len())
	parallel.For(workers, relA.Len(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p.aSums[i] = rowSumAt(f, aVars, colsA, aCols, i)
		}
	})
	return p, nil
}

// sumAdjFilter handles the single-node case: a pure row filter (subsetOf) on
// the one relation that holds every ranked variable, each row's sum taken
// once.
func sumAdjFilter(inst Instance, f *ranking.Func, p *sumAdjPrep, low, high ranking.Bound) (Instance, error) {
	src := inst.rel(p.atomIdxA)
	cols := src.Cols()
	k := make([]bool, src.Len())
	parallel.For(inst.workers(), len(k), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s := rowSumAt(f, p.varsA, p.colsA, cols, i)
			k[i] = (!low.IsFinite() || s > low.W.K) && (!high.IsFinite() || s < high.W.K)
		}
	})
	keep := make([][]bool, len(inst.Q.Atoms))
	keep[p.atomIdxA] = k
	return subsetOf(inst, keep), nil
}

// segKey identifies one dyadic segment of a group's sorted B side.
type segKey struct {
	lvl, start int
}

// emitChunk is the pooled per-chunk emission plan of sumAdjEmit: source row
// indexes plus segment-id columns, with per-group bookkeeping for the global
// id rebase.
type emitChunk struct {
	rowsA, rowsB []int            // source row indexes of emitted copies
	segA, segB   []relation.Value // aligned segment-id column values
	groups       []int            // group indexes processed (those with a partner)
	nSegs        []relation.Value // per processed group: local ids used
	aEnds        []int            // per processed group: len(rowsA) after it
	bEnds        []int            // per processed group: len(rowsB) after it

	// segAt is the id table of the group being emitted, over the implicit
	// segment tree of its sorted B side: segment (lvl, start) of a group of m
	// rows sits at (P+start)>>lvl, P the power of two ≥ m. An entry holds the
	// count of ids the chunk had handed out, over its pooled lifetime (segRun),
	// when the segment got its own: it is the current group's exactly when it is
	// past the count at the group's start, so no group clears the table.
	segAt     []int64
	segRun    int64
	usedOrder []segKey // the group's segments in allocation order
}

func (c *emitChunk) reset() {
	c.rowsA, c.rowsB = c.rowsA[:0], c.rowsB[:0]
	c.segA, c.segB = c.segA[:0], c.segB[:0]
	c.groups, c.nSegs = c.groups[:0], c.nSegs[:0]
	c.aEnds, c.bEnds = c.aEnds[:0], c.bEnds[:0]
}

var emitScratch = sync.Pool{New: func() any { return new(emitChunk) }}

// sumAdjEmit is the per-band staircase emission over a two-node preparation.
func sumAdjEmit(inst Instance, p *sumAdjPrep, low, high ranking.Bound) (Instance, error) {
	workers := inst.workers()
	if inst.DB.Size() < parallel.SeqThreshold {
		workers = 1
	}
	relA := inst.rel(p.atomIdxA)
	relB := inst.rel(p.atomIdxB)
	v := freshHelperVar(inst.Q, "s")

	// Per contiguous chunk of A-groups: an emission *plan* — source row
	// indexes plus segment-id columns — instead of materialized relations.
	// Per-group segment ids are allocated locally (sequential first-use
	// order) with the bookkeeping to rebase them globally afterwards; the
	// final materialization is one bulk gather per output column, so the
	// inner loops never copy a row. Plan scratch is pooled: Algorithm 1
	// re-emits every pivoting round, and regrowing the plan lists each round
	// is pure GC churn.
	nGroups := len(p.aGroupRows)
	chunks := parallel.MapRanges(workers, nGroups, func(glo, ghi int) *emitChunk {
		c := emitScratch.Get().(*emitChunk)
		c.reset()
		usedOrder := c.usedOrder[:0] // allocation order, for deterministic emission
		for gk := glo; gk < ghi; gk++ {
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
			for _, ai := range p.aGroupRows[gk] {
				s := p.aSums[ai]
				// Admissible range: B-sums strictly between low-s and high-s.
				from, to := 0, m
				if low.IsFinite() {
					from = sort.Search(m, func(j int) bool { return g.sums[j] > low.W.K-s })
				}
				if high.IsFinite() {
					to = sort.Search(m, func(j int) bool { return g.sums[j] >= high.W.K-s })
				}
				// Canonical dyadic cover of [from, to), left to right: at
				// each position the largest aligned segment that still fits.
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
					c.rowsA = append(c.rowsA, ai)
					c.segA = append(c.segA, relation.Value(*at-base))
					pos += 1 << uint(lvl)
				}
			}
			// Emit B-side memberships for the segments actually used: the k-th
			// allocated has local id k+1.
			for k, sk := range usedOrder {
				for pos, hi := sk.start, sk.start+1<<uint(sk.lvl); pos < hi; pos++ {
					c.rowsB = append(c.rowsB, g.rows[pos])
					c.segB = append(c.segB, relation.Value(k+1))
				}
			}
			c.groups = append(c.groups, gk)
			c.nSegs = append(c.nSegs, relation.Value(c.segRun-base))
			c.aEnds = append(c.aEnds, len(c.rowsA))
			c.bEnds = append(c.bEnds, len(c.rowsB))
		}
		c.usedOrder = usedOrder
		return c
	})
	// Rebase local segment ids onto the global sequence: a prefix sum over
	// per-group id counts in group order reproduces the sequential
	// allocation (ids are contiguous per group, groups in first-appearance
	// order). The shifts run per chunk on the plan's flat id columns.
	offsets := make([][]relation.Value, len(chunks))
	var nextID relation.Value
	for ci, c := range chunks {
		offsets[ci] = make([]relation.Value, len(c.groups))
		for k, n := range c.nSegs {
			offsets[ci][k] = nextID
			nextID += n
		}
	}
	parallel.Do(workers, len(chunks), func(ci int) {
		c := chunks[ci]
		aStart, bStart := 0, 0
		for k := range c.groups {
			if off := offsets[ci][k]; off != 0 {
				shiftRange(c.segA, aStart, c.aEnds[k], off)
				shiftRange(c.segB, bStart, c.bEnds[k], off)
			}
			aStart, bStart = c.aEnds[k], c.bEnds[k]
		}
	})
	// Materialize each output with one gather per column, reading the
	// per-chunk plans in chunk order — no concatenated copy in between.
	rowsA, rowsB := make([][]int, len(chunks)), make([][]int, len(chunks))
	extraParts := make([][]relation.Value, len(chunks))
	for ci, c := range chunks {
		rowsA[ci], rowsB[ci], extraParts[ci] = c.rowsA, c.rowsB, c.segA
	}
	outA := relA.GatherRowsPlusParts(p.atomA.Rel, rowsA, extraParts)
	for ci, c := range chunks {
		extraParts[ci] = c.segB
	}
	outB := relB.GatherRowsPlusParts(p.atomB.Rel, rowsB, extraParts)

	// Segment membership emits each (B-row, segment) pair once, and A-copies
	// carry pairwise-distinct segment ids per row, so distinctness of the
	// inputs carries over.
	outB.MarkDistinct()
	if relA.IsDistinct() {
		outA.MarkDistinct()
	}
	q2 := inst.Q.Clone()
	q2.Atoms[p.atomIdxA].Vars = append(q2.Atoms[p.atomIdxA].Vars, v)
	q2.Atoms[p.atomIdxB].Vars = append(q2.Atoms[p.atomIdxB].Vars, v)
	out := Instance{Q: q2, DB: relation.NewDatabase(), Workers: inst.Workers}
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
	if inst.Exec != nil {
		out.Exec = inst.Exec.DeriveGathered(out.Q, out.DB, nodes, true)
	}
	for _, c := range chunks {
		emitScratch.Put(c)
	}
	return out, nil
}

// shiftRange adds off to vals[lo:hi].
func shiftRange(vals []relation.Value, lo, hi int, off relation.Value) {
	for i := lo; i < hi; i++ {
		vals[i] += off
	}
}

type sumRowSorter struct {
	sums []int64
	rows []int
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
func fillCSR(nGroups int, gids []int32, src []int32, withSums bool, assign func(gid int32, rows []int, sums []int64)) {
	counts := make([]int32, nGroups)
	for _, g := range gids {
		counts[g]++
	}
	offs := make([]int32, nGroups+1)
	for g, c := range counts {
		offs[g+1] = offs[g] + c
	}
	rowsBacking := make([]int, len(gids))
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
			rowsBacking[pos] = int(src[j])
		} else {
			rowsBacking[pos] = j
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
