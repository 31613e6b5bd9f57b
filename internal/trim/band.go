package trim

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/parallel"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
)

// interval is a closed range of weights; lo > hi is empty, and stays empty
// under intersection.
type interval struct{ lo, hi int64 }

var (
	unbounded = interval{math.MinInt64, math.MaxInt64}
	nothing   = interval{1, 0}
)

// strict is the interval of the weights w ≺ λ (Less) or w ≻ λ (Greater). A λ
// at the end of int64 leaves nothing on that side: λ∓1 would wrap around.
func strict(lambda int64, dir Dir) interval {
	switch {
	case dir == Less && lambda > math.MinInt64:
		return interval{math.MinInt64, lambda - 1}
	case dir == Greater && lambda < math.MaxInt64:
		return interval{lambda + 1, math.MaxInt64}
	}
	return nothing
}

// box is one partition of Algorithm 3: an interval per ranked variable, in
// f.Vars order. An answer is in the box when every ranked variable's weight is
// in its interval, so a box is cut out of an instance by filtering every
// relation on the columns it holds.
type box []interval

// cutBoxes lists the disjoint boxes that cover the answers with w ≻ b
// (Greater) or w ≺ b (Less); an infinite bound is the one unconstrained box.
//
//	MAX ≺ λ, MIN ≻ λ: one box, every variable strictly beyond λ
//	MAX ≻ λ: box i has w(x_j) ≤ λ for j < i and w(x_i) > λ   (Lemma 5.2)
//	MIN ≺ λ: box i has w(x_j) ≥ λ for j < i and w(x_i) < λ
//	LEX:     box i has w(x_j) = λ_j for j < i and w(x_i) beyond λ_i  (Lemma 5.4)
func cutBoxes(f *ranking.Func, b ranking.Bound, dir Dir) []box {
	r := len(f.Vars)
	open := func() box { return slices.Repeat(box{unbounded}, r) }
	if !b.IsFinite() {
		return []box{open()}
	}
	lambda := func(j int) int64 {
		if f.Agg == ranking.Lex {
			return b.W.Vec[j]
		}
		return b.W.K
	}
	if (f.Agg == ranking.Max && dir == Less) || (f.Agg == ranking.Min && dir == Greater) {
		bx := open()
		for j := range bx {
			bx[j] = strict(lambda(j), dir)
		}
		return []box{bx}
	}
	boxes := make([]box, r)
	for i := range boxes {
		bx := open()
		for j := range i {
			switch {
			case f.Agg == ranking.Lex:
				bx[j] = interval{lambda(j), lambda(j)}
			case dir == Greater:
				bx[j].hi = lambda(j)
			default:
				bx[j].lo = lambda(j)
			}
		}
		bx[i] = strict(lambda(i), dir)
		boxes[i] = bx
	}
	return boxes
}

// Band trims low ≺ agg(U_w) ≺ high for agg ∈ {MIN, MAX, LEX} in one pass over
// the instance, in linear time; low may be −∞ and high +∞, and a band with
// low ⪰ high is the empty instance. The answers of the output are in O(1)
// bijection (drop the helper variable) with the satisfying answers of the
// input.
//
// Each one-sided cut is a list of disjoint boxes (cutBoxes), so the band is
// their pairwise intersections, again disjoint boxes. Every relation is
// scanned once per box with interval tests on its ranked columns; the
// survivors of all boxes are gathered into one copy of the relation that
// carries the box number in a fresh identifier column, and the identifier
// variable joins every atom so answers never mix boxes (Algorithm 3). A band
// of one box needs no identifier: it is a row filter (subsetOf). Boxes that
// are empty on one variable are kept: they still copy the relations that do
// not hold it, as two composed one-sided cuts would.
func Band(inst Instance, f *ranking.Func, low, high ranking.Bound) (Instance, error) {
	if f.Agg != ranking.Min && f.Agg != ranking.Max && f.Agg != ranking.Lex {
		return Instance{}, fmt.Errorf("trim: Band handles MIN, MAX and LEX, got %s", f.Agg)
	}
	if low.Inf > 0 || high.Inf < 0 {
		return Instance{}, fmt.Errorf("trim: band bounds out of order (low = +∞ or high = −∞)")
	}
	for _, b := range []ranking.Bound{low, high} {
		if f.Agg == ranking.Lex && b.IsFinite() && len(b.W.Vec) != len(f.Vars) {
			return Instance{}, fmt.Errorf("trim: λ has %d components, ranking has %d variables",
				len(b.W.Vec), len(f.Vars))
		}
	}
	if err := requireNormalized(inst.Q); err != nil {
		return Instance{}, err
	}
	var boxes []box
	for _, l := range cutBoxes(f, low, Greater) {
		for _, h := range cutBoxes(f, high, Less) {
			bx := make(box, len(l))
			for j := range bx {
				bx[j] = interval{max(l[j].lo, h[j].lo), min(l[j].hi, h[j].hi)}
			}
			boxes = append(boxes, bx)
		}
	}
	if len(boxes) == 1 {
		return filterBox(inst, f, boxes[0]), nil
	}
	scr := bandScratch.Get().(*bandBufs)
	defer bandScratch.Put(scr)
	return partitionBoxes(inst, f, boxes, scr), nil
}

// MinMax trims the inequality agg(U_w) ≺ λ (dir = Less) or agg(U_w) ≻ λ
// (dir = Greater) for agg ∈ {MIN, MAX} per Lemma 5.2: the band with the other
// bound at infinity.
func MinMax(inst Instance, f *ranking.Func, lambda int64, dir Dir) (Instance, error) {
	if f.Agg != ranking.Min && f.Agg != ranking.Max {
		return Instance{}, fmt.Errorf("trim: MinMax does not handle aggregate %s", f.Agg)
	}
	return oneSided(inst, f, ranking.Weightv{K: lambda}, dir)
}

// Lex trims a lexicographic inequality (w'_{x1}(x1), ..., w'_{xr}(xr)) ≺ λ
// or ≻ λ per Lemma 5.4: the band with the other bound at infinity. λ is a
// weight vector in significance order (f.Vars order).
func Lex(inst Instance, f *ranking.Func, lambda []int64, dir Dir) (Instance, error) {
	if f.Agg != ranking.Lex {
		return Instance{}, fmt.Errorf("trim: Lex requires a LEX ranking, got %s", f.Agg)
	}
	return oneSided(inst, f, ranking.Weightv{Vec: lambda}, dir)
}

func oneSided(inst Instance, f *ranking.Func, w ranking.Weightv, dir Dir) (Instance, error) {
	if dir == Less {
		return Band(inst, f, ranking.NegInf(), ranking.Finite(w))
	}
	return Band(inst, f, ranking.Finite(w), ranking.PosInf())
}

// bandBufs are the transient buffers of a partitioned band: the surviving row
// indexes of every relation, one stretch per relation and box — all held until
// the output's tree has been derived from them — and the box numbers of the
// relation being gathered.
type bandBufs struct {
	rows []int
	pids []relation.Value
}

var bandScratch = sync.Pool{New: func() any { return new(bandBufs) }}

// weightCol is a column of a relation that holds a ranked variable: the
// variable's position in f.Vars and the weights of the column's values.
type weightCol struct {
	p int
	w []int64
}

// weightCols lists the ranked columns of a relation whose columns hold vars.
// A custom weight function is applied here, once per value, so the scans of
// the boxes read plain numbers.
func weightCols(f *ranking.Func, vars []query.Var, cols [][]relation.Value, workers int) []weightCol {
	var out []weightCol
	for j, v := range vars {
		p := slices.Index(f.Vars, v)
		if p < 0 {
			continue
		}
		w := cols[j]
		if f.Weight != nil {
			w = make([]int64, len(cols[j]))
			parallel.For(workers, len(w), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					w[i] = f.Weight(v, cols[j][i])
				}
			})
		}
		out = append(out, weightCol{p, w})
	}
	return out
}

// tests are the interval tests a box puts on one relation: a row passes when
// each tested column's weight lies in [lo, lo+span].
type tests struct {
	cols []colTest
	// none marks a box that is empty on a variable the relation holds.
	none bool
}

type colTest struct {
	w    []int64
	lo   int64
	span uint64
}

// testsOf lists the tests of a box on a relation: one per ranked column the
// box constrains.
func testsOf(bx box, cols []weightCol) tests {
	var t tests
	for _, c := range cols {
		switch iv := bx[c.p]; {
		case iv == unbounded:
		case iv.lo > iv.hi:
			t.none = true
		default:
			t.cols = append(t.cols, colTest{w: c.w, lo: iv.lo, span: uint64(iv.hi - iv.lo)})
		}
	}
	return t
}

// all reports whether every row passes.
func (t *tests) all() bool { return len(t.cols) == 0 && !t.none }

// pass is 1 when row i passes every test, else 0. w−lo wraps for w < lo, to a
// value past any span, so one unsigned comparison tests both ends.
func (t *tests) pass(i int) int {
	ok := 1
	for c := range t.cols {
		if uint64(t.cols[c].w[i]-t.cols[c].lo) > t.cols[c].span {
			ok = 0
		}
	}
	return ok
}

// rows returns the indexes of the rows of [0, n) that pass, ascending, in the
// front of dst (len ≥ n). Every row is stored and the length advances by the
// outcome, so the scan branches on no data; chunks of a split scan write to
// their own stretch of dst and are then closed up.
func (t *tests) rows(dst []int, workers, n int) []int {
	if t.none {
		return dst[:0]
	}
	scan := func(lo, hi int) int {
		k := lo
		for i := lo; i < hi; i++ {
			dst[k] = i
			k += t.pass(i)
		}
		return k - lo
	}
	chunks := parallel.Ranges(workers, n)
	if len(chunks) <= 1 {
		return dst[:scan(0, n)]
	}
	kept := make([]int, len(chunks))
	parallel.Do(workers, len(chunks), func(c int) { kept[c] = scan(chunks[c].Lo, chunks[c].Hi) })
	k := 0
	for c, ch := range chunks {
		k += copy(dst[k:], dst[ch.Lo:ch.Lo+kept[c]])
	}
	return dst[:k]
}

// filterBox cuts one box out of an instance: a pure row filter, each row
// tested once. A relation the box does not constrain is shared.
func filterBox(inst Instance, f *ranking.Func, bx box) Instance {
	workers := inst.workers()
	keep := make([][]bool, len(inst.Q.Atoms))
	for i, atom := range inst.Q.Atoms {
		src := inst.rel(i)
		t := testsOf(bx, weightCols(f, atom.Vars, src.Cols(), workers))
		if t.all() {
			continue
		}
		k := make([]bool, src.Len())
		if !t.none {
			parallel.For(workers, len(k), func(lo, hi int) {
				for r := lo; r < hi; r++ {
					k[r] = t.pass(r) != 0
				}
			})
		}
		keep[i] = k
	}
	return subsetOf(inst, keep)
}

// partitionBoxes cuts several disjoint boxes out of an instance (Algorithm 3):
// every relation becomes the concatenation, in box order, of its rows in each
// box, tagged with the box number in an identifier column whose fresh variable
// is added to every atom. Given an Exec, the output's follows from the row
// lists (jointree.DeriveGathered).
func partitionBoxes(inst Instance, f *ranking.Func, boxes []box, scr *bandBufs) Instance {
	workers := inst.workers()
	q2 := inst.Q.Clone()
	xp := freshHelperVar(q2, "p")
	for i := range q2.Atoms {
		q2.Atoms[i].Vars = append(q2.Atoms[i].Vars, xp)
	}
	out := Instance{Q: q2, DB: relation.NewDatabase(), Workers: inst.Workers}
	total := 0
	for i := range inst.Q.Atoms {
		total += inst.rel(i).Len() * len(boxes)
	}
	scr.rows = slices.Grow(scr.rows[:0], total)[:total]
	rowParts := make([][]int, len(inst.Q.Atoms)*len(boxes))
	pidParts := make([][]relation.Value, len(boxes))
	nodes := make([]jointree.Gathered, len(inst.Q.Atoms))
	at := 0
	for i, atom := range inst.Q.Atoms {
		src := inst.rel(i)
		n := src.Len()
		scr.pids = slices.Grow(scr.pids[:0], n*len(boxes))[:0]
		cols := weightCols(f, atom.Vars, src.Cols(), workers)
		parts := rowParts[i*len(boxes) : (i+1)*len(boxes)]
		for bi, bx := range boxes {
			t := testsOf(bx, cols)
			parts[bi] = t.rows(scr.rows[at:at+n], workers, n)
			at += n
			from := len(scr.pids)
			for range parts[bi] {
				scr.pids = append(scr.pids, relation.Value(bi+1))
			}
			pidParts[bi] = scr.pids[from:]
		}
		rel := src.GatherRowsPlusParts(atom.Rel, parts, pidParts)
		if src.IsDistinct() {
			rel.MarkDistinct() // disjoint boxes never duplicate a (row, box) pair
		}
		out.DB.Add(rel)
		nodes[i] = jointree.Gathered{Rel: rel, Rows: parts, ID: true}
	}
	if inst.Exec != nil {
		out.Exec = inst.Exec.DeriveGathered(out.Q, out.DB, nodes, false)
	}
	return out
}
