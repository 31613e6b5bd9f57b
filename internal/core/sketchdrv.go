package core

import (
	"slices"
	"sort"

	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/parallel"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/sketch"
	"github.com/quantilejoins/qjoin/internal/trim"
	"github.com/quantilejoins/qjoin/internal/yannakakis"
)

// DefaultSketchEps is the default anchor-grid resolution of sketch
// summaries: anchors are planted every 1/32 of the rank range, so a freshly
// built summary certifies every rank to within ~1/64 of |Q(D)|. Requests
// with a finer ε build a finer summary (mode=approx) or fall back to the
// exact engine (mode=auto).
const DefaultSketchEps = 1.0 / 32

// BuildSummary constructs a rank-anchor summary of eng's answer multiset at
// grid resolution res: the answer at every grid index k_i = Index(N, i·res),
// each an anchor with the tight window RMin = RMax = k_i. The whole grid is
// placed by one shared descent (SelectMany), so a summary costs about a pass
// over the data per level of the descent — O(|D|·log m) for m anchors, plus
// their m tails — rather than a selection run per anchor; the anchors are the
// ones those runs would return. For SUM rankings outside the tractable class —
// where exact selection is intractable (Theorem 5.6) — the descent runs
// ε-lossy at ε = res/2 and the windows widen by ⌊(res/2)·N⌋, which Theorem 6.2
// certifies. The construction reuses the engine's cached counting state and
// trim cache through the ordinary driver: no join work beyond the descent's
// rounds is paid, and the engine is not mutated.
func BuildSummary(eng *engine.Engine, f *ranking.Func, res float64, opts Options) (*sketch.Summary, error) {
	if res <= 0 || res >= 1 {
		res = DefaultSketchEps
	}
	n := eng.Counts().Total
	if n.IsZero() {
		return sketch.New(nil, n, res, false, f.Compare), nil
	}
	o := opts
	o.CollectPhases = false
	o.Epsilon = res / 2 // read only by a descent that has to trim lossily
	steps := int(1/res) + 1
	grid := make([]counting.Count, 0, steps+1)
	for i := 0; i <= steps; i++ {
		phi := min(float64(i)*res, 1)
		if k := Index(n, phi); i == 0 || k.Cmp(grid[len(grid)-1]) != 0 {
			grid = append(grid, k)
		}
		if phi >= 1 {
			break
		}
	}
	anchors, stats, err := SelectMany([]*engine.Engine{eng}, f, grid, o)
	if err != nil {
		return nil, err
	}
	widen := counting.FloorMulFloat(n, o.Epsilon)
	entries := make([]sketch.Entry, len(grid))
	for i, k := range grid {
		rmin, rmax := k, k
		if stats.Lossy {
			// The lossy answer's weight occupies a rank within ⌊ε·N⌋ of k
			// (Theorem 6.2): leq ≥ k − widen + 1 and less ≤ k + widen.
			if widen.Less(k) {
				rmin = k.Sub(widen)
			} else {
				rmin = counting.Count{}
			}
			rmax = counting.Min(k.Add(widen), n)
		}
		entries[i] = sketch.Entry{Weight: anchors[i].Weight, Values: anchors[i].Values, RMin: rmin, RMax: rmax}
	}
	return sketch.New(entries, n, res, stats.Lossy, f.Compare), nil
}

// RefreshSummary re-certifies a summary's anchors against a (typically
// delta-updated) engine from the full instance, without re-running any
// selection: per anchor λ it builds the strict less-than-λ and greater-than-λ
// trims and counts them — two trim+count passes per anchor, each quasilinear
// in |D| and served from the engine's trim cache. It is the pass for a part
// ShiftSummary has no input for: one whose windows are not class windows yet
// (fresh from BuildSummary or a snapshot), an engine behind a hypertree
// decomposition, or a delta with more answers than the instance has tuples.
// The anchor weights and representative values are kept; only the certified
// windows move, to the class windows of λ:
//
//	RMax = cLess + e    and    RMin = (N − cGreater) − 1 − e,
//
// where e = ⌊(res/2)·N⌋ for lossy trims (which undercount one-sidedly by at
// most e, Lemma 6.3) and e = 0 for exact ones. Anchors whose window can no
// longer certify any occupied rank — all certified mass moved strictly above
// λ — are dropped. Returns (nil, nil) when no anchor survives while answers
// remain: the caller should rebuild from scratch, the distribution has
// shifted past what refresh can track.
func RefreshSummary(eng *engine.Engine, f *ranking.Func, s *sketch.Summary, opts Options) (*sketch.Summary, error) {
	res := s.Res
	if res <= 0 || res >= 1 {
		res = DefaultSketchEps
	}
	n := eng.Counts().Total
	if n.IsZero() {
		return sketch.New(nil, n, res, false, f.Compare), nil
	}
	o := opts
	o.Epsilon = res / 2 // read only by lossy trims
	trm, err := makeTrimmer(eng, f, o)
	if err != nil {
		return nil, err
	}
	widen := counting.Count{}
	if trm.lossy {
		widen = counting.FloorMulFloat(n, o.Epsilon)
	}
	workers := parallel.Workers(opts.Parallelism)
	orig := trim.Instance{Q: eng.Query(), DB: eng.DB(), Workers: workers, Exec: eng.Exec(), Cache: eng.TrimCache()}
	var scr yannakakis.Scratch
	var band trim.Scratch // each band is counted and dropped before the next
	one := counting.FromUint64(1)
	entries := make([]sketch.Entry, 0, len(s.Entries))
	for _, e := range s.Entries {
		at := ranking.Finite(e.Weight)
		bands := [2][2]ranking.Bound{trim.Less: {ranking.NegInf(), at}, trim.Greater: {at, ranking.PosInf()}}
		var c [2]counting.Count
		for side, b := range bands {
			inst, err := trm.band(orig, &band, b[0], b[1], trim.Dir(side), o.Epsilon)
			if err != nil {
				return nil, err
			}
			exec, err := execOf(inst)
			if err != nil {
				return nil, err
			}
			c[side] = yannakakis.CountScratch(exec, workers, &scr).Total
		}
		cLess, cGreater := c[trim.Less], c[trim.Greater]
		if n.Less(cGreater) {
			cGreater = n // cannot happen for sound trims; guard the Sub
		}
		leq := n.Sub(cGreater) // ≥ true leq(λ); off by at most e below
		if leq.Cmp(widen) <= 0 {
			continue // cannot certify leq(λ) ≥ 1 anymore: anchor is gone
		}
		entries = append(entries, sketch.Entry{
			Weight: e.Weight,
			Values: e.Values,
			RMin:   leq.Sub(one).Sub(widen),
			RMax:   counting.Min(cLess.Add(widen), n),
		})
	}
	if len(entries) == 0 {
		return nil, nil // every anchor died: rebuild
	}
	return sketch.New(entries, n, res, trm.lossy, f.Compare), nil
}

// AnswerDelta is the answers one engine derivation gained and lost, as flat
// rows laid out per the engine's Query().Vars(). It is immutable once built:
// every ranking's summary of the plan shifts by the same delta.
type AnswerDelta struct {
	width        int
	gained, lost []relation.Value
}

// Len returns how many answers the delta holds, gained and lost together.
func (d *AnswerDelta) Len() int { return (len(d.gained) + len(d.lost)) / d.width }

// DeltaAnswers enumerates what the derivation prev → next, which reported ch,
// did to the answer set: the answers of next through the rows its nodes
// gained, and the answers of prev through the rows they lost. Both walks
// start at the changed rows (yannakakis.EnumerateThrough), so the cost is the
// delta's join neighbourhood plus the answers listed. It returns nil when
// there is nothing to walk from (ch.Rebuilt) and when the delta holds more
// than budget answers — past |D| answers the full pass of RefreshSummary,
// quasilinear in |D|, is the cheaper way to move a window.
func DeltaAnswers(prev, next *engine.Engine, ch engine.Change, budget int) *AnswerDelta {
	width := len(next.Query().Vars())
	if ch.Rebuilt || width == 0 {
		return nil
	}
	d := &AnswerDelta{width: width}
	var added, removed []yannakakis.NodeRows
	for _, nc := range ch.Nodes {
		added = append(added, yannakakis.NodeRows{Node: nc.Node, Rows: nc.AddedIdx})
		removed = append(removed, yannakakis.NodeRows{Node: nc.Node, Rows: nc.RemovedIdx})
	}
	collect := func(into *[]relation.Value) func([]relation.Value) bool {
		return func(asn []relation.Value) bool {
			*into = append(*into, asn...)
			return d.Len() <= budget
		}
	}
	yannakakis.EnumerateThrough(next.Exec(), next.Counts(), added, collect(&d.gained))
	yannakakis.EnumerateThrough(prev.Exec(), prev.Counts(), removed, collect(&d.lost))
	if d.Len() > budget {
		return nil
	}
	return d
}

// sortedWeights returns, ascending, the weights under f of flat answer rows
// laid out per vars.
func sortedWeights(f *ranking.Func, vars []query.Var, rows [][]relation.Value) []ranking.Weightv {
	aw, width := ranking.NewAnswerWeigher(f, vars), len(vars)
	n := 0
	for _, r := range rows {
		n += len(r) / width
	}
	ws := make([]ranking.Weightv, 0, n)
	r := f.VecLen()
	vecs := make([]int64, n*r)
	for _, flat := range rows {
		for i := 0; i < len(flat); i += width {
			k := len(ws)
			ws = append(ws, aw.WeightInto(vecs[k*r:(k+1)*r:(k+1)*r], flat[i:i+width]))
		}
	}
	slices.SortFunc(ws, f.Compare)
	return ws
}

// ShiftSummary re-certifies a summary against eng from the answers the engine
// gained and lost since the windows were certified (deltas, in any order: one
// per Update not yet absorbed). less(λ) and leq(λ) add over disjoint sets of
// answers, so each anchor's window moves by what the deltas put below it:
//
//	RMax += gainedLess(λ) − lostLess(λ)   and   RMin += gainedLeq(λ) − lostLeq(λ),
//
// with N taken from eng. The arithmetic is exact: class windows of exact trims
// come out equal to RefreshSummary's, entry for entry, and lossy windows keep
// the slack they had without adding any. An anchor is dropped when its window
// can no longer certify leq(λ) ≥ 1; as with RefreshSummary, nil means no
// anchor survived and the caller should rebuild. The cost is sorting the
// deltas' weights plus two binary searches per anchor and side.
func ShiftSummary(eng *engine.Engine, f *ranking.Func, s *sketch.Summary, deltas []*AnswerDelta) *sketch.Summary {
	n := eng.Counts().Total
	if n.IsZero() {
		return sketch.New(nil, n, s.Res, false, f.Compare)
	}
	var gainedRows, lostRows [][]relation.Value
	for _, d := range deltas {
		gainedRows, lostRows = append(gainedRows, d.gained), append(lostRows, d.lost)
	}
	vars := eng.Query().Vars()
	gained := sortedWeights(f, vars, gainedRows)
	lost := sortedWeights(f, vars, lostRows)
	// below counts the sorted weights ≺ λ (or ⪯ λ).
	below := func(ws []ranking.Weightv, at ranking.Weightv, orEqual bool) uint64 {
		return uint64(sort.Search(len(ws), func(i int) bool {
			c := f.Compare(ws[i], at)
			return c > 0 || (c == 0 && !orEqual)
		}))
	}
	entries := make([]sketch.Entry, 0, len(s.Entries))
	for _, e := range s.Entries {
		leq := e.RMin.AddUint64(1 + below(gained, e.Weight, true))
		lostLeq := counting.FromUint64(below(lost, e.Weight, true))
		if leq.Cmp(lostLeq) <= 0 {
			continue // cannot certify leq(λ) ≥ 1 anymore: anchor is gone
		}
		less := e.RMax.AddUint64(below(gained, e.Weight, false)).Sub(counting.FromUint64(below(lost, e.Weight, false)))
		entries = append(entries, sketch.Entry{
			Weight: e.Weight,
			Values: e.Values,
			RMin:   leq.Sub(lostLeq).Sub(counting.FromUint64(1)),
			RMax:   counting.Min(less, n),
		})
	}
	if len(entries) == 0 {
		return nil // every anchor died: rebuild
	}
	return sketch.New(entries, n, s.Res, s.Lossy, f.Compare)
}
