package core

import (
	"errors"

	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/parallel"
	"github.com/quantilejoins/qjoin/internal/ranking"
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
// grid resolution res: one exact selection run per grid index k_i =
// Index(N, i·res), each yielding an anchor with the tight window
// RMin = RMax = k_i. For SUM rankings outside the tractable class — where
// exact selection is intractable (Theorem 5.6) — the selections run ε-lossy
// at ε = res/2 and the windows widen by ⌊(res/2)·N⌋, which Theorem 6.2
// certifies. The construction reuses the engine's cached counting state and
// trim cache through the ordinary Select driver: no join work beyond the
// grid's pivot-loop runs is paid, and the engine is not mutated.
func BuildSummary(eng *engine.Engine, f *ranking.Func, res float64, opts Options) (*sketch.Summary, error) {
	if res <= 0 || res >= 1 {
		res = DefaultSketchEps
	}
	n := eng.Counts().Total
	if n.IsZero() {
		return sketch.New(nil, n, res, false, f.Compare), nil
	}
	exact, err := exactTrimsAvailable(eng, f, opts)
	if err != nil {
		return nil, err
	}
	o := opts
	o.CollectPhases = false
	widen := counting.Count{}
	if exact {
		o.Epsilon = 0
	} else {
		o.Epsilon = res / 2
		widen = counting.FloorMulFloat(n, o.Epsilon)
	}
	steps := int(1/res) + 1
	entries := make([]sketch.Entry, 0, steps+1)
	var prev counting.Count
	for i := 0; i <= steps; i++ {
		phi := float64(i) * res
		if phi > 1 {
			phi = 1
		}
		k := Index(n, phi)
		if i > 0 && k.Cmp(prev) == 0 {
			continue
		}
		prev = k
		a, _, err := SelectPrepared(eng, f, k, o)
		if err != nil {
			return nil, err
		}
		rmin, rmax := k, k
		if !exact {
			// The lossy answer's weight occupies a rank within ⌊ε·N⌋ of k
			// (Theorem 6.2): leq ≥ k − widen + 1 and less ≤ k + widen.
			if widen.Less(k) {
				rmin = k.Sub(widen)
			} else {
				rmin = counting.Count{}
			}
			rmax = counting.Min(k.Add(widen), n)
		}
		entries = append(entries, sketch.Entry{Weight: a.Weight, Values: a.Values, RMin: rmin, RMax: rmax})
		if phi >= 1 {
			break
		}
	}
	return sketch.New(entries, n, res, !exact, f.Compare), nil
}

// RefreshSummary re-certifies a summary's anchors against a (typically
// delta-updated) engine without re-running any selection: per anchor λ it
// builds the strict less-than-λ and greater-than-λ trims of the full
// instance and counts them — two trim+count passes per anchor, each
// quasilinear and served from the engine's trim cache. The anchor weights
// and representative values are kept; only the certified windows move:
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
	exact, err := exactTrimsAvailable(eng, f, opts)
	if err != nil {
		return nil, err
	}
	o := opts
	selEps := 0.0
	widen := counting.Count{}
	if !exact {
		selEps = res / 2
		o.Epsilon = selEps
		widen = counting.FloorMulFloat(n, selEps)
	} else {
		o.Epsilon = 0
	}
	trm, err := makeTrimmer(eng.Query(), f, o)
	if err != nil {
		return nil, err
	}
	workers := parallel.Workers(opts.Parallelism)
	orig := trim.Instance{Q: eng.Query(), DB: eng.DB(), Workers: workers, Exec: eng.Exec(), Cache: eng.TrimCache()}
	var scr yannakakis.Scratch
	one := counting.FromUint64(1)
	entries := make([]sketch.Entry, 0, len(s.Entries))
	for _, e := range s.Entries {
		at := ranking.Finite(e.Weight)
		bands := [2][2]ranking.Bound{trim.Less: {ranking.NegInf(), at}, trim.Greater: {at, ranking.PosInf()}}
		var c [2]counting.Count
		for side, b := range bands {
			inst, err := trm.band(orig, b[0], b[1], trim.Dir(side), selEps)
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
	return sketch.New(entries, n, res, !exact, f.Compare), nil
}

// exactTrimsAvailable reports whether the ranking admits exact trims on this
// query (everything except SUM outside the tractable class, per the
// dichotomy of Theorem 5.6 — or any SUM under Options.ForceLossy).
func exactTrimsAvailable(eng *engine.Engine, f *ranking.Func, opts Options) (bool, error) {
	probe := opts
	probe.Epsilon = 0
	if _, err := makeTrimmer(eng.Query(), f, probe); err != nil {
		if errors.Is(err, ErrIntractable) {
			return false, nil
		}
		return false, err
	}
	return true, nil
}
