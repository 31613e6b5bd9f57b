package sketch

// This file implements the mergeable rank-anchor summary behind the serving
// layer's approximate quantile tier (mode=approx / mode=auto). It is a
// GK-style quantile summary adapted to join answers: the answer multiset
// |Q(D)| can be astronomically large (counts are 128-bit), so instead of
// streaming the answers — which are never enumerated — the summary stores a
// small set of *anchors* obtained from exact (or ε-lossy) selection runs,
// each carrying a certified window of ranks it can stand in for.
//
// Semantics of an anchor with weight λ, writing
//
//	less(λ) = #{answers with weight ≺ λ}
//	leq(λ)  = #{answers with weight ⪯ λ}
//
// the certified invariants are
//
//	less(λ) ≤ RMax   and   leq(λ) ≥ RMin + 1.
//
// Serving the anchor for a 0-based target rank k therefore has rank error at
// most max(RMax − k, k − RMin, 0): the ranks occupied by weight λ (or, if λ
// left the multiset after deletions, the gap where it would sit) are within
// that distance of k. An anchor produced by an exact selection at rank k has
// RMin = RMax = k and certifies error |k′ − k| for any target k′.
//
// Summaries merge across shards exactly like GK summaries (SNIPPETS.md
// Snippet 1): per-shard rank windows add, since shards hold disjoint slices
// of the answer set, and COMPRESS keeps the entry count bounded. The
// certified bound of the merged summary is computed from the merged windows,
// so the eps/h error growth of tree-shaped merges is tracked implicitly —
// the bound *is* the budget, there is no separate accounting to trust.

import (
	"slices"
	"sort"

	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
)

// Entry is one rank anchor: a concrete answer (weight + values) with the
// certified rank window described in the file comment.
type Entry struct {
	// Weight is the anchor's ranking weight λ.
	Weight ranking.Weightv
	// Values is a representative answer that carried λ when the anchor was
	// built. After deltas the representative may have left the database;
	// the rank window stays certified for the weight regardless.
	Values []relation.Value
	// RMin is a certified lower bound: leq(λ) ≥ RMin + 1.
	RMin counting.Count
	// RMax is a certified upper bound: less(λ) ≤ RMax.
	RMax counting.Count
}

// MaxEntries is the COMPRESS target: summaries never hold more entries.
// 80 comfortably fits the default 1/32-resolution grid (33 anchors) and a
// few shards' worth of merged candidates while keeping the bound's quadratic
// envelope scan cheap.
const MaxEntries = 80

// Summary is a mergeable quantile summary over one answer multiset (one
// engine's, one shard's, or — after Merge — the union's). Entries are
// strictly ascending by weight. A Summary is immutable after construction;
// concurrent readers need no locking.
type Summary struct {
	// Entries are the anchors, strictly ascending by weight.
	Entries []Entry
	// N is the size of the answer multiset the windows are certified
	// against.
	N counting.Count
	// Res is the grid resolution the summary was built at (the φ spacing of
	// its anchors); merged summaries carry the coarsest input resolution.
	Res float64
	// Lossy records whether any window was derived through ε-lossy trims
	// (intractable SUM rankings) rather than exact counts.
	Lossy bool
	// B is the certified bound: for every rank k ∈ [0, N−1] some entry
	// serves k with rank error ≤ B. Computed once at construction.
	B counting.Count
}

// errAt returns the certified rank error of serving e for target rank k:
// max(RMax − k, k − RMin, 0), with underflow-guarded 128-bit arithmetic.
func errAt(e *Entry, k counting.Count) counting.Count {
	var err counting.Count
	if k.Less(e.RMax) {
		err = e.RMax.Sub(k)
	}
	if e.RMin.Less(k) {
		if d := k.Sub(e.RMin); err.Less(d) {
			err = d
		}
	}
	return err
}

// New assembles a summary from anchors: entries are sorted by (weight,
// values), equal-weight anchors have their windows intersected, windows are
// tightened using weight monotonicity, the entry list is compressed to
// MaxEntries, and the certified bound is computed. cmp is the ranking
// function's total order on weights.
func New(entries []Entry, n counting.Count, res float64, lossy bool, cmp func(a, b ranking.Weightv) int) *Summary {
	entries = append([]Entry(nil), entries...)
	sort.SliceStable(entries, func(i, j int) bool {
		if c := cmp(entries[i].Weight, entries[j].Weight); c != 0 {
			return c < 0
		}
		return slices.Compare(entries[i].Values, entries[j].Values) < 0
	})
	// Equal weights certify the same less/leq quantities: intersecting the
	// windows (max RMin, min RMax) is sound and tightest. The lex-smallest
	// representative survives, keeping construction deterministic.
	out := entries[:0]
	for _, e := range entries {
		if len(out) > 0 && cmp(out[len(out)-1].Weight, e.Weight) == 0 {
			last := &out[len(out)-1]
			last.RMin = counting.Max(last.RMin, e.RMin)
			last.RMax = counting.Min(last.RMax, e.RMax)
			continue
		}
		out = append(out, e)
	}
	// Monotone tightening: with strictly increasing weights, less and leq
	// are nondecreasing, so RMin may be raised to the best lower bound seen
	// so far and RMax lowered to the best upper bound still ahead.
	for i := 1; i < len(out); i++ {
		out[i].RMin = counting.Max(out[i].RMin, out[i-1].RMin)
	}
	for i := len(out) - 2; i >= 0; i-- {
		out[i].RMax = counting.Min(out[i].RMax, out[i+1].RMax)
	}
	out = Compress(out, MaxEntries)
	s := &Summary{Entries: out, N: n, Res: res, Lossy: lossy}
	s.B = s.envelopeMax()
	return s
}

// Compress is GK COMPRESS for anchor summaries: when entries exceed max it
// keeps the first and last anchors and evenly spaced interior ones. Dropping
// anchors only widens the gaps the certified bound accounts for — soundness
// is untouched.
func Compress(entries []Entry, max int) []Entry {
	if len(entries) <= max || max < 2 {
		return entries
	}
	out := make([]Entry, 0, max)
	prev := -1
	for i := 0; i < max; i++ {
		idx := i * (len(entries) - 1) / (max - 1)
		if idx == prev {
			continue
		}
		out = append(out, entries[idx])
		prev = idx
	}
	return out
}

// Query returns the entry serving target rank k with the smallest certified
// error, and that error. ok is false on an empty summary.
func (s *Summary) Query(k counting.Count) (e Entry, errAbs counting.Count, ok bool) {
	if s == nil || len(s.Entries) == 0 {
		return Entry{}, counting.Count{}, false
	}
	best, bestErr := 0, errAt(&s.Entries[0], k)
	for i := 1; i < len(s.Entries); i++ {
		if e := errAt(&s.Entries[i], k); e.Less(bestErr) {
			best, bestErr = i, e
		}
	}
	return s.Entries[best], bestErr, true
}

// envelopeMax computes max over k ∈ [0, N−1] of min over entries of
// errAt(e, k) — the worst certified error any rank can be served with. Each
// errAt(e, ·) is V-shaped in k (slopes −1, 0, +1), so their pointwise min
// peaks only at a domain endpoint or where one entry's ascending branch
// (k − RMin_i) meets another's descending branch (RMax_j − k), i.e. next to
// k = (RMin_i + RMax_j)/2. New has made RMin and RMax nondecreasing along
// the entries, and then a peak between i and a later j is also one between
// neighbours: an entry m between them has RMin_i ≤ RMin_m and
// RMax_m ≤ RMax_j, so at the crossing it errs no more than the peak, and
// being part of the min no less — it shares one of the two branches and can
// stand in for that end. Evaluating the min at the endpoints and at the
// neighbour crossings is therefore exact, in O(entries²).
func (s *Summary) envelopeMax() counting.Count {
	if s.N.IsZero() {
		return counting.Count{}
	}
	if len(s.Entries) == 0 {
		return s.N
	}
	kMax := s.N.Sub(counting.FromUint64(1))
	eval := func(k counting.Count) counting.Count {
		if kMax.Less(k) {
			k = kMax
		}
		min := errAt(&s.Entries[0], k)
		for i := 1; i < len(s.Entries); i++ {
			if v := errAt(&s.Entries[i], k); v.Less(min) {
				min = v
			}
		}
		return min
	}
	worst := counting.Max(eval(counting.Count{}), eval(kMax))
	for i := 0; i+1 < len(s.Entries); i++ {
		mid := s.Entries[i].RMin.Add(s.Entries[i+1].RMax).Half()
		worst = counting.Max(worst, eval(mid))
		worst = counting.Max(worst, eval(mid.AddUint64(1)))
	}
	return worst
}

// Merge combines per-shard summaries into one summary over the union of
// their answer multisets — the GK MERGE step. Every input anchor becomes a
// candidate; for candidate λ and each part s the windows give
//
//	leq_s(λ) ≥ L_s := RMin_j + 1  for the largest anchor j of s with
//	                  weight_j ⪯ λ (0 when none), and
//	less_s(λ) ≤ U_s := RMax_j     for the smallest anchor j of s with
//	                  λ ⪯ weight_j (N_s when none),
//
// and because shards partition the answer set the bounds add:
// RMin = Σ L_s − 1, RMax = Σ U_s. New then tightens, compresses and
// certifies the result.
func Merge(parts []*Summary, cmp func(a, b ranking.Weightv) int) *Summary {
	var n counting.Count
	res := 0.0
	lossy := false
	total := 0
	for _, p := range parts {
		if p == nil {
			continue
		}
		n = n.Add(p.N)
		if p.Res > res {
			res = p.Res
		}
		lossy = lossy || p.Lossy
		total += len(p.Entries)
	}
	cands := make([]Entry, 0, total)
	for _, p := range parts {
		if p != nil {
			cands = append(cands, p.Entries...)
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if c := cmp(cands[i].Weight, cands[j].Weight); c != 0 {
			return c < 0
		}
		return slices.Compare(cands[i].Values, cands[j].Values) < 0
	})
	merged := make([]Entry, 0, len(cands))
	for ci, cand := range cands {
		if ci > 0 && cmp(cands[ci-1].Weight, cand.Weight) == 0 {
			continue // equal weights merge to identical windows
		}
		var sumL, sumU counting.Count
		for _, p := range parts {
			if p == nil {
				continue
			}
			// Rightmost anchor with weight ⪯ λ.
			lo := sort.Search(len(p.Entries), func(i int) bool {
				return cmp(p.Entries[i].Weight, cand.Weight) > 0
			})
			if lo > 0 {
				sumL = sumL.Add(p.Entries[lo-1].RMin.AddUint64(1))
			}
			// Leftmost anchor with weight ⪰ λ.
			hi := sort.Search(len(p.Entries), func(i int) bool {
				return cmp(p.Entries[i].Weight, cand.Weight) >= 0
			})
			if hi < len(p.Entries) {
				sumU = sumU.Add(p.Entries[hi].RMax)
			} else {
				sumU = sumU.Add(p.N)
			}
		}
		if sumL.IsZero() {
			continue // cannot certify leq ≥ 1 for this candidate
		}
		merged = append(merged, Entry{
			Weight: cand.Weight,
			Values: cand.Values,
			RMin:   sumL.Sub(counting.FromUint64(1)),
			RMax:   sumU,
		})
	}
	return New(merged, n, res, lossy, cmp)
}
