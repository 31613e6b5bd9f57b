package core

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"

	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/selection"
	"github.com/quantilejoins/qjoin/internal/yannakakis"
)

// MaxSamples caps the answers one SampleQuantile call draws, m·r below. At
// δ = 0.1 (r = 21 rounds) it admits ε down to ≈ 0.0023; a smaller ε asks for
// more samples than an in-memory estimate should hold — the sample of a round
// is m answers at once — and the sketch and exact tiers answer it better.
const MaxSamples = 1 << 22

// sampleBatch bounds the draws SampleQuantile decodes in one AnswersAt call,
// in whole rounds (at least one). A call passes over the root's counts once,
// so rounds decoded together share that pass: at ε = 0.05 (m = 416) all of a
// call's rounds share one, at ε = 0.01 (m = 10 398) six rounds do.
const sampleBatch = 1 << 16

// ErrTooManySamples is SampleQuantile's error for an (ε, δ) that needs more
// than MaxSamples samples.
var ErrTooManySamples = errors.New("core: too many samples")

// SampleQuantile implements the randomized approximation of Section 3.1:
// draw uniform answer samples — uniform ordinals decoded by the count-guided
// walk — and take the φ-quantile of the sample; repeating O(log 1/δ) rounds
// and returning the median of the estimates gives a (φ±ε)-quantile with
// probability at least 1-δ (Hoeffding plus a Chernoff majority argument).
//
// Per round, m = ⌈ln(8)/(2ε²)⌉ samples bound the per-round failure
// probability by 1/4; r = 2⌈4·ln(1/δ)⌉+1 rounds drive the majority failure
// below δ. Both are computed in float64, where a tiny ε cannot wrap, and m·r
// beyond MaxSamples fails with ErrTooManySamples before anything is drawn.
// The rounds are drawn in order and decoded in batches of whole rounds, at
// most sampleBatch draws each unless one round has more, each batch by one
// yannakakis.AnswersAt call over the engine's tree and counts —
// O(|D| + ℓ·n·log |D|) for n draws — and nothing is kept on the engine. A
// round's estimate is the answer at position ⌊φ·m⌋ of its sample in the
// (weight, values) order, selected in linear time as the pivot loop's tail
// selects; so is the median of the estimates. The answer is a function of the
// engine's answers and rng alone.
func SampleQuantile(eng *engine.Engine, f *ranking.Func, phi, eps, delta float64, rng *rand.Rand) (*Answer, error) {
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("core: ε must be in (0,1), got %v", eps)
	}
	if delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("core: δ must be in (0,1), got %v", delta)
	}
	mf := math.Ceil(math.Log(8) / (2 * eps * eps))
	rf := 2*math.Ceil(4*math.Log(1/delta)) + 1
	if mf*rf > MaxSamples {
		return nil, fmt.Errorf("%w: ε=%v and δ=%v ask for %.3g, the cap is %d", ErrTooManySamples, eps, delta, mf*rf, MaxSamples)
	}
	m, r := int(mf), int(rf)
	if err := f.Validate(eng.Source()); err != nil {
		return nil, err
	}
	if eng.Total().IsZero() {
		return nil, ErrNoAnswers
	}
	vars := eng.Vars()
	aw, w := ranking.NewAnswerWeigher(f, vars), len(vars)
	per := min(max(sampleBatch/m, 1), r) // rounds drawn and decoded together
	sample, estimates := make([]relation.Value, per*m*w), make([]relation.Value, r*w)
	for round := 0; round < r; round++ {
		if round%per == 0 {
			drawAnswers(eng, rng, sample[:min(per, r-round)*m*w])
		}
		one := sample[round%per*m*w:][:m*w]
		i := sampleAt(aw, f.VecLen(), one, w, min(int(math.Floor(phi*float64(m))), m-1))
		copy(estimates[round*w:], one[i*w:(i+1)*w])
	}
	i := sampleAt(aw, f.VecLen(), estimates, w, r/2)
	med := slices.Clone(estimates[i*w : (i+1)*w])
	return &Answer{Vars: vars, Values: med, Weight: aw.WeightOf(med), Source: SourceSample, ErrorBound: eps}, nil
}

// SampleAnswers draws k uniform answers of eng, with replacement: the
// variable layout and one row per draw, in draw order. The k draws are
// decoded in one AnswersAt call, O(|D| + ℓ·k·log |D|): nothing is kept on
// the engine, so each call pays the pass over the root's counts again.
func SampleAnswers(eng *engine.Engine, k int, rng *rand.Rand) ([]query.Var, [][]relation.Value, error) {
	if eng.Total().IsZero() {
		return nil, nil, ErrNoAnswers
	}
	w := len(eng.Vars())
	flat := make([]relation.Value, k*w)
	drawAnswers(eng, rng, flat)
	rows := make([][]relation.Value, k)
	for i := range rows {
		rows[i] = flat[i*w : (i+1)*w : (i+1)*w]
	}
	return eng.Vars(), rows, nil
}

// drawAnswers fills dst with len(dst)/w uniform answers of eng, w = the
// width of eng.Vars(), in draw order. A draw is an ordinal below |Q(D)| —
// rng.Int63n up to 2⁶², big.Int.Rand above — and the draws are decoded
// together, in ascending order, by one AnswersAt call.
func drawAnswers(eng *engine.Engine, rng *rand.Rand, dst []relation.Value) {
	n, w := eng.Total(), len(eng.Vars())
	ords := make([]counting.Count, len(dst)/w)
	lo, small := n.Uint64()
	small = small && lo <= 1<<62
	for i := range ords {
		if small {
			ords[i] = counting.FromUint64(uint64(rng.Int63n(int64(lo))))
		} else {
			ords[i], _ = counting.FromBig(new(big.Int).Rand(rng, n.Big()))
		}
	}
	perm := make([]int, len(ords)) // perm[i]: the draw that is i-th in ascending order
	for i := range perm {
		perm[i] = i
	}
	slices.SortFunc(perm, func(a, b int) int { return ords[a].Cmp(ords[b]) })
	sorted := make([]counting.Count, len(ords))
	for i, p := range perm {
		sorted[i] = ords[p]
	}
	at := eng.Pos()
	yannakakis.AnswersAt(eng.Exec(), eng.Counts(), sorted, func(i int, asn []relation.Value) {
		row := dst[perm[i]*w:]
		for j, p := range at {
			row[j] = asn[p]
		}
	})
}

// sampleAt returns the index, in a flat list of answers w values each, of
// the answer at position k of the (weight, values) order, as the pivot
// loop's tail selects: the weights in the pivot pass's flat layout (r
// positions for LEX, one number otherwise), the weight class holding k among
// them, and the answer inside it by value.
func sampleAt(aw *ranking.AnswerWeigher, r int, answers []relation.Value, w, k int) int {
	n, stride := len(answers)/w, max(r, 1)
	ws, es := make([]int64, n*stride), make([]selection.Entry, n)
	for i := range es {
		if wt := aw.WeightInto(ws[i*stride:(i+1)*stride], answers[i*w:(i+1)*w]); r == 0 {
			ws[i] = wt.K
		}
		es[i] = selection.Entry{Key: ws[i*stride], Item: i}
	}
	lo, hi := selection.SelectClass(es, selection.Vectors{At: ws, R: r}, counting.FromInt(k))
	class := es[lo:hi]
	for j := range class {
		class[j].Key = answers[class[j].Item*w]
	}
	j, _ := selection.SelectClass(class, selection.Vectors{At: answers, R: w}, counting.FromInt(k-lo))
	return class[j].Item
}
