package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
)

// MaxSamples caps the answers one SampleQuantile call draws, m·r below. At
// δ = 0.1 (r = 21 rounds) it admits ε down to ≈ 0.0023; a smaller ε asks for
// more samples than an in-memory estimate should hold — the sample of a round
// is m answers at once — and the sketch and exact tiers answer it better.
const MaxSamples = 1 << 22

// ErrTooManySamples is SampleQuantile's error for an (ε, δ) that needs more
// than MaxSamples samples.
var ErrTooManySamples = errors.New("core: too many samples")

// SampleQuantile implements the randomized approximation of Section 3.1:
// build the linear-time direct-access index, draw uniform answer samples,
// and take the φ-quantile of the sample; repeating O(log 1/δ) rounds and
// returning the median of the estimates gives a (φ±ε)-quantile with
// probability at least 1-δ (Hoeffding plus a Chernoff majority argument).
//
// Per round, m = ⌈ln(8)/(2ε²)⌉ samples bound the per-round failure
// probability by 1/4; r = 2⌈4·ln(1/δ)⌉+1 rounds drive the majority failure
// below δ. Both are computed in float64, where a tiny ε cannot wrap, and m·r
// beyond MaxSamples fails with ErrTooManySamples before anything is built.
// The direct-access index is built lazily on the engine and shared, so
// repeated sampling queries pay only for their samples.
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
	q := eng.Query()
	origVars := eng.Vars()

	d := eng.Access()
	if d.N().IsZero() {
		return nil, ErrNoAnswers
	}

	fromVars := q.Vars()
	aw := ranking.NewAnswerWeigher(f, origVars)
	estimates := make([][]relation.Value, 0, r)
	buf := make([]relation.Value, len(fromVars))
	for round := 0; round < r; round++ {
		sample := make([][]relation.Value, m)
		for i := 0; i < m; i++ {
			d.Sample(rng, buf)
			sample[i] = projectAnswer(fromVars, buf, origVars)
		}
		sortByWeight(sample, f, aw)
		pos := int(math.Floor(phi * float64(m)))
		if pos >= m {
			pos = m - 1
		}
		estimates = append(estimates, sample[pos])
	}
	sortByWeight(estimates, f, aw)
	med := estimates[len(estimates)/2]
	return &Answer{Vars: origVars, Values: med, Weight: aw.WeightOf(med)}, nil
}

func sortByWeight(answers [][]relation.Value, f *ranking.Func, aw *ranking.AnswerWeigher) {
	sort.Slice(answers, func(i, j int) bool {
		c := f.Compare(aw.WeightOf(answers[i]), aw.WeightOf(answers[j]))
		if c != 0 {
			return c < 0
		}
		a, b := answers[i], answers[j]
		for p := range a {
			if a[p] != b[p] {
				return a[p] < b[p]
			}
		}
		return false
	})
}
