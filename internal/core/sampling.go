package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
)

// SampleQuantile implements the randomized approximation of Section 3.1:
// build the linear-time direct-access structure, draw uniform answer samples,
// and take the φ-quantile of the sample; repeating O(log 1/δ) rounds and
// returning the median of the estimates gives a (φ±ε)-quantile with
// probability at least 1-δ (Hoeffding plus a Chernoff majority argument).
//
// Per round, m = ⌈ln(8)/(2ε²)⌉ samples bound the per-round failure
// probability by 1/4; r = 2⌈4·ln(1/δ)⌉+1 rounds drive the majority failure
// below δ. The direct-access structure is built lazily on the engine and
// shared, so repeated sampling queries pay only for their samples.
func SampleQuantile(eng *engine.Engine, f *ranking.Func, phi, eps, delta float64, rng *rand.Rand) (*Answer, error) {
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("core: ε must be in (0,1), got %v", eps)
	}
	if delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("core: δ must be in (0,1), got %v", delta)
	}
	if err := f.Validate(eng.Source()); err != nil {
		return nil, err
	}
	q := eng.Query()
	origVars := eng.Vars()

	d := eng.Access()
	if d.N().IsZero() {
		return nil, ErrNoAnswers
	}

	m := int(math.Ceil(math.Log(8) / (2 * eps * eps)))
	if m < 1 {
		m = 1
	}
	r := 2*int(math.Ceil(4*math.Log(1/delta))) + 1
	if r < 1 {
		r = 1
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
