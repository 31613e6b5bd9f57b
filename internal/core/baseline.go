package core

import (
	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/selection"
	"github.com/quantilejoins/qjoin/internal/yannakakis"
)

// BaselineQuantile is the direct method the paper's introduction argues
// against: materialize Q(D) with Yannakakis, then select the k-th answer by
// weight with worst-case-linear selection. Time and memory are linear in
// |Q(D)|, which can be Ω(|D|^ℓ) — this is the comparator for every benchmark.
// Materialization pays Θ(|Q(D)|) per call, deliberately, but reuses the
// engine's executable tree.
func BaselineQuantile(eng *engine.Engine, f *ranking.Func, phi float64) (*Answer, error) {
	if err := f.Validate(eng.Source()); err != nil {
		return nil, err
	}
	origVars := eng.Vars()
	fromVars := eng.Query().Vars()
	var answers [][]relation.Value
	yannakakis.Enumerate(eng.Exec(), eng.Counts(), func(asn []relation.Value) bool {
		answers = append(answers, projectAnswer(fromVars, asn, origVars))
		return true
	})
	if len(answers) == 0 {
		return nil, ErrNoAnswers
	}
	aw := ranking.NewAnswerWeigher(f, origVars)
	weights := make([]ranking.Weightv, len(answers))
	for i, a := range answers {
		weights[i] = aw.WeightOf(a)
	}
	k := Index(counting.FromInt(len(answers)), phi)
	ki, _ := k.Uint64()
	idx := selection.NewIndex(len(answers))
	sel := selection.Nth(idx, int(ki), func(a, b int) bool {
		if c := f.Compare(weights[a], weights[b]); c != 0 {
			return c < 0
		}
		x, y := answers[a], answers[b]
		for p := range x {
			if x[p] != y[p] {
				return x[p] < y[p]
			}
		}
		return false
	})
	return &Answer{Vars: origVars, Values: answers[sel], Weight: weights[sel]}, nil
}
