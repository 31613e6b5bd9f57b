package core

import (
	"slices"

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
// engine's executable tree, and costs no more than it has to: the answers are
// projected into one flat backing, weighed into one flat array, and selected
// among with the driver's kernel.
func BaselineQuantile(eng *engine.Engine, f *ranking.Func, phi float64) (*Answer, error) {
	if err := f.Validate(eng.Source()); err != nil {
		return nil, err
	}
	origVars := eng.Vars()
	w := len(origVars)
	proj := projection(eng.Query().Vars(), origVars)
	var flat []relation.Value // the answers, w values each
	yannakakis.Enumerate(eng.Exec(), eng.Counts(), func(asn []relation.Value) bool {
		for _, p := range proj {
			flat = append(flat, asn[p])
		}
		return true
	})
	n := len(flat) / w
	if n == 0 {
		return nil, ErrNoAnswers
	}
	aw := ranking.NewAnswerWeigher(f, origVars)
	r := f.VecLen()
	stride := max(r, 1)
	ws := make([]int64, n*stride)
	es := make([]selection.Entry, n)
	for i := range es {
		row := flat[i*w : (i+1)*w]
		if r > 0 {
			aw.WeightInto(ws[i*r:(i+1)*r], row)
		} else {
			ws[i] = aw.WeightOf(row).K
		}
		es[i] = selection.Entry{Key: ws[i*stride], Item: i}
	}
	k := Index(counting.FromInt(n), phi)
	lo, hi := selection.SelectClass(es, selection.Vectors{At: ws, R: r}, k)
	// Inside the weight class, the member at the rank left over in value order:
	// the same selection, the class's entries keyed by their answers.
	class := es[lo:hi]
	for i := range class {
		class[i].Key = flat[class[i].Item*w]
	}
	at, _ := selection.SelectClass(class, selection.Vectors{At: flat, R: w}, k.Sub(counting.FromInt(lo)))
	sel := class[at].Item
	return &Answer{Vars: origVars, Values: slices.Clone(flat[sel*w : (sel+1)*w]), Weight: weightOf(ws[sel*stride:(sel+1)*stride], r)}, nil
}
