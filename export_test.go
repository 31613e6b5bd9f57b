package qjoin

import (
	"reflect"

	"github.com/quantilejoins/qjoin/internal/core"
	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/sketch"
)

// Engines shows the external tests the plan's engine vector.
func Engines(p *Prepared) []*engine.Engine { return p.sh.Engines() }

// SketchState shows the external tests a ranking's sketch entry as the plan
// holds it: the per-engine parts, their merge, which parts are stale, and
// each stale part's pending deltas (nil: its next refresh is the full pass).
func SketchState(p *Prepared, f *Ranking) (parts []*sketch.Summary, merged *sketch.Summary, stale []bool, pending [][]*core.AnswerDelta) {
	p.skMu.Lock()
	defer p.skMu.Unlock()
	e := p.sketches[f.Key()]
	if e == nil {
		return nil, nil, nil, nil
	}
	return e.parts, e.merged, e.stale, e.pending
}

// TrimPreps peeks at how many SUM trim preparations the plan's engines hold
// in their trim caches (only the length of the cache's unexported map is read).
func TrimPreps(p *Prepared) int {
	n := 0
	for _, eng := range p.sh.Engines() {
		n += reflect.ValueOf(eng.TrimCache()).Elem().FieldByName("sumAdj").Len()
	}
	return n
}
