package qjoin

// Approximate-first serving: the unified mode-aware query surface.
//
// Plan.Answer collapses the quantile-family entry points (Quantile /
// ApproxQuantile / SampleQuantile / QuantileStats) into one request struct
// with an explicit Mode, and adds the sketch tier: a mergeable rank-anchor
// summary (internal/sketch.Summary) built lazily per ranking function from
// the plan's engines, kept current across Update, and merged across shards on
// demand. Update lists once, for all rankings, the answers each changed engine
// gained and lost — walking outward from the changed rows — and a stale part
// is re-certified by shifting every anchor's rank window by the listed
// answers below it (core.ShiftSummary): work proportional to the delta. The
// full pass, two trim-and-count passes over the instance per anchor
// (core.RefreshSummary), runs only where the shift has no input: a part's
// first refresh after a build or a restore, an engine behind a hypertree
// decomposition, and a delta listing more answers than the engine has tuples.
// The code picks between them from what it observes. mode=approx answers
// from the summary in O(entries) without touching the pivot loop; mode=auto
// serves from the summary only when the requested ε is certified and falls
// back to the exact engine — byte-identical to the legacy path — otherwise.
//
// Summaries are keyed by the ranking's identity (Ranking.Key, the same key as
// the engine's trim cache): two rankings with the same aggregate over the same
// variables share one summary however they were built — parsed per request,
// restored from a snapshot, carried across Update — and a ranking with a
// custom Weight function is its own key.

import (
	"maps"
	"math/rand"
	"slices"

	"github.com/quantilejoins/qjoin/internal/core"
	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/sketch"
)

// Mode selects the answering tier of Plan.Answer.
type Mode int

const (
	// ModeAuto (the zero value) is the two-tier planner: with Eps = 0 it is
	// exact; with Eps > 0 it serves from the sketch when the sketch
	// certifies a rank error within Eps·|Q(D)| for the requested rank, and
	// falls back to the exact engine (with the same Eps, for intractable
	// SUM) otherwise.
	ModeAuto Mode = iota
	// ModeExact forces the exact pivot-loop engine (with Eps > 0 this is
	// the deterministic (φ±ε) engine path for intractable SUM — the legacy
	// ApproxQuantile behavior).
	ModeExact
	// ModeApprox always answers from the sketch summary, building it at
	// resolution min(DefaultSketchEps, Eps/2) if needed, and reports the
	// achieved certified bound. It never needs Eps, even for intractable
	// SUM.
	ModeApprox
	// ModeSample uses the randomized sampling estimator of Section 3.1
	// (requires Eps, Delta and ideally a caller-supplied Rand; unrouted
	// plans only).
	ModeSample
)

// String names the mode as the wire protocol spells it.
func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeExact:
		return "exact"
	case ModeApprox:
		return "approx"
	case ModeSample:
		return "sample"
	}
	return "invalid"
}

// QuantileRequest is the unified quantile request of Plan.Answer.
type QuantileRequest struct {
	// Phi is the quantile fraction in [0, 1].
	Phi float64
	// Eps is the rank-error budget as a fraction of |Q(D)|. 0 means exact.
	Eps float64
	// Delta is the failure probability for ModeSample.
	Delta float64
	// Mode selects the answering tier; the zero value is ModeAuto.
	Mode Mode
	// Rand is the random generator for ModeSample. When nil a fixed-seed
	// generator is used, making the call deterministic but correlated
	// across calls; supply one per goroutine for real randomization.
	Rand *rand.Rand
}

// Answer sources, reported in Answer.Source.
const (
	SourceExact  = core.SourceExact
	SourceSketch = core.SourceSketch
	SourceSample = core.SourceSample
)

// DefaultSketchEps is the anchor-grid resolution sketch summaries are built
// at unless a ModeApprox request asks for finer (see core.DefaultSketchEps).
const DefaultSketchEps = core.DefaultSketchEps

// sketchEntry is one ranking's sketch state: one summary per engine of the
// plan's vector and the cached merge they answer through. Entries are
// immutable once stored.
type sketchEntry struct {
	f     *Ranking // a ranking with the entry's key, for refreshes and snapshots
	parts []*sketch.Summary
	// stale[i] marks a part carried across an Update that changed engine i's
	// answers: its anchors still hold the pre-delta windows and must be
	// re-certified before serving. Parts of engines whose answers a delta
	// left alone carry over with no work — the point of per-engine
	// summaries. nil when every part is current.
	stale []bool
	// class[i] marks a part whose windows are its anchors' class windows —
	// it has been through a refresh — which is what a shift starts from. A
	// part fresh from BuildSummary or a snapshot is not, and its first
	// refresh is the full pass. nil when no part is.
	class []bool
	// pending[i] lists, for a stale part, what engine i gained and lost
	// since the part was certified: one delta per Update not yet absorbed,
	// each shared by pointer with every other ranking's entry. nil on a
	// stale part means the shift has no input and the full pass runs.
	// Consuming the list — storing the re-certified entry — releases it.
	pending [][]*core.AnswerDelta
	merged  *sketch.Summary // parts[0] itself on a one-engine plan
	res     float64         // the resolution the parts were built at
}

// shiftable reports whether part i could absorb one more delta by shifting:
// its windows are class windows, and if it is already stale the deltas it
// missed are all on its pending list.
func (e *sketchEntry) shiftable(i int) bool {
	return e.class != nil && e.class[i] && (e.stale == nil || !e.stale[i] || e.pending[i] != nil)
}

// SketchRefreshStats counts how a plan brought stale summary parts up to date
// (one count per part and refresh; see WarmSketches).
type SketchRefreshStats struct {
	// Shifted parts moved their windows by the delta's answers.
	Shifted int64 `json:"shifted"`
	// Recertified parts took the full pass over the instance.
	Recertified int64 `json:"recertified"`
	// Rebuilt parts lost every anchor and were built anew.
	Rebuilt int64 `json:"rebuilt"`
}

// SketchRefreshes reports the refreshes this plan has performed since Update
// derived it (or Prepare compiled it).
func (p *Prepared) SketchRefreshes() SketchRefreshStats {
	return SketchRefreshStats{
		Shifted:     p.shifted.Load(),
		Recertified: p.recertified.Load(),
		Rebuilt:     p.rebuilt.Load(),
	}
}

// fresh reports whether every part is certified against the plan's current
// engines, i.e. merged may be served.
func (e *sketchEntry) fresh() bool {
	for _, st := range e.stale {
		if st {
			return false
		}
	}
	return true
}

// resCovers reports whether a summary built at resolution have serves a
// request for resolution want (finer-or-equal, with float slack).
func resCovers(have, want float64) bool { return have <= want*(1+1e-9) }

// Answer is the unified quantile entry point: one request struct selects the
// tier (exact engine, sketch summary, or sampling), and the answer reports
// the tier that produced it (Source) with a certified rank-error bound
// (ErrorBound). See Mode for the per-mode contracts.
func (p *Prepared) Answer(f *Ranking, req QuantileRequest, opts ...Options) (*Answer, error) {
	a, _, err := p.AnswerStats(f, req, opts...)
	return a, err
}

// validate checks the request once, before any tier runs: a known mode, φ in
// [0,1], and an ε that is either 0 ("exact", or the default sketch
// resolution under ModeApprox) or a valid approximation error. The sampling
// tier checks its own stricter ε and δ domains.
func (req QuantileRequest) validate() error {
	if req.Mode < ModeAuto || req.Mode > ModeSample {
		return argErrorf("mode", "unknown mode %d", int(req.Mode))
	}
	if err := validatePhi(req.Phi); err != nil {
		return err
	}
	if req.Eps != 0 {
		return ValidateEpsilon(req.Eps)
	}
	return nil
}

// AnswerStats is Answer returning the run statistics of the exact engine
// when it ran; sketch and sample answers carry nil stats (no pivot loop ran).
func (p *Prepared) AnswerStats(f *Ranking, req QuantileRequest, opts ...Options) (*Answer, *RunStats, error) {
	if err := req.validate(); err != nil {
		return nil, nil, err
	}
	o := p.opt(opts)
	switch {
	case req.Mode == ModeSample:
		a, err := p.SampleQuantile(f, req.Phi, req.Eps, req.Delta, sampleRand(req))
		return a, nil, err
	case req.Mode == ModeApprox:
		sum, err := p.summaryFor(f, approxRes(req.Eps), o)
		if err != nil {
			return nil, nil, err
		}
		a, err := sketchAnswer(sum, p.Vars(), req.Phi)
		return a, nil, err
	case req.Mode == ModeAuto && req.Eps > 0:
		sum, err := p.autoSummary(f, req.Eps, o)
		if err != nil {
			return nil, nil, err
		}
		if a := serveWithin(sum, p.Vars(), req.Phi, req.Eps); a != nil {
			return a, nil, nil
		}
	}
	return exactAnswer(p.sh.Engines(), f, req, o)
}

// WarmSketches re-certifies every summary part that went stale through
// Update and re-merges (and touches no others — rankings never queried
// approximately, and parts of engines whose answers the deltas left alone,
// cost nothing). A part shifts by its pending deltas when it can and takes
// the full pass otherwise (see the file comment); SketchRefreshes counts
// which. The serving layer calls this during plan-cache migration so
// post-delta sketch queries stay O(entries) cache hits.
func (p *Prepared) WarmSketches() error {
	p.skMu.Lock()
	var stale []*sketchEntry
	for _, e := range p.sketches {
		if !e.fresh() {
			stale = append(stale, e)
		}
	}
	p.skMu.Unlock()
	for _, e := range stale {
		if _, err := p.summaryFor(e.f, e.res, p.opts); err != nil {
			return err
		}
	}
	return nil
}

// summaryFor returns the plan's merged summary for f at resolution res (or
// finer), building, re-certifying and re-merging only the parts that are
// missing or stale, and caching the result.
func (p *Prepared) summaryFor(f *Ranking, res float64, o Options) (*sketch.Summary, error) {
	key := f.Key()
	p.skMu.Lock()
	e := p.sketches[key]
	p.skMu.Unlock()
	reuse := e != nil && resCovers(e.res, res)
	if reuse && e.fresh() {
		return e.merged, nil
	}
	if reuse {
		res = e.res // re-certify at the old (possibly finer) resolution
	}
	engs := p.sh.Engines()
	parts := make([]*sketch.Summary, len(engs))
	class := make([]bool, len(engs))
	for i, eng := range engs {
		var err error
		switch {
		case reuse && !e.stale[i]:
			// The delta left this engine's answers alone: the part carries over.
			parts[i], class[i] = e.parts[i], e.class != nil && e.class[i]
		case reuse:
			if parts[i], err = p.refreshPart(eng, f, e, i, o); err != nil {
				return nil, err
			}
			if class[i] = parts[i] != nil; !class[i] { // every anchor died: rebuild from scratch
				p.rebuilt.Add(1)
				parts[i], err = core.BuildSummary(eng, f, res, o)
			}
		default:
			parts[i], err = core.BuildSummary(eng, f, res, o)
		}
		if err != nil {
			return nil, err
		}
	}
	merged := parts[0]
	if len(parts) > 1 {
		merged = sketch.Merge(parts, f.Compare)
	}
	p.skMu.Lock()
	if p.sketches == nil {
		p.sketches = make(map[ranking.Key]*sketchEntry)
	}
	// Racing builds store equivalent summaries; keep the finest fresh one.
	if cur := p.sketches[key]; cur == nil || !cur.fresh() || resCovers(res, cur.res) {
		p.sketches[key] = &sketchEntry{f: f, parts: parts, class: class, merged: merged, res: res}
	}
	p.skMu.Unlock()
	return merged, nil
}

// refreshPart re-certifies stale part i of e against eng: by shifting its
// windows when the part has its pending deltas, by the full pass otherwise.
// A nil summary means no anchor survived.
func (p *Prepared) refreshPart(eng *engine.Engine, f *Ranking, e *sketchEntry, i int, o Options) (*sketch.Summary, error) {
	if e.pending[i] != nil {
		p.shifted.Add(1)
		return core.ShiftSummary(eng, f, e.parts[i], e.pending[i]), nil
	}
	p.recertified.Add(1)
	return core.RefreshSummary(eng, f, e.parts[i], o)
}

// autoSummary is the summary ModeAuto may serve from: any already-built
// summary (re-certified if stale), or a fresh default-resolution build when
// the requested ε is loose enough that the default grid can plausibly
// certify it. ModeAuto never builds finer than DefaultSketchEps — tighter
// requests belong to the exact tier (or an explicit ModeApprox).
func (p *Prepared) autoSummary(f *Ranking, eps float64, o Options) (*sketch.Summary, error) {
	p.skMu.Lock()
	e := p.sketches[f.Key()]
	p.skMu.Unlock()
	if e == nil && eps < core.DefaultSketchEps {
		return nil, nil
	}
	res := core.DefaultSketchEps
	if e != nil {
		res = e.res
	}
	return p.summaryFor(f, res, o)
}

// carrySketches builds the derived plan's summary map on Update: the same
// parts, those whose engine's answers the delta changed (engs is the derived
// vector, changes what each derivation reported) marked stale so the first
// post-delta use (or WarmSketches) re-certifies exactly them. A derivation
// that changed no answer — a multiplicity-only delta, rows of a relation the
// query never reads — leaves its part as fresh as it was.
//
// For each changed engine that some part could shift over, the answers it
// gained and lost are listed once and appended, by pointer, to that part's
// pending list in every ranking's entry. A part stops being shiftable — nil
// pending list, full pass at its next refresh — when the derivation has no
// row-level record or its chain of unabsorbed deltas outgrows the engine's
// tuple count. Staleness and pending lists hold answers, never engines, so a
// carried entry never keeps a previous generation's engines alive; a plan
// that carries no summary pays nothing here.
func (p *Prepared) carrySketches(engs []*engine.Engine, changes []engine.Change) map[ranking.Key]*sketchEntry {
	old := p.sh.Engines()
	p.skMu.Lock()
	carried := maps.Clone(p.sketches) // entries are immutable: list the answers unlocked
	p.skMu.Unlock()
	if !slices.ContainsFunc(changes, engine.Change.AnswersChanged) {
		return carried // nothing moved: the derived plan shares the entries as they are
	}
	m := make(map[ranking.Key]*sketchEntry, len(carried))
	for key, e := range carried {
		c := &sketchEntry{f: e.f, parts: e.parts, class: e.class, merged: e.merged, res: e.res,
			stale: make([]bool, len(engs)), pending: make([][]*core.AnswerDelta, len(engs))}
		if e.stale != nil {
			copy(c.stale, e.stale)
			copy(c.pending, e.pending)
		}
		m[key] = c
	}
	for i, ch := range changes {
		if !ch.AnswersChanged() {
			continue
		}
		budget := engs[i].DB().Size()
		var delta *core.AnswerDelta
		for _, e := range carried {
			if e.shiftable(i) {
				delta = core.DeltaAnswers(old[i], engs[i], ch, budget)
				break
			}
		}
		for key, e := range carried {
			c := m[key]
			c.stale[i] = true
			if held := c.pending[i]; delta != nil && e.shiftable(i) && pendingLen(held)+delta.Len() <= budget {
				c.pending[i] = append(held[:len(held):len(held)], delta)
			} else {
				c.pending[i] = nil
			}
		}
	}
	return m
}

// pendingLen is the number of answers a pending list holds.
func pendingLen(deltas []*core.AnswerDelta) int {
	n := 0
	for _, d := range deltas {
		n += d.Len()
	}
	return n
}

// approxRes is the build resolution for a ModeApprox request: the default
// grid, or twice as fine as the requested ε so the mid-gap certified error
// (~res/2 of the rank range per anchor gap) meets it.
func approxRes(eps float64) float64 {
	if eps > 0 && eps/2 < core.DefaultSketchEps {
		return eps / 2
	}
	return core.DefaultSketchEps
}

// exactAnswer is the shared exact-tier body: the legacy engine path plus
// Source/ErrorBound tagging. req.Eps > 0 overrides the Options' Epsilon
// (the legacy ApproxQuantile contract); the reported bound is the effective
// ε when the run actually went through lossy trims, 0 otherwise.
func exactAnswer(engs []*engine.Engine, f *Ranking, req QuantileRequest, o Options) (*Answer, *RunStats, error) {
	if req.Eps > 0 {
		o.Epsilon = req.Eps
	}
	a, stats, err := core.Quantile(engs, f, req.Phi, o)
	if err != nil {
		return nil, stats, err
	}
	tagExact(a, stats, o)
	return a, stats, nil
}

// tagExact marks an answer of the exact tier: the bound is the run's ε when it
// went through lossy trims, 0 otherwise.
func tagExact(a *Answer, stats *RunStats, o Options) {
	a.Source = SourceExact
	if stats != nil && stats.Lossy {
		a.ErrorBound = o.Epsilon
	}
}

// sketchAnswer serves φ from a summary: the anchor with the smallest
// certified error for rank Index(N, φ), tagged with that bound.
func sketchAnswer(sum *sketch.Summary, vars []Var, phi float64) (*Answer, error) {
	if sum == nil || sum.N.IsZero() {
		return nil, ErrNoAnswers
	}
	k := core.Index(sum.N, phi)
	e, errAbs, ok := sum.Query(k)
	if !ok {
		return nil, ErrNoAnswers
	}
	return entryAnswer(sum, vars, e, errAbs), nil
}

// serveWithin is the ModeAuto certification check: it returns the sketch
// answer only when the anchor's certified rank error for the requested rank
// is within ⌊eps·N⌋, nil (fall back to exact) otherwise.
func serveWithin(sum *sketch.Summary, vars []Var, phi, eps float64) *Answer {
	if sum == nil || sum.N.IsZero() || len(sum.Entries) == 0 {
		return nil
	}
	k := core.Index(sum.N, phi)
	e, errAbs, ok := sum.Query(k)
	if !ok || counting.FloorMulFloat(sum.N, eps).Less(errAbs) {
		return nil
	}
	return entryAnswer(sum, vars, e, errAbs)
}

func entryAnswer(sum *sketch.Summary, vars []Var, e sketch.Entry, errAbs counting.Count) *Answer {
	w := e.Weight
	if len(w.Vec) > 0 {
		w.Vec = append([]int64(nil), w.Vec...)
	}
	bound := 0.0
	if !errAbs.IsZero() {
		bound = errAbs.Float64() / sum.N.Float64()
	}
	return &Answer{
		Vars:       vars,
		Values:     append([]Value(nil), e.Values...),
		Weight:     w,
		Source:     SourceSketch,
		ErrorBound: bound,
	}
}

// sampleRand resolves the request's generator (fixed seed when absent; see
// QuantileRequest.Rand).
func sampleRand(req QuantileRequest) *rand.Rand {
	if req.Rand != nil {
		return req.Rand
	}
	return rand.New(rand.NewSource(1))
}
