// Package core implements the divide-and-conquer quantile framework of
// Section 3 (Algorithm 1): pivot selection, partitioning by trimming, and
// partition counting, iterated until the desired index lands in the equal
// partition or the candidate set is small enough to materialize.
//
// One driver serves both the exact algorithms (Theorem 5.3 for MIN/MAX,
// Lemma 5.4 for LEX, Theorem 5.6 for tractable partial SUM) and the
// deterministic ε-approximation for arbitrary acyclic SUM (Theorem 6.2);
// ε = 0 selects exact trimmings. The randomized sampling approximation of
// Section 3.1 — uniform ordinals decoded by the count-guided walk, the
// decoder the pivot loop's tail recovers its answers with — and the
// materialize-and-select baseline the paper argues against live in
// sampling.go and baseline.go.
package core

import (
	"errors"
	"fmt"

	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
)

// Sentinel errors of the quantile drivers. ErrNoAnswers is produced at the
// preparation layer and re-exported here so that identity comparisons keep
// working across layers.
var (
	// ErrNoAnswers is returned when Q(D) is empty.
	ErrNoAnswers = engine.ErrNoAnswers
	// ErrIntractable is returned when an exact SUM quantile is requested for
	// a query on the negative side of the dichotomy of Theorem 5.6.
	ErrIntractable = errors.New("core: exact SUM quantile is intractable for this query " +
		"(Theorem 5.6); use an ε-approximation or the materialization baseline")
	// ErrTooManyIterations guards against a non-terminating pivot loop.
	ErrTooManyIterations = errors.New("core: pivoting did not converge")
)

// Options tunes the quantile drivers.
type Options struct {
	// Parallelism is read by nothing: every pass runs on the calling
	// goroutine.
	//
	// Deprecated: has no effect.
	Parallelism int
	// Epsilon requests an ε-approximate quantile (Definition: a (φ±ε)-
	// quantile). Zero requests the exact quantile. Ignored for MIN/MAX/LEX,
	// whose exact trims are always quasilinear. A SUM outside the tractable
	// class spends it on two lossy cuts per round, round i's at ε/2^(i+2),
	// so all rounds together lose at most ε·|Q(D)| answers, however many run.
	Epsilon float64
	// ForceLossy uses the lossy trimming even when the exact adjacent-pair
	// construction applies: core's differential tests run the lossy SUM on
	// tractable corpus shapes through it.
	ForceLossy bool
	// MaterializeThreshold stops pivoting when the candidate count is at
	// most this value; 0 means max(|D|, 64) per Algorithm 1.
	MaterializeThreshold int
	// MaxIterations caps pivoting iterations; 0 means 512.
	MaxIterations int
	// CollectPhases records a per-iteration wall-clock phase breakdown
	// (pivot / trim / derive / count) in RunStats.Phases. Off by default:
	// timings are non-deterministic, and the default RunStats are byte-
	// comparable across runs.
	CollectPhases bool
}

func (o Options) maxIterations() int {
	if o.MaxIterations <= 0 {
		return 512
	}
	return o.MaxIterations
}

func (o Options) threshold(dbSize int) int {
	if o.MaterializeThreshold > 0 {
		return o.MaterializeThreshold
	}
	if dbSize < 64 {
		return 64
	}
	return dbSize
}

// Source values for Answer.Source: which tier produced an answer.
const (
	// SourceExact marks answers from the exact pivot-loop engine (including
	// its deterministic ε-lossy variant for intractable SUM).
	SourceExact = "exact"
	// SourceSketch marks answers served from a mergeable rank-anchor
	// summary (internal/sketch.Summary) without touching the pivot loop.
	SourceSketch = "sketch"
	// SourceSample marks answers from the randomized sampling estimator.
	SourceSample = "sample"
)

// Answer is a query answer with its weight.
type Answer struct {
	// Vars is the variable layout (the original query's Vars()). It is the
	// plan's own slice, shared by every answer the plan returns: read-only.
	Vars []query.Var
	// Values are the answer's values, aligned with Vars. The answer owns them.
	Values []relation.Value
	// Weight is the answer's weight under the ranking function, its vector
	// (LEX) the answer's own.
	Weight ranking.Weightv
	// Source reports which tier produced the answer (SourceExact,
	// SourceSketch or SourceSample). Empty on answers from enumeration
	// surfaces (TopK, ranked streams, baselines) where rank error is not a
	// meaningful notion. Set by the qjoin layer, not by the core drivers.
	Source string
	// ErrorBound is a certified upper bound on the answer's rank error as a
	// fraction of |Q(D)|: the answer's weight occupies (or, for a sketch
	// answer whose representative was deleted, straddles) a rank within
	// ErrorBound·|Q(D)| of the requested one. 0 means exact. Set by the
	// qjoin layer alongside Source.
	ErrorBound float64
}

// Get returns the value bound to v.
func (a *Answer) Get(v query.Var) (relation.Value, bool) {
	for i, x := range a.Vars {
		if x == v {
			return a.Values[i], true
		}
	}
	return 0, false
}

// String renders the answer as {x=1, y=2}.
func (a *Answer) String() string {
	s := "{"
	for i, v := range a.Vars {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s=%d", v, a.Values[i])
	}
	return s + "}"
}

// Index computes the zero-based selection index k = min(⌊φ·N⌋, N-1) used by
// Algorithm 1 (Example 3.4's convention). An empty answer set has no index;
// 0 stands in for it, which the drivers' range check then rejects.
func Index(n counting.Count, phi float64) counting.Count {
	k := counting.FloorMulFloat(n, phi)
	if k.Cmp(n) >= 0 && !n.IsZero() {
		return n.Sub(counting.One)
	}
	return k
}
