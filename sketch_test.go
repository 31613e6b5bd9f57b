// Differential fuzzing of the sketch tier (PR 8): the PR 6 corpus is served
// through mode=approx and mode=auto across shard counts and chained deltas,
// and every reported ErrorBound is checked against the brute-force oracle —
// the realized rank error of the served weight must stay within the certified
// bound at every generation. mode=auto's fallback is checked byte-identical
// to the legacy exact path when the requested ε is tighter than what the
// sketch certifies.
package qjoin_test

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/testutil"
)

// TestSketchCertifiedBound is the tentpole differential: for every corpus
// instance, shard count in {1, 2, 5} and delta generation, mode=approx
// answers must carry a certified ErrorBound that the brute-force oracle
// confirms, and mode=auto must either serve a certified sketch answer or
// fall back byte-identically to the exact tier.
func TestSketchCertifiedBound(t *testing.T) {
	phis := []float64{0, 0.3, 0.5, 0.77, 1}
	const reqEps = 0.125 // sketch built at res 1/16: small grids keep the test fast
	rng := rand.New(rand.NewSource(616))
	for _, inst := range fuzzInstances(rng) {
		inst := inst
		t.Run(inst.name, func(t *testing.T) {
			for _, shards := range []int{1, 2, 5} {
				var plan qjoin.Plan
				var err error
				if shards == 1 {
					plan, err = qjoin.Prepare(inst.q, inst.db)
				} else {
					plan, err = qjoin.PrepareSharded(inst.q, inst.db, shards)
				}
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				db := inst.db
				names := db.Relations()
				for gen := 0; gen < 3; gen++ {
					oracle := testutil.BruteForce(inst.q, db.Unwrap())
					n := len(oracle)
					for ri, f := range inst.ranks {
						if ri >= 2 {
							break // two rankings per instance keep the matrix affordable
						}
						for _, phi := range phis {
							a, err := plan.Answer(f, qjoin.QuantileRequest{Phi: phi, Eps: reqEps, Mode: qjoin.ModeApprox})
							if n == 0 {
								if !errors.Is(err, qjoin.ErrNoAnswers) {
									t.Fatalf("shards=%d gen=%d: empty instance: got %v, want ErrNoAnswers", shards, gen, err)
								}
								continue
							}
							if err != nil {
								t.Fatalf("shards=%d gen=%d rank=%d φ=%v: %v", shards, gen, ri, phi, err)
							}
							if a.Source != qjoin.SourceSketch {
								t.Fatalf("shards=%d gen=%d rank=%d φ=%v: source %q, want sketch", shards, gen, ri, phi, a.Source)
							}
							k := int(float64(n) * phi)
							if k >= n {
								k = n - 1
							}
							below, equal := testutil.RankOf(oracle, f, inst.q.Vars(), a.Weight)
							realized := 0
							if below > k {
								realized = below - k
							}
							if hi := below + equal - 1; k > hi && k-hi > realized {
								realized = k - hi
							}
							if budget := a.ErrorBound*float64(n) + 1e-6; float64(realized) > budget {
								t.Errorf("shards=%d gen=%d rank=%d φ=%v: realized rank error %d exceeds certified %v (bound %v, n=%d)",
									shards, gen, ri, phi, realized, budget, a.ErrorBound, n)
							}

							// mode=auto with the same ε must serve a certified
							// answer from one tier or the other.
							aa, err := plan.Answer(f, qjoin.QuantileRequest{Phi: phi, Eps: reqEps, Mode: qjoin.ModeAuto})
							if err != nil {
								t.Fatalf("shards=%d gen=%d rank=%d φ=%v auto: %v", shards, gen, ri, phi, err)
							}
							if aa.Source != qjoin.SourceSketch && aa.Source != qjoin.SourceExact {
								t.Errorf("auto: unexpected source %q", aa.Source)
							}
							if aa.Source == qjoin.SourceSketch {
								bl, eq := testutil.RankOf(oracle, f, inst.q.Vars(), aa.Weight)
								r := 0
								if bl > k {
									r = bl - k
								}
								if hi := bl + eq - 1; k > hi && k-hi > r {
									r = k - hi
								}
								if float64(r) > reqEps*float64(n)+1e-6 {
									t.Errorf("auto served sketch outside ε: realized %d > %v·%d", r, reqEps, n)
								}
							}
						}
					}
					if gen == 2 {
						break
					}
					d := randomDelta(rng, db.Unwrap(), names, 18, 30)
					ndb, err := db.Apply(d)
					if err != nil {
						t.Fatalf("gen=%d apply: %v", gen, err)
					}
					up, err := plan.UpdatePlan(d)
					if err != nil {
						t.Fatalf("gen=%d update: %v", gen, err)
					}
					if err := up.WarmSketches(); err != nil {
						t.Fatalf("gen=%d warm: %v", gen, err)
					}
					plan, db = up, ndb
				}
			}
		})
	}
}

// TestAutoFallbackByteIdentical pins the acceptance contract: when the
// requested ε is tighter than anything the sketch certifies, mode=auto's
// answer is byte-identical to the legacy exact path (here ApproxQuantile,
// which routes the same ε into the engine).
func TestAutoFallbackByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	insts := fuzzInstances(rng)
	inst := insts[0]
	p, err := qjoin.Prepare(inst.q, inst.db)
	if err != nil {
		t.Fatal(err)
	}
	f := inst.ranks[0]
	for _, phi := range []float64{0, 0.33, 0.5, 1} {
		// ε = 1e-9 cannot be certified by any default-resolution sketch on a
		// nonempty instance, so auto must take the exact tier.
		const tiny = 1e-9
		auto, err := p.Answer(f, qjoin.QuantileRequest{Phi: phi, Eps: tiny, Mode: qjoin.ModeAuto})
		if err != nil {
			t.Fatalf("φ=%v auto: %v", phi, err)
		}
		legacy, err := p.ApproxQuantile(f, phi, tiny)
		if err != nil {
			t.Fatalf("φ=%v legacy: %v", phi, err)
		}
		if !reflect.DeepEqual(auto, legacy) {
			t.Errorf("φ=%v: auto fallback %+v diverged from legacy %+v", phi, auto, legacy)
		}
		if auto.Source != qjoin.SourceExact {
			t.Errorf("φ=%v: auto fallback source %q, want exact", phi, auto.Source)
		}
	}
	// And with a loose ε the same plan serves from the sketch.
	loose, err := p.Answer(f, qjoin.QuantileRequest{Phi: 0.5, Eps: 0.25, Mode: qjoin.ModeAuto})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Source != qjoin.SourceSketch {
		t.Errorf("loose ε: source %q, want sketch", loose.Source)
	}
}

// TestAnswerModeSurface covers the request-surface contracts that the
// differential does not: sample mode tagging and its sharded rejection, the
// zero-value request, and wire-mode parsing.
func TestAnswerModeSurface(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inst := fuzzInstances(rng)[0]
	f := inst.ranks[0]
	p, err := qjoin.Prepare(inst.q, inst.db)
	if err != nil {
		t.Fatal(err)
	}

	// Zero-value request = exact median semantics at φ=0... Phi 0 exact.
	a, err := p.Answer(f, qjoin.QuantileRequest{Phi: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Source != qjoin.SourceExact || a.ErrorBound != 0 {
		t.Errorf("zero-value request: source=%q bound=%v, want exact/0", a.Source, a.ErrorBound)
	}
	exact, err := p.Quantile(f, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, exact) {
		t.Errorf("zero-value request diverged from Quantile: %+v vs %+v", a, exact)
	}

	// Sample mode tags its answers and threads the caller's generator.
	s, err := p.Answer(f, qjoin.QuantileRequest{
		Phi: 0.5, Eps: 0.2, Delta: 0.1, Mode: qjoin.ModeSample,
		Rand: rand.New(rand.NewSource(3)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Source != qjoin.SourceSample || s.ErrorBound != 0.2 {
		t.Errorf("sample: source=%q bound=%v, want sample/0.2", s.Source, s.ErrorBound)
	}

	// Sharded plans reject sample mode with a typed argument error.
	sp, err := qjoin.PrepareSharded(inst.q, inst.db, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sp.Answer(f, qjoin.QuantileRequest{Phi: 0.5, Eps: 0.2, Delta: 0.1, Mode: qjoin.ModeSample})
	var ae *qjoin.ArgError
	if !errors.As(err, &ae) || ae.Field != "mode" {
		t.Errorf("sharded sample: err %v, want *ArgError on mode", err)
	}

	// The request is validated once, before any tier runs: an unknown mode,
	// an ε outside [0,1) and a φ outside [0,1] are typed argument errors in
	// every mode (on the parent commit Mode(7) ran as auto, and auto/approx
	// answered with Eps 5 or -3).
	nan := math.NaN()
	for _, plan := range []*qjoin.Prepared{p, sp} {
		for _, c := range []struct {
			req   qjoin.QuantileRequest
			field string
		}{
			{qjoin.QuantileRequest{Phi: 0.5, Mode: qjoin.Mode(7)}, "mode"},
			{qjoin.QuantileRequest{Phi: 0.5, Mode: qjoin.Mode(-1)}, "mode"},
			{qjoin.QuantileRequest{Phi: 0.5, Eps: 5, Mode: qjoin.ModeAuto}, "eps"},
			{qjoin.QuantileRequest{Phi: 0.5, Eps: -3, Mode: qjoin.ModeApprox}, "eps"},
			{qjoin.QuantileRequest{Phi: 0.5, Eps: 1, Mode: qjoin.ModeExact}, "eps"},
			{qjoin.QuantileRequest{Phi: 0.5, Eps: nan, Mode: qjoin.ModeAuto}, "eps"},
			{qjoin.QuantileRequest{Phi: 1.5, Mode: qjoin.ModeExact}, "phi"},
			{qjoin.QuantileRequest{Phi: -0.1, Mode: qjoin.ModeAuto}, "phi"},
			{qjoin.QuantileRequest{Phi: nan, Mode: qjoin.ModeApprox}, "phi"},
			{qjoin.QuantileRequest{Phi: 2, Eps: 0.2, Delta: 0.1, Mode: qjoin.ModeSample}, "phi"},
		} {
			a, st, err := plan.AnswerStats(f, c.req)
			if !errors.As(err, &ae) || ae.Field != c.field || a != nil || st != nil {
				t.Errorf("shards=%d %+v: answer %v, err %v; want *ArgError on %s", plan.Shards(), c.req, a, err, c.field)
			}
		}
		// Eps 0 stays valid everywhere: exact, or the default resolution.
		for _, m := range []qjoin.Mode{qjoin.ModeAuto, qjoin.ModeExact, qjoin.ModeApprox} {
			if _, err := plan.Answer(f, qjoin.QuantileRequest{Phi: 0.5, Mode: m}); err != nil {
				t.Errorf("shards=%d mode=%v eps=0: %v", plan.Shards(), m, err)
			}
		}
	}

	// Wire-mode parsing: the canonical names, the legacy default, rejects.
	for _, c := range []struct {
		in   string
		want qjoin.Mode
	}{{"", qjoin.ModeExact}, {"exact", qjoin.ModeExact}, {"APPROX", qjoin.ModeApprox}, {" auto ", qjoin.ModeAuto}} {
		m, err := qjoin.ParseMode(c.in)
		if err != nil || m != c.want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", c.in, m, err, c.want)
		}
	}
	if _, err := qjoin.ParseMode("sample"); err == nil {
		t.Error("ParseMode(sample) should fail: sampling has no wire mode")
	}
	if err := qjoin.ValidateMode("bogus"); !errors.As(err, &ae) || ae.Field != "mode" {
		t.Errorf("ValidateMode(bogus): %v, want *ArgError on mode", err)
	}
	if err := qjoin.ValidateDelta(0); err == nil {
		t.Error("ValidateDelta(0) should fail")
	}
	if qjoin.FormatMode(qjoin.ModeApprox) != "approx" {
		t.Error("FormatMode(ModeApprox) != approx")
	}
}
