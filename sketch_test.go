// Differential fuzzing of the sketch tier (PR 8): the PR 6 corpus is served
// through mode=approx and mode=auto across shard counts and chained deltas,
// and every reported ErrorBound is checked against the brute-force oracle —
// the realized rank error of the served weight must stay within the certified
// bound at every generation. mode=auto's fallback is checked byte-identical
// to the legacy exact path when the requested ε is tighter than what the
// sketch certifies.
package qjoin_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/sketch"
	"github.com/quantilejoins/qjoin/internal/testutil"
	"github.com/quantilejoins/qjoin/internal/workload"
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
// answer is byte-identical to the exact tier's (mode=exact with the same ε,
// which routes that ε into the engine).
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
		exact, err := p.Answer(f, qjoin.QuantileRequest{Phi: phi, Eps: tiny, Mode: qjoin.ModeExact})
		if err != nil {
			t.Fatalf("φ=%v exact: %v", phi, err)
		}
		if !reflect.DeepEqual(auto, exact) {
			t.Errorf("φ=%v: auto fallback %+v diverged from exact %+v", phi, auto, exact)
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
	if _, err := qjoin.ParseMode("bogus"); !errors.As(err, &ae) || ae.Field != "mode" {
		t.Errorf("ParseMode(bogus): %v, want *ArgError on mode", err)
	}
	if err := qjoin.ValidateDelta(0); err == nil {
		t.Error("ValidateDelta(0) should fail")
	}
	if qjoin.ModeApprox.String() != "approx" {
		t.Error("ModeApprox.String() != approx")
	}
}

// shiftCase is one instance of the sketch-maintenance tests: small enough for
// a brute-force oracle per generation, and sparse enough that a delta of a few
// rows lists fewer answers than an engine has tuples (the test of the cap is
// TestSketchFullPassWhereTheShiftHasNoInput). exact counts the leading
// rankings with exact trims; any after them are lossy.
type shiftCase struct {
	name  string
	q     *qjoin.Query
	db    *qjoin.DB
	ranks []*qjoin.Ranking
	exact int
	dom   int64
}

func shiftCases(rng *rand.Rand) []shiftCase {
	var out []shiftCase
	{
		q, db := workload.Path(rng, 3, 110, 30)
		out = append(out, shiftCase{"path3", q, qjoin.WrapDB(db), []*qjoin.Ranking{
			qjoin.Sum("x1", "x2", "x3"), qjoin.Max(q.Vars()...), qjoin.Lex("x1", "x4"),
			qjoin.Sum(q.Vars()...), // full SUM on a 3-path: lossy trims only
		}, 3, 30})
	}
	{
		q, db := workload.Star(rng, 3, 100, 30, 20)
		v := q.Vars()
		out = append(out, shiftCase{"star3", q, qjoin.WrapDB(db), []*qjoin.Ranking{
			qjoin.Min(v...), qjoin.Max(v...), qjoin.Lex(v...),
		}, 3, 30})
	}
	{
		sn := workload.NewSocialNetwork(rng, 120, 40, 30)
		out = append(out, shiftCase{"sn", sn.Q, qjoin.WrapDB(sn.DB), []*qjoin.Ranking{
			qjoin.Sum("l2", "l3"), qjoin.Max("l2", "l3"), qjoin.Min("l2"),
		}, 3, 40})
	}
	{
		q, err := qjoin.ParseQuery("R(x,y),R(y,z)")
		if err != nil {
			panic(err)
		}
		rows := make([][]int64, 0, 200)
		for i := 0; i < 200; i++ {
			rows = append(rows, []int64{rng.Int63n(16), rng.Int63n(16)})
		}
		db := qjoin.NewDB()
		if err := db.Add("R", 2, rows); err != nil {
			panic(err)
		}
		out = append(out, shiftCase{"selfjoin", q, db, []*qjoin.Ranking{
			qjoin.Sum("x", "y", "z"), qjoin.Min("x", "z"), qjoin.Lex("x", "z"),
		}, 3, 16})
	}
	return out
}

// warm builds (or refreshes) every ranking's summary of the plan.
func warm(t *testing.T, p *qjoin.Prepared, ranks []*qjoin.Ranking) {
	t.Helper()
	for _, f := range ranks {
		if _, err := p.Answer(f, qjoin.QuantileRequest{Phi: 0.5, Mode: qjoin.ModeApprox}); err != nil {
			t.Fatal(err)
		}
	}
}

// checkCertified checks a plan's merged summary and served approx answers for
// a ranking against brute force: every anchor window holds, and every answer
// is within the bound it reports.
func checkCertified(t *testing.T, where string, p *qjoin.Prepared, f *qjoin.Ranking, vars []qjoin.Var, oracle [][]int64) {
	t.Helper()
	n := len(oracle)
	if n == 0 {
		return
	}
	_, merged, stale, _ := qjoin.SketchState(p, f)
	for _, st := range stale {
		if st {
			t.Fatalf("%s: a part is still stale after the warm-up", where)
		}
	}
	for _, e := range merged.Entries {
		below, equal := testutil.RankOf(oracle, f, vars, e.Weight)
		rmin, _ := e.RMin.Uint64()
		rmax, _ := e.RMax.Uint64()
		if uint64(below) > rmax || uint64(below+equal) < rmin+1 {
			t.Errorf("%s: anchor %v: window [%d, %d] does not hold less=%d, leq=%d", where, e.Weight, rmin, rmax, below, below+equal)
		}
	}
	for _, phi := range []float64{0, 0.2, 0.5, 0.8, 1} {
		a, err := p.Answer(f, qjoin.QuantileRequest{Phi: phi, Mode: qjoin.ModeApprox})
		if err != nil {
			t.Fatalf("%s φ=%v: %v", where, phi, err)
		}
		k := min(int(float64(n)*phi), n-1)
		below, equal := testutil.RankOf(oracle, f, vars, a.Weight)
		realized := max(below-k, k-(below+equal-1), 0)
		if float64(realized) > a.ErrorBound*float64(n)+1e-6 {
			t.Errorf("%s φ=%v: realized rank error %d exceeds the reported bound %v·%d", where, phi, realized, a.ErrorBound, n)
		}
	}
}

// TestSketchShiftMaintenance drives the sketch tier through random delta
// sequences — inserts, deletes, duplicate rows, delete-and-reinsert, several
// relations, a self-join — on unrouted and 3-shard plans, and checks after
// each Update + WarmSketches:
//
//   - which refresh ran: a part's first refresh is the full pass, every later
//     one a shift, and only parts of shards the delta routes to move at all;
//   - exact rankings: the shifted summary equals the one a plan restored from
//     the previous generation's snapshot computes — a restored part is not
//     shiftable, so that lineage takes the full pass every time;
//   - every ranking, lossy full SUM included: windows and served answers hold
//     against brute force;
//   - k Updates with no warm-up in between leave the same summary as k warmed
//     ones.
func TestSketchShiftMaintenance(t *testing.T) {
	rng := rand.New(rand.NewSource(1401))
	for _, c := range shiftCases(rng) {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", c.name, shards), func(t *testing.T) {
				var plan *qjoin.Prepared
				var err error
				if shards == 1 {
					plan, err = qjoin.Prepare(c.q, c.db)
				} else {
					plan, err = qjoin.PrepareSharded(c.q, c.db, shards)
				}
				if err != nil {
					t.Fatal(err)
				}
				warm(t, plan, c.ranks)
				lazy := plan // the same deltas, warmed only every third generation
				db := c.db
				refreshed := make([]bool, shards) // shard's parts have been through a refresh
				var shifts int64
				for gen := 0; gen < 7; gen++ {
					d := randomDelta(rng, db.Unwrap(), db.Relations(), 1+rng.Intn(6), c.dom)
					var snapshot bytes.Buffer
					if err := plan.Snapshot(&snapshot); err != nil {
						t.Fatal(err)
					}
					restored, err := qjoin.LoadPreparedBytes(snapshot.Bytes())
					if err != nil {
						t.Fatal(err)
					}
					touched := plan.Touched(d)
					before := make([][]*sketch.Summary, len(c.ranks))
					for r, f := range c.ranks {
						before[r], _, _, _ = qjoin.SketchState(plan, f)
					}
					up, err := plan.Update(d)
					if err == nil {
						err = up.WarmSketches()
					}
					if err != nil {
						t.Fatalf("gen %d: %v", gen, err)
					}
					if db, err = db.Apply(d); err != nil {
						t.Fatal(err)
					}
					// Which parts moved, and how.
					var want qjoin.SketchRefreshStats
					for i := 0; i < shards; i++ {
						after, _, _, _ := qjoin.SketchState(up, c.ranks[0])
						moved := after[i] != before[0][i]
						for r, f := range c.ranks {
							after, _, _, _ := qjoin.SketchState(up, f)
							if (after[i] != before[r][i]) != moved {
								t.Fatalf("gen %d shard %d: the rankings disagree on whether the part moved", gen, i)
							}
						}
						switch {
						case !moved:
						case !slices.Contains(touched, i):
							t.Errorf("gen %d: shard %d's parts moved, the delta routes to %v", gen, i, touched)
						case refreshed[i]:
							want.Shifted += int64(len(c.ranks))
						default:
							want.Recertified += int64(len(c.ranks))
							refreshed[i] = true
						}
					}
					got := up.SketchRefreshes()
					if got.Rebuilt == 0 && got != want {
						t.Errorf("gen %d: refreshes %+v, want %+v", gen, got, want)
					}
					shifts += got.Shifted

					// The full-pass lineage: same delta on the restored plan.
					full, err := restored.Update(d)
					if err == nil {
						err = full.WarmSketches()
					}
					if err != nil {
						t.Fatalf("gen %d restored: %v", gen, err)
					}
					if st := full.SketchRefreshes(); st.Shifted != 0 {
						t.Errorf("gen %d: a restored plan shifted: %+v", gen, st)
					}
					oracle := testutil.BruteForce(c.q, db.Unwrap())
					for r, f := range c.ranks {
						_, merged, _, _ := qjoin.SketchState(up, f)
						if _, viaFull, _, _ := qjoin.SketchState(full, f); r < c.exact && !reflect.DeepEqual(merged, viaFull) {
							t.Errorf("gen %d rank %d: shifted summary differs from the full pass\n shifted %+v\n full    %+v", gen, r, merged, viaFull)
						}
						checkCertified(t, fmt.Sprintf("gen %d rank %d", gen, r), up, f, c.q.Vars(), oracle)
					}

					// The lazy lineage absorbs up to three deltas per warm-up.
					if lazy, err = lazy.Update(d); err != nil {
						t.Fatal(err)
					}
					if gen%3 == 2 {
						if err := lazy.WarmSketches(); err != nil {
							t.Fatal(err)
						}
						for r, f := range c.ranks[:c.exact] {
							_, eager, _, _ := qjoin.SketchState(up, f)
							if _, chained, _, _ := qjoin.SketchState(lazy, f); !reflect.DeepEqual(eager, chained) {
								t.Errorf("gen %d rank %d: three chained updates and one warm-up differ from three warmed ones", gen, r)
							}
						}
					}
					plan = up
				}
				if shifts == 0 {
					t.Error("no refresh was a shift")
				}
			})
		}
	}
}

// TestSketchFreshAcrossAnswerNeutralDeltas: a delta that changes no answer —
// duplicate rows, rows of a relation the query never reads — derives a new
// engine but leaves every summary part fresh: no refresh of any kind, the
// same merged summary.
func TestSketchFreshAcrossAnswerNeutralDeltas(t *testing.T) {
	q, db := socialDB()
	if err := db.Add("Audit", 1, [][]int64{{1}}); err != nil {
		t.Fatal(err)
	}
	f := qjoin.Sum("l2", "l3")
	for _, shards := range []int{1, 3} {
		var plan *qjoin.Prepared
		var err error
		if shards == 1 {
			plan, err = qjoin.Prepare(q, db)
		} else {
			plan, err = qjoin.PrepareSharded(q, db, shards)
		}
		if err != nil {
			t.Fatal(err)
		}
		warm(t, plan, []*qjoin.Ranking{f})
		_, merged, _, _ := qjoin.SketchState(plan, f)
		row := db.Unwrap().Get("Share").RowValues(0)
		for name, d := range map[string]*qjoin.Delta{
			"duplicate row":    qjoin.NewDelta().Insert("Share", row),
			"outside relation": qjoin.NewDelta().Insert("Audit", []int64{2}).Delete("Audit", []int64{1}),
		} {
			up, err := plan.Update(d)
			if err != nil {
				t.Fatal(err)
			}
			if up == plan {
				t.Fatalf("shards=%d %s: Update returned the receiver", shards, name)
			}
			_, carried, stale, _ := qjoin.SketchState(up, f)
			if carried != merged || slices.Contains(stale, true) {
				t.Errorf("shards=%d %s: summary %p stale %v, want the receiver's %p and nothing stale", shards, name, carried, stale, merged)
			}
			if err := up.WarmSketches(); err != nil {
				t.Fatal(err)
			}
			if st := up.SketchRefreshes(); st != (qjoin.SketchRefreshStats{}) {
				t.Errorf("shards=%d %s: refreshes %+v, want none", shards, name, st)
			}
		}
	}
}

// TestSketchFullPassWhereTheShiftHasNoInput: a delta through a hub row that
// joins everything lists more answers than the engine has tuples, and a
// decomposed cyclic plan rematerializes its bags with no row-level record —
// both take the full pass, on parts that have shifted before, and stay sound.
func TestSketchFullPassWhereTheShiftHasNoInput(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	hubQ, hubRaw := workload.Star(rng, 3, 40, 1, 25) // one event: every row joins every row
	tri, err := qjoin.ParseQuery("R(x,y),S(y,z),T(z,x)")
	if err != nil {
		t.Fatal(err)
	}
	triDB := qjoin.NewDB()
	for _, name := range []string{"R", "S", "T"} {
		var rows [][]int64
		for i := 0; i < 60; i++ {
			rows = append(rows, []int64{rng.Int63n(7), rng.Int63n(7)})
		}
		if err := triDB.Add(name, 2, rows); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name   string
		q      *qjoin.Query
		db     *qjoin.DB
		f      *qjoin.Ranking
		deltas [3]*qjoin.Delta // the second shifts where a shift is possible; the third is the big one
		shifts bool
	}{
		{"hub row", hubQ, qjoin.WrapDB(hubRaw), qjoin.Max(hubQ.Vars()...), [3]*qjoin.Delta{
			qjoin.NewDelta().Insert("A1", []int64{7, 3}), // an event of its own: joins nothing
			qjoin.NewDelta().Insert("A1", []int64{8, 3}),
			qjoin.NewDelta().Insert("A1", []int64{0, 99}),
		}, true},
		{"decomposed triangle", tri, triDB, qjoin.Sum("x", "y", "z"), [3]*qjoin.Delta{
			qjoin.NewDelta().Insert("R", []int64{1, 100}),
			qjoin.NewDelta().Insert("R", []int64{1, 101}),
			qjoin.NewDelta().Insert("S", []int64{100, 200}).Insert("T", []int64{200, 1}), // closes a triangle
		}, false},
	} {
		plan, err := qjoin.Prepare(c.q, c.db)
		if err != nil {
			t.Fatal(err)
		}
		warm(t, plan, []*qjoin.Ranking{c.f})
		db := c.db
		for step, d := range c.deltas {
			up, err := plan.Update(d)
			if err != nil {
				t.Fatalf("%s step %d: %v", c.name, step, err)
			}
			_, _, _, pending := qjoin.SketchState(up, c.f)
			if err := up.WarmSketches(); err != nil {
				t.Fatal(err)
			}
			want := qjoin.SketchRefreshStats{Recertified: 1}
			if step == 1 && c.shifts {
				want = qjoin.SketchRefreshStats{Shifted: 1}
			}
			if got := up.SketchRefreshes(); got != want {
				t.Errorf("%s step %d: refreshes %+v, want %+v", c.name, step, got, want)
			}
			if (pending[0] != nil) != (want.Shifted == 1) {
				t.Errorf("%s step %d: pending list %v beside refreshes %+v", c.name, step, pending[0], want)
			}
			if db, err = db.Apply(d); err != nil {
				t.Fatal(err)
			}
			checkCertified(t, fmt.Sprintf("%s step %d", c.name, step), up, c.f, c.q.Vars(), testutil.BruteForce(c.q, db.Unwrap()))
			plan = up
		}
	}
}

// TestRankingIdentityIsByValue pins the one identity a ranking has on a plan
// (Ranking.Key): rankings built separately but equal — constructed, parsed per
// request, restored from a snapshot, carried across Update — share one summary
// and one SUM trim preparation, and a second approximate answer builds
// nothing; rankings with a custom Weight function are each their own.
func TestRankingIdentityIsByValue(t *testing.T) {
	q, inner := workload.Path(rand.New(rand.NewSource(18)), 2, 200, 20) // ≈ 2 000 answers over 400 rows: runs trim
	plan, err := qjoin.Prepare(q, qjoin.WrapDB(inner))
	if err != nil {
		t.Fatal(err)
	}
	parse := func() *qjoin.Ranking {
		f, err := qjoin.ParseRanking("sum(x1,x3)")
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	approx := qjoin.QuantileRequest{Phi: 0.5, Mode: qjoin.ModeApprox}
	answer := func(p *qjoin.Prepared, f *qjoin.Ranking) *qjoin.Answer {
		t.Helper()
		a, err := p.Answer(f, approx)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	summary := func(p *qjoin.Prepared, f *qjoin.Ranking) *sketch.Summary {
		_, merged, stale, _ := qjoin.SketchState(p, f)
		if slices.Contains(stale, true) {
			t.Fatal("summary is stale")
		}
		return merged
	}

	first := answer(plan, qjoin.Sum("x1", "x3"))
	built := summary(plan, parse())
	if built == nil || qjoin.TrimPreps(plan) != 1 {
		t.Fatalf("after one approximate answer: summary %v, %d trim preparations", built, qjoin.TrimPreps(plan))
	}
	if second := answer(plan, parse()); !reflect.DeepEqual(second, first) {
		t.Fatalf("equal rankings answered %v and %v", first, second)
	}
	if _, err := plan.Quantile(parse(), 0.3); err != nil {
		t.Fatal(err)
	}
	if summary(plan, parse()) != built || qjoin.TrimPreps(plan) != 1 || plan.SketchRefreshes() != (qjoin.SketchRefreshStats{}) {
		t.Fatalf("a second equal ranking built something: %d trim preparations, refreshes %+v", qjoin.TrimPreps(plan), plan.SketchRefreshes())
	}

	// Two rankings with one custom Weight function are still two rankings.
	twice := func(_ qjoin.Var, x qjoin.Value) int64 { return 2 * x }
	g1, g2 := qjoin.Sum("x1", "x3"), qjoin.Sum("x1", "x3")
	g1.Weight, g2.Weight = twice, twice
	if a1, a2 := answer(plan, g1), answer(plan, g2); !reflect.DeepEqual(a1, a2) || a1.Weight.K == first.Weight.K {
		t.Fatalf("custom-weight answers %v and %v (default weights: %v)", a1, a2, first)
	}
	if s1, s2 := summary(plan, g1), summary(plan, g2); s1 == nil || s2 == nil || s1 == s2 || s1 == built || qjoin.TrimPreps(plan) != 3 {
		t.Fatalf("custom-weight rankings share state: summaries %p %p (default %p), %d trim preparations", s1, s2, built, qjoin.TrimPreps(plan))
	}

	// A restored summary is served to a freshly parsed ranking as it stands.
	loaded, err := qjoin.LoadPreparedBytes(snapshotBytes(t, plan))
	if err != nil {
		t.Fatal(err)
	}
	restored := summary(loaded, parse())
	if restored == nil || summary(loaded, g1) != nil {
		t.Fatalf("restored plan: default-weight summary %v, custom-weight summary %v", restored, summary(loaded, g1))
	}
	if a := answer(loaded, parse()); !reflect.DeepEqual(a, first) || summary(loaded, parse()) != restored {
		t.Fatalf("restored plan answered %v (want %v) or rebuilt its summary", a, first)
	}

	// So is one carried across Update: the warm-up re-certifies each of the
	// three summaries once, and the next request's ranking finds its own.
	r1 := inner.Get("R1")
	up, err := plan.Update(qjoin.NewDelta().Insert("R1", []qjoin.Value{r1.Get(0, 0) + 1, r1.Get(0, 1)}))
	if err == nil {
		err = up.WarmSketches()
	}
	if err != nil {
		t.Fatal(err)
	}
	carried := summary(up, parse())
	if want := (qjoin.SketchRefreshStats{Recertified: 3}); carried == nil || carried == built || up.SketchRefreshes() != want {
		t.Fatalf("after Update + WarmSketches: summary %p (was %p), refreshes %+v, want %+v", carried, built, up.SketchRefreshes(), want)
	}
	answer(up, parse())
	if summary(up, parse()) != carried || up.SketchRefreshes() != (qjoin.SketchRefreshStats{Recertified: 3}) {
		t.Fatalf("a freshly parsed ranking missed the carried summary: refreshes %+v", up.SketchRefreshes())
	}
}
