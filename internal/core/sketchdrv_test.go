package core

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/sketch"
	"github.com/quantilejoins/qjoin/internal/testutil"
	"github.com/quantilejoins/qjoin/internal/workload"
)

// shiftInstance is one (query, data, rankings) triple of the shift tests.
type shiftInstance struct {
	name  string
	q     *query.Query
	db    *relation.Database
	ranks []*ranking.Func // exact trims only
}

func shiftInstances(rng *rand.Rand) []shiftInstance {
	var out []shiftInstance
	{
		q, db := workload.Path(rng, 3, 220, 14)
		out = append(out, shiftInstance{"path3", q, db,
			[]*ranking.Func{ranking.NewSum("x1", "x2", "x3"), ranking.NewMax(q.Vars()...), ranking.NewLex("x1", "x4")}})
	}
	{
		q, db := workload.Star(rng, 3, 200, 24, 30)
		v := q.Vars()
		out = append(out, shiftInstance{"star3", q, db,
			[]*ranking.Func{ranking.NewMin(v...), ranking.NewMax(v...), ranking.NewLex(v...)}})
	}
	{
		sn := workload.NewSocialNetwork(rng, 160, 20, 40)
		out = append(out, shiftInstance{"sn", sn.Q, sn.DB,
			[]*ranking.Func{ranking.NewSum("l2", "l3"), ranking.NewMax("l2", "l3"), ranking.NewMin("l2")}})
	}
	{
		q := query.New(query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}}, query.Atom{Rel: "R", Vars: []query.Var{"y", "z"}})
		rows := make([][]relation.Value, 0, 260)
		for i := 0; i < 260; i++ {
			rows = append(rows, []relation.Value{rng.Int63n(18), rng.Int63n(18)})
		}
		db := relation.NewDatabase()
		db.Add(relation.FromRows("R", 2, rows))
		out = append(out, shiftInstance{"selfjoin", q, db,
			[]*ranking.Func{ranking.NewSum("x", "y", "z"), ranking.NewMin("x", "z"), ranking.NewLex("x", "z")}})
	}
	return out
}

// Delta kinds of the shift tests.
const (
	deltaInsert = iota
	deltaDelete
	deltaMixed
	deltaKinds
)

// shiftDelta draws a valid delta against db (the raw database as it stands):
// fresh inserts, duplicate-row inserts, deletes, delete-then-reinsert pairs,
// over one relation or several.
func shiftDelta(rng *rand.Rand, db *relation.Database, kind, nOps int, dom int64) *engine.Delta {
	names := db.Names()
	if rng.Intn(2) == 0 {
		names = names[:1+rng.Intn(len(names))]
	}
	d := engine.NewDelta()
	taken := make(map[string]map[int]bool)
	for i := 0; i < nOps; i++ {
		name := names[rng.Intn(len(names))]
		r := db.Get(name)
		op := kind
		if kind == deltaMixed {
			op = rng.Intn(4)
		}
		existing := func() []relation.Value {
			if taken[name] == nil {
				taken[name] = make(map[int]bool)
			}
			for try := 0; try < 8 && r.Len() > 0; try++ {
				if j := rng.Intn(r.Len()); !taken[name][j] {
					taken[name][j] = true
					return r.RowValues(j)
				}
			}
			return nil
		}
		switch op {
		case deltaInsert:
			row := make([]relation.Value, r.Arity())
			for j := range row {
				row[j] = rng.Int63n(dom)
			}
			d.Insert(name, row)
		case deltaDelete:
			if row := existing(); row != nil {
				d.Delete(name, row)
			}
		case 2: // duplicate row: the multiplicity moves, the answers do not
			if r.Len() > 0 {
				d.Insert(name, r.RowValues(rng.Intn(r.Len())))
			}
		case 3: // delete-then-reinsert: the row moves to the tail
			if row := existing(); row != nil {
				d.Delete(name, row)
				d.Insert(name, row)
			}
		}
	}
	return d
}

// classSummary builds a summary and takes it through its first refresh, the
// full pass, which leaves class windows — what a shift starts from.
func classSummary(t *testing.T, eng *engine.Engine, f *ranking.Func, res float64, opts Options) *sketch.Summary {
	t.Helper()
	built, err := BuildSummary(eng, f, res, opts)
	if err != nil {
		t.Fatal(err)
	}
	class, err := RefreshSummary(eng, f, built, opts)
	if err != nil || class == nil {
		t.Fatalf("first refresh: %v, %v", class, err)
	}
	return class
}

// checkWindows checks every anchor's certified window against brute force.
func checkWindows(t *testing.T, where string, s *sketch.Summary, f *ranking.Func, vars []query.Var, answers [][]relation.Value) {
	t.Helper()
	if n, _ := s.N.Uint64(); int(n) != len(answers) {
		t.Fatalf("%s: N = %d, brute force has %d answers", where, n, len(answers))
	}
	for _, e := range s.Entries {
		below, equal := testutil.RankOf(answers, f, vars, e.Weight)
		if e.RMax.Less(counting.FromInt(below)) {
			t.Errorf("%s: anchor %v: less(λ) = %d exceeds RMax %s", where, e.Weight, below, e.RMax)
		}
		if counting.FromInt(below + equal).Less(e.RMin.AddUint64(1)) {
			t.Errorf("%s: anchor %v: leq(λ) = %d falls short of RMin+1 = %s", where, e.Weight, below+equal, e.RMin.AddUint64(1))
		}
	}
}

// TestShiftEqualsFullPass is the tentpole's exactness claim: for rankings
// with exact trims, shifting a part by the answers a delta gained and lost
// gives the summary RefreshSummary computes from the whole instance — entry
// for entry, with the same N and B and the same anchors dropped — over random
// insert, delete, mixed, multi-relation, duplicate-row and self-join delta
// sequences; and k deltas absorbed in one shift equal k shifts.
func TestShiftEqualsFullPass(t *testing.T) {
	rng := rand.New(rand.NewSource(1414))
	const res = 1.0 / 16
	for _, inst := range shiftInstances(rng) {
		for kind := 0; kind < deltaKinds; kind++ {
			eng, err := engine.New(inst.q, inst.db)
			if err != nil {
				t.Fatal(err)
			}
			raw := inst.db
			parts := make([]*sketch.Summary, len(inst.ranks))
			for i, f := range inst.ranks {
				parts[i] = classSummary(t, eng, f, res, Options{})
			}
			// chained[i] is rank i's part as of the last "warm", and since
			// the deltas not absorbed into it.
			chained := append([]*sketch.Summary(nil), parts...)
			var since []*AnswerDelta
			shifted := 0
			for gen := 0; gen < 6; gen++ {
				d := shiftDelta(rng, raw, kind, 1+rng.Intn(12), 14)
				next, ch, err := eng.Update(d)
				if err != nil {
					t.Fatalf("%s kind %d gen %d: update: %v", inst.name, kind, gen, err)
				}
				if raw, err = engine.ApplyDelta(raw, d); err != nil {
					t.Fatal(err)
				}
				if !ch.AnswersChanged() {
					eng = next
					continue
				}
				delta := DeltaAnswers(eng, next, ch, 1<<30)
				if delta == nil {
					t.Fatalf("%s kind %d gen %d: no delta for an incremental derivation", inst.name, kind, gen)
				}
				since = append(since, delta)
				for i, f := range inst.ranks {
					got := ShiftSummary(next, f, parts[i], []*AnswerDelta{delta})
					want, err := RefreshSummary(next, f, parts[i], Options{})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s kind %d gen %d rank %d: shifted summary differs from the full pass\n shifted %+v\n full    %+v",
							inst.name, kind, gen, i, got, want)
					}
					if got == nil { // TestShiftDropsDeadAnchors covers that end
						t.Fatalf("%s kind %d gen %d rank %d: every anchor died", inst.name, kind, gen, i)
					}
					parts[i] = got
					shifted++
				}
				eng = next
				if gen%3 == 2 && len(since) > 0 {
					for i, f := range inst.ranks {
						if got := ShiftSummary(eng, f, chained[i], since); !reflect.DeepEqual(got, parts[i]) {
							t.Fatalf("%s kind %d gen %d rank %d: %d deltas in one shift differ from %d shifts", inst.name, kind, gen, i, len(since), len(since))
						}
					}
					chained, since = append([]*sketch.Summary(nil), parts...), nil
				}
			}
			if shifted == 0 {
				t.Errorf("%s kind %d: no delta changed an answer", inst.name, kind)
			}
			answers := testutil.BruteForce(inst.q, raw)
			for i, f := range inst.ranks {
				checkWindows(t, inst.name, parts[i], f, inst.q.Vars(), answers)
			}
		}
	}
}

// TestShiftDropsDeadAnchors empties the lowest weight classes, so that the
// lowest anchors can no longer certify leq(λ) ≥ 1: the shift must drop the
// anchors the full pass drops, and report nil — rebuild — once none is left.
func TestShiftDropsDeadAnchors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	q, db := workload.Path(rng, 2, 150, 12)
	f := ranking.NewMin("x1")
	eng, err := engine.New(q, db)
	if err != nil {
		t.Fatal(err)
	}
	part := classSummary(t, eng, f, 1.0/8, Options{})
	r1 := db.Get("R1")
	dropped := false
	for cut := relation.Value(0); cut < 12; cut++ {
		d := engine.NewDelta()
		for i := 0; i < r1.Len(); i++ {
			if r1.Get(i, 0) == cut {
				d.Delete("R1", r1.RowValues(i))
			}
		}
		next, ch, err := eng.Update(d)
		if err != nil {
			t.Fatal(err)
		}
		if !ch.AnswersChanged() {
			eng = next
			continue
		}
		got := ShiftSummary(next, f, part, []*AnswerDelta{DeltaAnswers(eng, next, ch, 1<<30)})
		want, err := RefreshSummary(next, f, part, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: shifted %+v, full pass %+v", cut, got, want)
		}
		if got == nil {
			if next.Total().IsZero() {
				t.Fatalf("cut %d: nil summary for an empty answer set, want an empty summary", cut)
			}
			return // every anchor died while answers remain: the contract's rebuild signal
		}
		if len(got.Entries) < len(part.Entries) {
			dropped = true
		}
		part, eng = got, next
	}
	if !dropped {
		t.Fatal("no anchor was ever dropped: the test deletes too little")
	}
}

// TestShiftKeepsLossyWindowsSound runs the shift on windows that carry slack:
// full SUM on a 3-path has no exact trim, so the class windows come from
// ε-lossy counts. After every shift, less(λ) ≤ RMax and leq(λ) ≥ RMin + 1 must
// hold against a brute-force enumeration, and the slack must not have grown.
func TestShiftKeepsLossyWindowsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	q, raw := workload.Path(rng, 3, 90, 8)
	f := ranking.NewSum(q.Vars()...)
	eng, err := engine.New(q, raw)
	if err != nil {
		t.Fatal(err)
	}
	part := classSummary(t, eng, f, 1.0/8, Options{})
	if !part.Lossy {
		t.Fatal("full SUM on a 3-path should take lossy trims")
	}
	// slack is, per anchor weight, how far the window stands off the true
	// class: (RMax − less) + (leq − 1 − RMin).
	slack := func(s *sketch.Summary, answers [][]relation.Value) map[int64]int64 {
		out := make(map[int64]int64, len(s.Entries))
		for _, e := range s.Entries {
			below, equal := testutil.RankOf(answers, f, q.Vars(), e.Weight)
			rmin, _ := e.RMin.Uint64()
			rmax, _ := e.RMax.Uint64()
			out[e.Weight.K] = int64(rmax) - int64(below) + int64(below+equal-1) - int64(rmin)
		}
		return out
	}
	answers := testutil.BruteForce(q, raw)
	shifts := 0
	for gen := 0; gen < 8; gen++ {
		d := shiftDelta(rng, raw, deltaMixed, 1+rng.Intn(10), 8)
		next, ch, err := eng.Update(d)
		if err != nil {
			t.Fatal(err)
		}
		if raw, err = engine.ApplyDelta(raw, d); err != nil {
			t.Fatal(err)
		}
		before := slack(part, answers)
		answers = testutil.BruteForce(q, raw)
		if ch.AnswersChanged() {
			part = ShiftSummary(next, f, part, []*AnswerDelta{DeltaAnswers(eng, next, ch, 1<<30)})
			if part == nil {
				t.Fatalf("gen %d: every anchor died", gen)
			}
			if !part.Lossy {
				t.Errorf("gen %d: the shifted summary forgot its windows are lossy", gen)
			}
			for k, after := range slack(part, answers) {
				if after > before[k] {
					t.Errorf("gen %d: anchor %d: window slack grew from %d to %d ranks", gen, k, before[k], after)
				}
			}
			shifts++
		}
		eng = next
		checkWindows(t, "lossy 3-path", part, f, q.Vars(), answers)
	}
	if shifts == 0 {
		t.Fatal("no delta changed an answer")
	}
}

// TestDeltaAnswersBudget pins the cap: a delta listing more answers than the
// budget yields no delta (the caller takes the full pass), one within it
// yields exactly the gained and lost answers, and a rebuilt derivation —
// behind a hypertree decomposition — never yields one.
func TestDeltaAnswersBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	q, db := workload.Star(rng, 3, 120, 1, 50) // one event: every row joins every row
	eng, err := engine.New(q, db)
	if err != nil {
		t.Fatal(err)
	}
	next, ch, err := eng.Update(engine.NewDelta().Insert("A1", []relation.Value{0, 999}))
	if err != nil {
		t.Fatal(err)
	}
	through, _ := next.Total().Sub(eng.Total()).Uint64()
	if through < 1000 {
		t.Fatalf("the hub row carries only %d answers", through)
	}
	if d := DeltaAnswers(eng, next, ch, int(through)-1); d != nil {
		t.Errorf("budget %d: got a delta of %d answers", through-1, d.Len())
	}
	if d := DeltaAnswers(eng, next, ch, int(through)); d == nil || d.Len() != int(through) {
		t.Errorf("budget %d: got %v, want the %d gained answers", through, d, through)
	}

	tri := query.New(
		query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}},
		query.Atom{Rel: "S", Vars: []query.Var{"y", "z"}},
		query.Atom{Rel: "T", Vars: []query.Var{"z", "x"}},
	)
	tdb := relation.NewDatabase()
	tdb.Add(relation.FromRows("R", 2, [][]relation.Value{{1, 2}}))
	tdb.Add(relation.FromRows("S", 2, [][]relation.Value{{2, 3}}))
	tdb.Add(relation.FromRows("T", 2, [][]relation.Value{{3, 1}}))
	te, err := engine.New(tri, tdb)
	if err != nil {
		t.Fatal(err)
	}
	tn, tch, err := te.Update(engine.NewDelta().Insert("R", []relation.Value{4, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if d := DeltaAnswers(te, tn, tch, 1<<30); d != nil {
		t.Errorf("decomposed derivation: got a delta of %d answers", d.Len())
	}
}
