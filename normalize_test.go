// End-to-end differential for the compile-time rewrite (query.Normalize):
// queries whose atoms repeat a variable — alone, under a self-join, inside a
// cyclic query's bag — answered through every axis the system exposes and held
// to the brute-force oracle, which applies the equality itself over the source
// query. These instances live beside the pinned corpus (testutil.FuzzCorpus),
// not in it: its digests do not move.
package qjoin_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/testutil"
)

// repeatedVarInstances are small instances whose every query has an atom that
// repeats a variable; a fifth of the rows of such an atom violate the equality.
func repeatedVarInstances(rng *rand.Rand) []fuzzInstance {
	rows := func(n, arity int, dom int64, same ...int) [][]int64 {
		out := make([][]int64, n)
		for i := range out {
			row := make([]int64, arity)
			for j := range row {
				row[j] = rng.Int63n(dom)
			}
			if i%5 != 0 { // the rest agree on the repeated positions
				for _, j := range same[1:] {
					row[j] = row[same[0]]
				}
			}
			out[i] = row
		}
		return out
	}
	at := qjoin.NewAtom
	return []fuzzInstance{
		{"R(x,y,x),S(y,z)", qjoin.NewQuery(at("R", "x", "y", "x"), at("S", "y", "z")),
			qjoin.NewDB().MustAdd("R", 3, rows(150, 3, 9, 0, 2)).MustAdd("S", 2, rows(60, 2, 9, 0)),
			[]*qjoin.Ranking{qjoin.Sum("x", "y", "z"), qjoin.Min("x", "z"), qjoin.Max("x", "y"), qjoin.Lex("z", "x")}},
		{"R(x,x),S(x,z)", qjoin.NewQuery(at("R", "x", "x"), at("S", "x", "z")),
			qjoin.NewDB().MustAdd("R", 2, rows(80, 2, 30, 0, 1)).MustAdd("S", 2, rows(200, 2, 30, 0)),
			[]*qjoin.Ranking{qjoin.Sum("x", "z"), qjoin.Min("x", "z"), qjoin.Max("x"), qjoin.Lex("x", "z")}},
		{"R(x,x,x),S(x,y),T(y,y)", qjoin.NewQuery(at("R", "x", "x", "x"), at("S", "x", "y"), at("T", "y", "y")),
			qjoin.NewDB().MustAdd("R", 3, rows(90, 3, 12, 0, 1, 2)).MustAdd("S", 2, rows(120, 2, 12, 0)).MustAdd("T", 2, rows(70, 2, 12, 0, 1)),
			[]*qjoin.Ranking{qjoin.Sum("x", "y"), qjoin.Min("x", "y"), qjoin.Max("y", "x"), qjoin.Lex("y", "x")}},
		{"R(x,y),R(y,y)", qjoin.NewQuery(at("R", "x", "y"), at("R", "y", "y")),
			qjoin.NewDB().MustAdd("R", 2, rows(160, 2, 10, 0, 1)),
			[]*qjoin.Ranking{qjoin.Sum("x", "y"), qjoin.Min("x", "y"), qjoin.Max("x", "y"), qjoin.Lex("y", "x")}},
	}
}

// checkAgainstOracle holds a plan to the oracle over db and to a fresh compile
// of db at the same shard count: count, and per ranking and φ the answer, its
// run statistics, and its weight's place in the ranked oracle list.
func checkAgainstOracle(t *testing.T, name string, p *qjoin.Prepared, q *qjoin.Query, db *qjoin.DB, ranks []*qjoin.Ranking) {
	t.Helper()
	oracle := testutil.BruteForce(q, db.Unwrap())
	n := len(oracle)
	if got := p.Count().Int64(); got != int64(n) {
		t.Fatalf("%s: |Q(D)| = %d, brute force %d", name, got, n)
	}
	fresh, err := qjoin.Prepare(q, db, qjoin.Options{Parallelism: 2})
	if p.Key() != "" {
		fresh, err = qjoin.PrepareSharded(q, db, p.Shards(), qjoin.Options{Parallelism: 2})
	}
	if err != nil {
		t.Fatal(err)
	}
	for ri, f := range ranks {
		for _, phi := range []float64{0, 0.25, 0.5, 1} { // dyadic: ⌊φ·n⌋ is the same in floats and exactly
			a, s, err := p.QuantileStats(f, phi)
			if n == 0 {
				if !errors.Is(err, qjoin.ErrNoAnswers) {
					t.Fatalf("%s rank %d φ=%v: %v on an empty answer set, want ErrNoAnswers", name, ri, phi, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s rank %d φ=%v: %v", name, ri, phi, err)
			}
			wa, ws, err := fresh.QuantileStats(f, phi)
			if err != nil {
				t.Fatal(err)
			}
			if s.Decomp != nil { // wall time and incremental-work counters differ by construction
				s.Decomp, ws.Decomp = nil, nil
			}
			if !reflect.DeepEqual(a, wa) || !reflect.DeepEqual(s, ws) {
				t.Errorf("%s rank %d φ=%v: %v %+v, fresh compile %v %+v", name, ri, phi, a, s, wa, ws)
			}
			k := min(int(float64(n)*phi), n-1)
			if below, equal := testutil.RankOf(oracle, f, q.Vars(), a.Weight); k < below || k >= below+equal {
				t.Errorf("%s rank %d φ=%v: weight %v occupies ranks [%d,%d), want index %d of %d", name, ri, phi, a.Weight, below, below+equal, k, n)
			}
		}
	}
}

// rowFor draws a row that keeps, or violates, the equality of the positions
// same.
func rowFor(rng *rand.Rand, arity int, dom int64, same []int, violate bool) []int64 {
	row := make([]int64, arity)
	for j := range row {
		row[j] = rng.Int63n(dom)
	}
	for _, j := range same[1:] {
		row[j] = row[same[0]]
	}
	if violate {
		row[same[1]] = row[same[0]] + 1 + rng.Int63n(3)
	}
	return row
}

func TestRepeatedVariablesEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(2121))
	// The relation and positions each instance's delta chain aims at, and
	// whether a row that violates the equality there joins nothing at all (under
	// the self-join, R(x,y) still reads it).
	target := map[string]struct {
		rel   string
		arity int
		same  []int
		inert bool
	}{
		"R(x,y,x),S(y,z)":        {"R", 3, []int{0, 2}, true},
		"R(x,x),S(x,z)":          {"R", 2, []int{0, 1}, true},
		"R(x,x,x),S(x,y),T(y,y)": {"T", 2, []int{0, 1}, true},
		"R(x,y),R(y,y)":          {"R", 2, []int{0, 1}, false},
	}
	for _, inst := range repeatedVarInstances(rng) {
		for _, shards := range []int{0, 3} {
			name := fmt.Sprintf("%s shards=%d", inst.name, shards)
			p, err := qjoin.Prepare(inst.q, inst.db, qjoin.Options{Parallelism: 2})
			if shards > 0 {
				p, err = qjoin.PrepareSharded(inst.q, inst.db, shards, qjoin.Options{Parallelism: 2})
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkAgainstOracle(t, name, p, inst.q, inst.db, inst.ranks)

			tg := target[inst.name]
			db := inst.db
			step := func(what string, d *qjoin.Delta, answersMove bool) {
				t.Helper()
				before := p.Count()
				next, err := p.Update(d)
				if err != nil {
					t.Fatalf("%s %s: %v", name, what, err)
				}
				if db, err = db.Apply(d); err != nil {
					t.Fatal(err)
				}
				if !answersMove && next.Count().Cmp(before) != 0 {
					t.Fatalf("%s %s: count moved %v → %v", name, what, before, next.Count())
				}
				checkAgainstOracle(t, name+" "+what, next, inst.q, db, inst.ranks)
				checkAgainstOracle(t, name+" "+what+" (the plan updated from)", p, inst.q, p.DB(), inst.ranks)
				p = next
			}
			bad1, bad2 := rowFor(rng, tg.arity, 9, tg.same, true), rowFor(rng, tg.arity, 9, tg.same, true)
			good1, good2 := rowFor(rng, tg.arity, 9, tg.same, false), rowFor(rng, tg.arity, 9, tg.same, false)
			step("insert violating rows", qjoin.NewDelta().Insert(tg.rel, bad1, bad2, bad1), !tg.inert)
			step("insert satisfying rows", qjoin.NewDelta().Insert(tg.rel, good1, good2), true)
			step("delete violating rows", qjoin.NewDelta().Delete(tg.rel, bad1, bad1, bad2), !tg.inert)
			step("delete then reinsert", qjoin.NewDelta().Delete(tg.rel, good1).Insert(tg.rel, good1).Insert(tg.rel, bad2), true)
			step("delete a satisfying row", qjoin.NewDelta().Delete(tg.rel, good2), true)
			for round := 0; round < 3; round++ {
				step(fmt.Sprintf("random round %d", round), randomDelta(rng, db.Unwrap(), db.Relations(), 12, 9), true)
			}

			// A snapshot of such a plan restores to the same answers and keeps
			// absorbing deltas: the restored engines re-derive the row maps.
			loaded := snapRoundTrip(t, p)
			assertPlansAgree(t, p, loaded, inst.ranks)
			d := qjoin.NewDelta().Insert(tg.rel, rowFor(rng, tg.arity, 9, tg.same, false), rowFor(rng, tg.arity, 9, tg.same, true))
			if loaded, err = loaded.Update(d); err != nil {
				t.Fatal(err)
			}
			if db, err = db.Apply(d); err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, name+" restored, then updated", loaded, inst.q, db, inst.ranks)
		}
	}
}

// An atom whose every row violates its equality compiles to an empty plan, and
// the first satisfying row brings it to life.
func TestRepeatedVariableEmptyPlan(t *testing.T) {
	q := qjoin.NewQuery(qjoin.NewAtom("R", "x", "x"), qjoin.NewAtom("S", "x", "z"))
	db := qjoin.NewDB().MustAdd("R", 2, [][]int64{{1, 2}, {2, 1}, {3, 4}}).MustAdd("S", 2, [][]int64{{1, 7}, {2, 8}})
	ranks := []*qjoin.Ranking{qjoin.Sum("x", "z"), qjoin.Max("x", "z")}
	for _, shards := range []int{0, 3} {
		p, err := qjoin.Prepare(q, db)
		if shards > 0 {
			p, err = qjoin.PrepareSharded(q, db, shards)
		}
		if err != nil {
			t.Fatal(err)
		}
		if p.Count().Sign() != 0 {
			t.Fatalf("shards=%d: count %v, want 0", shards, p.Count())
		}
		if _, err := p.Quantile(ranks[0], 0.5); !errors.Is(err, qjoin.ErrNoAnswers) {
			t.Fatalf("shards=%d: %v, want ErrNoAnswers", shards, err)
		}
		d := qjoin.NewDelta().Insert("R", []int64{2, 2}, []int64{5, 6})
		next, err := p.Update(d)
		if err != nil {
			t.Fatal(err)
		}
		mutated, err := db.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, fmt.Sprintf("shards=%d after the first satisfying row", shards), next, q, mutated, ranks)
		if next.Count().Int64() != 1 {
			t.Fatalf("shards=%d: count %v, want 1", shards, next.Count())
		}
	}
}

// A cyclic query with a repeated-variable atom inside a bag: the
// decomposition is computed over the normalized query, and the update path
// (bag re-materialization) maps a source delta through the atom's row map.
func TestRepeatedVariableInsideABag(t *testing.T) {
	rng := rand.New(rand.NewSource(2122))
	edges := func(n int, dom int64, loops bool) [][]int64 {
		out := make([][]int64, n)
		for i := range out {
			out[i] = []int64{rng.Int63n(dom), rng.Int63n(dom)}
			if loops && i%3 != 0 {
				out[i][1] = out[i][0]
			}
		}
		return out
	}
	q := qjoin.NewQuery(qjoin.NewAtom("L", "x", "x"), qjoin.NewAtom("R", "x", "y"), qjoin.NewAtom("S", "y", "z"), qjoin.NewAtom("T", "z", "x"))
	db := qjoin.NewDB().MustAdd("L", 2, edges(40, 8, true)).MustAdd("R", 2, edges(120, 8, false)).
		MustAdd("S", 2, edges(120, 8, false)).MustAdd("T", 2, edges(120, 8, false))
	ranks := []*qjoin.Ranking{qjoin.Sum("x", "y"), qjoin.Min("x", "z"), qjoin.Max("y", "z"), qjoin.Lex("z", "x")}
	p, err := qjoin.Prepare(q, db, qjoin.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, s, err := p.QuantileStats(ranks[0], 0.5); err != nil || s.Decomp == nil {
		t.Fatalf("the query did not go through a decomposition: %+v, %v", s, err)
	}
	checkAgainstOracle(t, "fresh", p, q, db, ranks)
	for round, d := range []*qjoin.Delta{
		qjoin.NewDelta().Insert("L", []int64{1, 2}, []int64{3, 7}), // violating: no bag changes
		qjoin.NewDelta().Insert("L", []int64{6, 6}, []int64{7, 7}).Delete("L", []int64{1, 2}),
		randomDelta(rng, db.Unwrap(), db.Relations(), 20, 8),
	} {
		next, err := p.Update(d)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if db, err = db.Apply(d); err != nil {
			t.Fatal(err)
		}
		if round == 0 && next.Count().Cmp(p.Count()) != 0 {
			t.Fatalf("violating rows moved the count %v → %v", p.Count(), next.Count())
		}
		checkAgainstOracle(t, fmt.Sprintf("round %d", round), next, q, db, ranks)
		p = next
	}
	loaded := snapRoundTrip(t, p)
	checkAgainstOracle(t, "restored", loaded, q, db, ranks)
	d := qjoin.NewDelta().Insert("L", []int64{2, 2}, []int64{2, 3})
	if loaded, err = loaded.Update(d); err != nil {
		t.Fatal(err)
	}
	if db, err = db.Apply(d); err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, "restored, then updated", loaded, q, db, ranks)
}
