// A plan stores its database once. These tests hold the sharing to what it
// promises — a tree node reads the engine database's relation, not a copy; a
// duplicate-free input's columns are the engine's — and to what it must not
// cost: the input stays the caller's (rows appended to it never show through
// a plan; Update, Apply and the trims of a query never write to it), and
// concurrent compiles of one database do not race.
package qjoin_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/testutil"
	"github.com/quantilejoins/qjoin/internal/workload"
)

// sameColumns reports whether two relations are one column set.
func sameColumns(a, b *relation.Relation) bool {
	if a.Arity() != b.Arity() || a.Len() != b.Len() {
		return false
	}
	for j := 0; j < a.Arity() && a.Len() > 0; j++ {
		if &a.Col(j)[0] != &b.Col(j)[0] {
			return false
		}
	}
	return true
}

// checkNodesAreDatabaseRelations asserts, for every engine of the plan, that
// each tree node's relation is the engine database's relation of its atom.
func checkNodesAreDatabaseRelations(t *testing.T, name string, p *qjoin.Prepared) {
	t.Helper()
	for i, eng := range qjoin.Engines(p) {
		ex := eng.Exec()
		if ex.DB != eng.DB() {
			t.Fatalf("%s engine %d: the tree runs over a database that is not the engine's", name, i)
		}
		for _, n := range eng.Tree().Nodes {
			rel := eng.Query().Atoms[n.Atom].Rel
			if ex.Rels[n.ID] != eng.DB().Get(rel) {
				t.Fatalf("%s engine %d: node %d holds a relation of its own, not the database's %s", name, i, n.ID, rel)
			}
		}
	}
}

// Unrouted, sharded, decomposed, updated and restored plans all keep the
// invariant, over the corpora of the differential suites and the
// repeated-variable instances.
func TestNodesReadTheEngineDatabase(t *testing.T) {
	rng := rand.New(rand.NewSource(2123))
	insts := append(append(fuzzInstances(rng), cyclicFuzzInstances(rng)...), repeatedVarInstances(rng)...)
	for _, inst := range insts {
		for _, shards := range []int{0, 3} {
			name := fmt.Sprintf("%s shards=%d", inst.name, shards)
			p, err := qjoin.Prepare(inst.q, inst.db, qjoin.Options{Parallelism: 2})
			if shards > 0 {
				p, err = qjoin.PrepareSharded(inst.q, inst.db, shards, qjoin.Options{Parallelism: 2})
				if errors.Is(err, qjoin.ErrCyclicSharded) || errors.Is(err, qjoin.ErrNoShardKey) {
					continue
				}
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkNodesAreDatabaseRelations(t, name+" fresh", p)
			updated, err := p.Update(randomDelta(rng, inst.db.Unwrap(), inst.db.Relations(), 12, 9))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkNodesAreDatabaseRelations(t, name+" updated", updated)
			checkNodesAreDatabaseRelations(t, name+" updated from", p)
			loaded := snapRoundTrip(t, updated)
			checkNodesAreDatabaseRelations(t, name+" restored", loaded)
			if loaded, err = loaded.Update(randomDelta(rng, updated.DB().Unwrap(), inst.db.Relations(), 12, 9)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkNodesAreDatabaseRelations(t, name+" restored, then updated", loaded)
		}
	}
}

// On an input with no duplicate row the engine's columns are the input's own,
// through a self-join too, and a snapshot brings the sharing back — which it
// can only do by holding each column set once.
func TestDuplicateFreeInputIsNotCopied(t *testing.T) {
	var r, s [][]int64
	for i := int64(0); i < 300; i++ {
		r = append(r, []int64{i, i % 17})
		s = append(s, []int64{i % 17, i})
	}
	db := qjoin.NewDB().MustAdd("R", 2, r).MustAdd("S", 2, s)
	for _, q := range []*qjoin.Query{
		qjoin.NewQuery(qjoin.NewAtom("R", "x", "y"), qjoin.NewAtom("S", "y", "z")),
		qjoin.NewQuery(qjoin.NewAtom("R", "x", "y"), qjoin.NewAtom("S", "y", "z"), qjoin.NewAtom("S", "y", "w")),
	} {
		p, err := qjoin.Prepare(q, db)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := p.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := qjoin.LoadPreparedBytes(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for what, plan := range map[string]*qjoin.Prepared{"fresh": p, "restored": loaded} {
			checkNodesAreDatabaseRelations(t, what, plan)
			eng, raw := qjoin.Engines(plan)[0], plan.DB().Unwrap()
			for i, a := range q.Atoms {
				if got := eng.DB().Get(eng.Query().Atoms[i].Rel); !sameColumns(got, raw.Get(a.Rel)) {
					t.Errorf("%s plan of %s: atom %s reads a copy of the input relation", what, q, a)
				}
			}
		}
	}
}

// An input with duplicate rows is gathered once, not once per plan: plans
// compiled over one database — under different variable names, as a server's
// ad-hoc requests spell one query — read the same deduplicated columns, so what
// a set of cached plans retains does not depend on whether the data happened
// to hold a duplicate.
func TestPlansOverOneInputShareItsSet(t *testing.T) {
	var r, s [][]int64
	for i := int64(0); i < 300; i++ {
		r = append(r, []int64{i % 290, i % 290 % 17}) // ten rows twice
		s = append(s, []int64{i % 17, i})
	}
	db := qjoin.NewDB().MustAdd("R", 2, r).MustAdd("S", 2, s)
	var plans []*qjoin.Prepared
	for _, v := range []qjoin.Var{"a", "b"} {
		p, err := qjoin.Prepare(qjoin.NewQuery(qjoin.NewAtom("R", v+"x", v+"y"), qjoin.NewAtom("S", v+"y", v+"z")), db)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	first, second := qjoin.Engines(plans[0])[0].DB(), qjoin.Engines(plans[1])[0].DB()
	if first.Get("R").Len() != 290 || sameColumns(first.Get("R"), db.Unwrap().Get("R")) {
		t.Fatalf("R has duplicate rows: want a gathered set of 290, got %d rows", first.Get("R").Len())
	}
	for _, name := range []string{"R", "S"} {
		if !sameColumns(first.Get(name), second.Get(name)) {
			t.Errorf("the second plan holds a copy of %s of its own", name)
		}
	}
	if plans[0].Count().Cmp(plans[1].Count()) != 0 {
		t.Errorf("counts differ: %v, %v", plans[0].Count(), plans[1].Count())
	}
}

// A duplicate-free input is hashed once, not once per plan: two compiles over
// one database hold the same set view of each relation, which the relation
// remembers until it is written to. A row appended between two compiles
// reaches the second plan's count and answers, checked against brute force.
func TestRecompileReadsTheRememberedSetView(t *testing.T) {
	var r, s [][]int64
	for i := int64(0); i < 300; i++ {
		r = append(r, []int64{i, i % 17})
		s = append(s, []int64{i % 17, i})
	}
	db := qjoin.NewDB().MustAdd("R", 2, r).MustAdd("S", 2, s)
	q := qjoin.NewQuery(qjoin.NewAtom("R", "x", "y"), qjoin.NewAtom("S", "y", "z"))
	prepare := func() *qjoin.Prepared {
		t.Helper()
		p, err := qjoin.Prepare(q, db)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	first, second := prepare(), prepare()
	for _, name := range []string{"R", "S"} {
		got, want := qjoin.Engines(second)[0].DB().Get(name), qjoin.Engines(first)[0].DB().Get(name)
		if got != want || !sameColumns(got, db.Unwrap().Get(name)) {
			t.Errorf("the second plan holds a set view of %s of its own", name)
		}
	}
	db.Unwrap().Get("R").Append(1000, 3) // joins the S rows with y = 3
	grown := prepare()
	if qjoin.Engines(grown)[0].DB().Get("R") == qjoin.Engines(first)[0].DB().Get("R") {
		t.Fatal("a compile after the append read the view from before it")
	}
	oracle := testutil.BruteForce(q, db.Unwrap())
	if grown.Count().Int64() != int64(len(oracle)) || grown.Count().Cmp(first.Count()) <= 0 {
		t.Fatalf("after the append: count %v, oracle %d, before %v", grown.Count(), len(oracle), first.Count())
	}
	for _, f := range []*qjoin.Ranking{qjoin.Sum("x", "z"), qjoin.Max("x", "z")} {
		for _, phi := range []float64{0, 0.5, 1} {
			a, err := grown.Quantile(f, phi)
			if err != nil {
				t.Fatal(err)
			}
			atOracleRank(t, fmt.Sprintf("%v φ=%v", f, phi), oracle, q, f, phi, a)
		}
	}
}

// answersOf lists a plan's count and its exact answers with run statistics.
func answersOf(t *testing.T, p *qjoin.Prepared, ranks []*qjoin.Ranking) []any {
	t.Helper()
	out := []any{p.Count().String()}
	for _, f := range ranks {
		for _, phi := range []float64{0, 0.25, 0.5, 1} {
			a, s, err := p.QuantileStats(f, phi)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, a, s)
		}
	}
	return out
}

// The input stays the caller's. Rows appended to a raw relation after Prepare,
// after Update, after Apply and between the trims of two runs reach no plan
// and no derived database; nothing a plan does writes to the input.
func TestInputIsReadNotOwned(t *testing.T) {
	rng := rand.New(rand.NewSource(2124))
	q, gen := workload.Path(rng, 2, 400, 25)
	// Duplicate-free but not marked so, as DB.Add leaves a relation: the engine
	// then shares the columns under test behind a header of its own.
	input := func() *qjoin.DB {
		db := qjoin.NewDB()
		for _, name := range gen.Names() {
			r := gen.Get(name).Deduped()
			var rows [][]int64
			for i := 0; i < r.Len(); i++ {
				rows = append(rows, r.RowValues(i))
			}
			db.MustAdd(name, r.Arity(), rows)
		}
		return db
	}
	ranks := []*qjoin.Ranking{qjoin.Sum(q.Vars()...), qjoin.Max(q.Vars()...), qjoin.Lex(q.Vars()...)}
	snapshotOf := func(d *relation.Database) map[string][][]relation.Value {
		out := make(map[string][][]relation.Value)
		for _, name := range d.Names() {
			for i := 0; i < d.Get(name).Len(); i++ {
				out[name] = append(out[name], d.Get(name).RowValues(i))
			}
		}
		return out
	}
	appendJunk := func(d *relation.Database) {
		for _, name := range d.Names() {
			for i := int64(0); i < 40; i++ {
				d.Get(name).Append(i%25, (i*7)%25)
			}
		}
	}
	for _, shards := range []int{0, 3} {
		work := input() // a private copy per shard count: the test writes to it
		p, err := qjoin.Prepare(q, work, qjoin.Options{Parallelism: 2})
		if shards > 0 {
			p, err = qjoin.PrepareSharded(q, work, shards, qjoin.Options{Parallelism: 2})
		}
		if err != nil {
			t.Fatal(err)
		}
		if shards == 0 && !sameColumns(qjoin.Engines(p)[0].DB().Get("R1"), work.Unwrap().Get("R1")) {
			t.Fatal("the engine does not share the input's columns; this test would prove nothing")
		}
		want := answersOf(t, p, ranks) // several rounds of trims each
		if s := want[2].(*qjoin.RunStats); s.Iterations == 0 {
			t.Fatalf("shards=%d: the instance is too small to enter a round", shards)
		}

		// Update and Apply, from the untouched input.
		d := randomDelta(rng, work.Unwrap(), work.Relations(), 30, 25)
		rowsBefore := snapshotOf(work.Unwrap())
		updated, err := p.Update(d)
		if err != nil {
			t.Fatal(err)
		}
		applied, err := work.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(snapshotOf(work.Unwrap()), rowsBefore) {
			t.Fatalf("shards=%d: Update or Apply wrote to the input database", shards)
		}
		wantUpdated := answersOf(t, updated, ranks)
		appliedRows := snapshotOf(applied.Unwrap())
		touched := make(map[string]bool)
		for _, name := range work.Relations() {
			touched[name] = applied.Unwrap().Get(name) != work.Unwrap().Get(name)
		}

		// Now the caller keeps loading rows into its relations.
		appendJunk(work.Unwrap())
		if got := answersOf(t, p, ranks); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: rows appended to the input after Prepare reached the plan", shards)
		}
		if got := answersOf(t, updated, ranks); !reflect.DeepEqual(got, wantUpdated) {
			t.Errorf("shards=%d: rows appended to the input reached the plan derived by Update", shards)
		}
		for name, rows := range snapshotOf(applied.Unwrap()) {
			if touched[name] && !reflect.DeepEqual(rows, appliedRows[name]) {
				t.Errorf("shards=%d: rows appended to the input reached %s of the database Apply derived", shards, name)
			}
		}
		fresh, err := qjoin.Prepare(q, applied)
		if err != nil {
			t.Fatal(err)
		}
		if allTouched := touched["R1"] && touched["R2"]; allTouched && fresh.Count().Cmp(updated.Count()) != 0 {
			t.Errorf("shards=%d: Apply's database counts %v, the updated plan %v", shards, fresh.Count(), updated.Count())
		}
		// And the plan over the grown input sees the new rows: the append was real.
		grown, err := qjoin.Prepare(q, work)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(testutil.BruteForce(q, work.Unwrap())); grown.Count().Int64() != int64(n) || grown.Count().Cmp(p.Count()) == 0 {
			t.Errorf("shards=%d: plan over the grown input counts %v, oracle %d, plan before %v", shards, grown.Count(), n, p.Count())
		}
	}
}

// Concurrent compiles of one database, unrouted and sharded, beside readers
// of the plans they produce: run under -race. Deduplication marks its result
// distinct, never its input.
func TestConcurrentPreparesShareOneDB(t *testing.T) {
	rng := rand.New(rand.NewSource(2125))
	q, inner := workload.Path(rng, 3, 300, 20)
	db := qjoin.WrapDB(inner)
	f := qjoin.Sum(q.Vars()[0], q.Vars()[1])
	ref, err := qjoin.Prepare(q, db)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Quantile(f, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p, err := qjoin.Prepare(q, db, qjoin.Options{Parallelism: 1 + g%3})
			if g%2 == 1 {
				p, err = qjoin.PrepareSharded(q, db, 1+g%4, qjoin.Options{Parallelism: 2})
			}
			if err != nil {
				t.Error(err)
				return
			}
			got, err := p.Quantile(f, 0.5)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("goroutine %d: %v, %v; want %v", g, got, err, want)
			}
		}(g)
	}
	wg.Wait()
	for _, name := range inner.Names() {
		if inner.Get(name).IsDistinct() {
			t.Errorf("a compile marked the caller's relation %s distinct", name)
		}
	}
}
