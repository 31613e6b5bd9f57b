// Differential tests of incremental maintenance: a plan maintained through
// Prepared.Update must be indistinguishable — byte-identical answers and run
// statistics — from a plan freshly prepared on the mutated database, across
// ranking families, quantile fractions, worker counts, and adversarial delta
// shapes (no-ops, duplicate inserts, delete-then-reinsert, multiplicities).
package qjoin_test

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/workload"
)

func rowKey(row []relation.Value) string {
	var enc relation.KeyEncoder
	return string(enc.Row(row))
}

// randomDelta builds a valid random delta against db: fresh inserts,
// duplicate inserts of existing tuples, deletes of available occurrences,
// delete-then-reinsert pairs, and insert-delete no-op pairs.
func randomDelta(rng *rand.Rand, db *relation.Database, names []string, nOps int, dom int64) *qjoin.Delta {
	type relState struct {
		arity int
		avail map[string]int
		rows  map[string][]relation.Value
		keys  []string
	}
	states := make(map[string]*relState, len(names))
	for _, name := range names {
		r := db.Get(name)
		st := &relState{arity: r.Arity(), avail: map[string]int{}, rows: map[string][]relation.Value{}}
		for i := 0; i < r.Len(); i++ {
			row := r.RowValues(i)
			k := rowKey(row)
			if st.avail[k] == 0 {
				st.keys = append(st.keys, k)
				st.rows[k] = row
			}
			st.avail[k]++
		}
		states[name] = st
	}
	track := func(st *relState, row []relation.Value) {
		k := rowKey(row)
		if st.avail[k] == 0 {
			st.keys = append(st.keys, k)
			st.rows[k] = row
		}
		st.avail[k]++
	}
	pickAvail := func(st *relState) ([]relation.Value, bool) {
		for try := 0; try < 8; try++ {
			if len(st.keys) == 0 {
				return nil, false
			}
			k := st.keys[rng.Intn(len(st.keys))]
			if st.avail[k] > 0 {
				return st.rows[k], true
			}
		}
		return nil, false
	}
	d := qjoin.NewDelta()
	for i := 0; i < nOps; i++ {
		name := names[rng.Intn(len(names))]
		st := states[name]
		freshRow := func() []relation.Value {
			row := make([]relation.Value, st.arity)
			for j := range row {
				row[j] = rng.Int63n(dom)
			}
			return row
		}
		switch rng.Intn(5) {
		case 0: // insert (fresh value draw; may collide into a duplicate insert)
			row := freshRow()
			d.Insert(name, row)
			track(st, row)
		case 1: // duplicate insert of an existing tuple
			if row, ok := pickAvail(st); ok {
				d.Insert(name, row)
				track(st, row)
			}
		case 2: // delete an available occurrence
			if row, ok := pickAvail(st); ok {
				d.Delete(name, row)
				st.avail[rowKey(row)]--
			}
		case 3: // delete-then-reinsert: net no-op on multiplicity, moves the tuple
			if row, ok := pickAvail(st); ok {
				d.Delete(name, row)
				d.Insert(name, row)
			}
		case 4: // insert-then-delete a fresh tuple: pure no-op
			row := freshRow()
			d.Insert(name, row)
			d.Delete(name, row)
		}
	}
	return d
}

func TestUpdateMatchesReprepare(t *testing.T) {
	phis := []float64{0, 0.25, 0.5, 0.75, 0.9, 1}
	workersGrid := []int{1, 2, 8}
	rng := rand.New(rand.NewSource(1234))

	type tc struct {
		name  string
		q     *qjoin.Query
		db    *qjoin.DB
		ranks []*qjoin.Ranking
		dom   int64
	}
	var cases []tc
	{
		q, idb := workload.Path(rng, 2, 120, 14)
		// Inject raw duplicates so refcounts start above 1.
		r1 := idb.Get("R1")
		for i := 0; i < 10; i++ {
			r1.AppendRow(r1.RowValues(rng.Intn(100)))
		}
		vars := q.Vars()
		cases = append(cases, tc{"path2-dups", q, qjoin.WrapDB(idb), []*qjoin.Ranking{
			qjoin.Sum(vars...), qjoin.Min(vars...), qjoin.Max(vars...), qjoin.Lex(vars...),
		}, 14})
	}
	{
		q, idb := workload.Path(rng, 3, 100, 10)
		cases = append(cases, tc{"path3", q, qjoin.WrapDB(idb), []*qjoin.Ranking{
			qjoin.Sum("x1", "x2", "x3"), qjoin.Max(q.Vars()...), qjoin.Lex("x1", "x4"),
		}, 10})
	}
	{
		q, idb := workload.Star(rng, 3, 90, 12, 12)
		cases = append(cases, tc{"star3", q, qjoin.WrapDB(idb), []*qjoin.Ranking{
			qjoin.Min(q.Vars()...), qjoin.Max(q.Vars()...),
		}, 12})
	}
	{
		q := qjoin.NewQuery(qjoin.NewAtom("R", "x", "y"), qjoin.NewAtom("R", "y", "z"))
		db := qjoin.NewDB()
		rows := make([][]int64, 0, 60)
		for i := 0; i < 60; i++ {
			rows = append(rows, []int64{rng.Int63n(9), rng.Int63n(9)})
		}
		db.MustAdd("R", 2, rows)
		cases = append(cases, tc{"selfjoin", q, db, []*qjoin.Ranking{
			qjoin.Min("x", "z"), qjoin.Max("x", "y", "z"), qjoin.Lex("x", "z"),
		}, 9})
	}

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			p, err := qjoin.Prepare(c.q, c.db)
			if err != nil {
				t.Fatal(err)
			}
			cur := c.db
			names := cur.Relations()
			for round := 0; round < 5; round++ {
				delta := randomDelta(rng, cur.Unwrap(), names, 14, c.dom)
				p2, err := p.Update(delta)
				if err != nil {
					t.Fatalf("round %d: Update: %v", round, err)
				}
				cur2, err := cur.Apply(delta)
				if err != nil {
					t.Fatalf("round %d: Apply: %v", round, err)
				}
				fresh, err := qjoin.Prepare(c.q, cur2)
				if err != nil {
					t.Fatalf("round %d: re-Prepare: %v", round, err)
				}

				if p2.Count().Cmp(fresh.Count()) != 0 {
					t.Fatalf("round %d: count %s, fresh %s", round, p2.Count(), fresh.Count())
				}
				// The lazily materialized database must equal the applied one,
				// relation by relation, raw multiplicities included.
				for _, name := range names {
					if !p2.DB().Unwrap().Get(name).Equal(cur2.Unwrap().Get(name)) {
						t.Fatalf("round %d: materialized DB diverged on %s", round, name)
					}
				}
				for _, f := range c.ranks {
					for _, phi := range phis {
						for _, w := range workersGrid {
							opts := qjoin.Options{Parallelism: w}
							a1, s1, err1 := p2.QuantileStats(f, phi, opts)
							a2, s2, err2 := fresh.QuantileStats(f, phi, opts)
							if (err1 == nil) != (err2 == nil) {
								t.Fatalf("round %d φ=%v w=%d: err %v vs fresh %v", round, phi, w, err1, err2)
							}
							if err1 != nil {
								if !errors.Is(err1, qjoin.ErrNoAnswers) || !errors.Is(err2, qjoin.ErrNoAnswers) {
									t.Fatalf("round %d φ=%v w=%d: unexpected errors %v / %v", round, phi, w, err1, err2)
								}
								continue
							}
							if !reflect.DeepEqual(a1, a2) {
								t.Fatalf("round %d φ=%v w=%d: answer %v, fresh %v", round, phi, w, a1, a2)
							}
							if *s1 != *s2 {
								t.Fatalf("round %d φ=%v w=%d: stats %+v, fresh %+v", round, phi, w, *s1, *s2)
							}
						}
					}
				}
				// Ranked enumeration and sampling walk the derived tree by
				// the maintained counts. Both must match a fresh plan exactly.
				if p2.Count().Sign() > 0 {
					k1, err1 := p2.TopK(c.ranks[0], 4)
					k2, err2 := fresh.TopK(c.ranks[0], 4)
					if err1 != nil || err2 != nil || !reflect.DeepEqual(k1, k2) {
						t.Fatalf("round %d: TopK diverged: %v/%v %v/%v", round, k1, err1, k2, err2)
					}
					_, rows1, err1 := p2.SampleAnswers(8, rand.New(rand.NewSource(99)))
					_, rows2, err2 := fresh.SampleAnswers(8, rand.New(rand.NewSource(99)))
					if err1 != nil || err2 != nil || !reflect.DeepEqual(rows1, rows2) {
						t.Fatalf("round %d: samples diverged", round)
					}
				}
				p, cur = p2, cur2
			}
		})
	}
}

// TestIncrementalUpdateAnswers is the acceptance check riding along with
// BenchmarkIncrementalUpdate: on the 32k-tuple binary join, post-update
// answers are byte-identical to a fresh Prepare on the mutated database
// across the SUM/MIN/MAX/LEX × φ grid at Parallelism 1, 2 and 8.
func TestIncrementalUpdateAnswers(t *testing.T) {
	q, db, base, mkDelta := incrementalBenchInstance(t)
	vars := q.Vars()
	ranks := []*qjoin.Ranking{qjoin.Sum(vars...), qjoin.Min(vars...), qjoin.Max(vars...), qjoin.Lex(vars...)}
	for _, batch := range []int{1, 64} {
		delta := mkDelta(batch)
		up, err := base.Update(delta)
		if err != nil {
			t.Fatal(err)
		}
		db2, err := db.Apply(delta)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := qjoin.Prepare(q, db2)
		if err != nil {
			t.Fatal(err)
		}
		if up.Count().Cmp(fresh.Count()) != 0 {
			t.Fatalf("batch %d: count %s, fresh %s", batch, up.Count(), fresh.Count())
		}
		for _, f := range ranks {
			for _, phi := range []float64{0.25, 0.5, 0.9} {
				for _, w := range []int{1, 2, 8} {
					opts := qjoin.Options{Parallelism: w}
					a1, s1, err1 := up.QuantileStats(f, phi, opts)
					a2, s2, err2 := fresh.QuantileStats(f, phi, opts)
					if err1 != nil || err2 != nil {
						t.Fatalf("batch %d φ=%v w=%d: %v / %v", batch, phi, w, err1, err2)
					}
					if !reflect.DeepEqual(a1, a2) || *s1 != *s2 {
						t.Fatalf("batch %d φ=%v w=%d: answer diverged from fresh prepare", batch, phi, w)
					}
				}
			}
		}
	}
}

// TestUpdateLongChain drives a lineage of 150 chained updates through the
// delta-chain fold (maxDeltaChain) and checks the lazily materialized
// database still equals the step-by-step Apply result.
func TestUpdateLongChain(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	q, idb := workload.Path(rng, 2, 100, 12)
	db := qjoin.WrapDB(idb)
	p, err := qjoin.Prepare(q, db)
	if err != nil {
		t.Fatal(err)
	}
	cur := db
	for i := 0; i < 150; i++ {
		d := qjoin.NewDelta().Insert("R1", []int64{int64(5000 + i), int64(i % 12)})
		if i%3 == 0 {
			d.Delete("R1", []int64{int64(5000 + i), int64(i % 12)}) // no-op pair
			d.Insert("R2", []int64{int64(i % 12), int64(7000 + i)})
		}
		if p, err = p.Update(d); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		if cur, err = cur.Apply(d); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	for _, name := range cur.Relations() {
		if !p.DB().Unwrap().Get(name).Equal(cur.Unwrap().Get(name)) {
			t.Fatalf("materialized %s diverged after 150 chained updates", name)
		}
	}
	fresh, err := qjoin.Prepare(q, cur)
	if err != nil {
		t.Fatal(err)
	}
	if p.Count().Cmp(fresh.Count()) != 0 {
		t.Fatalf("count after 150 updates: %s, fresh %s", p.Count(), fresh.Count())
	}
}

// TestUpdateRejectsDeleteAbsent: the public error contract, and atomicity of
// a rejected update at the plan level.
func TestUpdateRejectsDeleteAbsent(t *testing.T) {
	db := qjoin.NewDB().MustAdd("R", 2, [][]int64{{1, 2}}).MustAdd("S", 2, [][]int64{{2, 3}})
	q := qjoin.NewQuery(qjoin.NewAtom("R", "x", "y"), qjoin.NewAtom("S", "y", "z"))
	p, err := qjoin.Prepare(q, db)
	if err != nil {
		t.Fatal(err)
	}
	bad := qjoin.NewDelta().Insert("R", []int64{5, 6}).Delete("S", []int64{7, 7})
	if _, err := p.Update(bad); !errors.Is(err, qjoin.ErrDeleteAbsent) {
		t.Fatalf("Update err = %v, want ErrDeleteAbsent", err)
	}
	if _, err := db.Apply(bad); !errors.Is(err, qjoin.ErrDeleteAbsent) {
		t.Fatalf("Apply err = %v, want ErrDeleteAbsent", err)
	}
	// The plan is untouched and usable.
	if n := p.Count(); n.Int64() != 1 {
		t.Fatalf("count after rejected delta = %s", n)
	}
}

// TestUpdateConcurrent exercises the copy-on-write contract under -race:
// concurrent readers of the base plan, concurrent Updates from it, and
// queries on the derived plans.
func TestUpdateConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q, idb := workload.Path(rng, 2, 400, 40)
	db := qjoin.WrapDB(idb)
	p, err := qjoin.Prepare(q, db)
	if err != nil {
		t.Fatal(err)
	}
	f := qjoin.Sum(q.Vars()...)
	want, err := p.Median(f)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := qjoin.NewDelta().Insert("R1", []int64{1000 + int64(g), 2000 + int64(g)})
			p2, err := p.Update(d)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := p2.Median(f); err != nil {
				t.Error(err)
			}
			// The base plan keeps answering identically.
			a, err := p.Median(f)
			if err != nil || !reflect.DeepEqual(a, want) {
				t.Errorf("base plan disturbed: %v %v", a, err)
			}
		}()
	}
	wg.Wait()
}
