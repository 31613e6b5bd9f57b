package yannakakis

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/testutil"
)

func directOf(t testing.TB, q *query.Query, db *relation.Database) *Direct {
	t.Helper()
	e := execOf(t, q, db)
	return NewDirect(e, CountWorkers(e, 1))
}

// checkDirect holds the direct-access index of (e, c) to AnswersAt: the same
// answer at every position. checkGuided runs it on every instance it checks.
func checkDirect(t *testing.T, name string, e *jointree.Exec, c *Counts) {
	t.Helper()
	d := NewDirect(e, c)
	n, _ := d.N().Uint64()
	every := make([]int, n)
	for i := range every {
		every[i] = i
	}
	asn := make([]relation.Value, len(e.Q.Vars()))
	AnswersAt(e, c, every, func(i int, want []relation.Value) {
		if d.At(counting.FromInt(i), asn); !slices.Equal(asn, want) {
			t.Fatalf("%s: direct access at %d is %v, AnswersAt's is %v", name, i, asn, want)
		}
	})
}

// Decoding every index yields exactly the answer set, without duplicates.
func TestDirectAtIsBijective(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		q, db := testutil.RandomTreeInstance(rng, 2+rng.Intn(3), 1+rng.Intn(10), 4)
		d := directOf(t, q, db)
		n, ok := d.N().Uint64()
		if !ok {
			t.Fatal("test instance too large")
		}
		want := testutil.BruteForce(q, db)
		if uint64(len(want)) != n {
			t.Fatalf("N = %d, brute force = %d", n, len(want))
		}
		var got [][]relation.Value
		asn := make([]relation.Value, len(q.Vars()))
		seen := make(map[string]bool)
		for i := uint64(0); i < n; i++ {
			d.At(counting.FromUint64(i), asn)
			key := fmt.Sprint(asn)
			if seen[key] {
				t.Fatalf("duplicate answer at index %d: %v", i, asn)
			}
			seen[key] = true
			got = append(got, append([]relation.Value(nil), asn...))
		}
		if !testutil.SameAnswerSet(got, want) {
			t.Fatalf("decoded set differs from brute force on %s", q)
		}
	}
}

func TestDirectAtOutOfRangePanics(t *testing.T) {
	q, db := testutil.Fig1Instance()
	d := directOf(t, q, db)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	asn := make([]relation.Value, len(q.Vars()))
	d.At(d.N(), asn)
}

func TestDirectSkipsDanglingTuples(t *testing.T) {
	q := query.New(
		query.Atom{Rel: "A", Vars: []query.Var{"x", "y"}},
		query.Atom{Rel: "B", Vars: []query.Var{"y", "z"}},
	)
	db := relation.NewDatabase()
	db.Add(relation.FromRows("A", 2, [][]relation.Value{{1, 10}, {2, 99}}))
	db.Add(relation.FromRows("B", 2, [][]relation.Value{{10, 5}, {10, 6}}))
	d := directOf(t, q, db)
	if n, _ := d.N().Uint64(); n != 2 {
		t.Fatalf("N = %d", n)
	}
	asn := make([]relation.Value, 3)
	for i := uint64(0); i < 2; i++ {
		d.At(counting.FromUint64(i), asn)
		if asn[0] != 1 {
			t.Fatalf("dangling tuple decoded: %v", asn)
		}
	}
}

// Sampling hits every answer of a small instance and is roughly uniform.
func TestDirectSampleUniformity(t *testing.T) {
	q, db := testutil.Fig1Instance()
	d := directOf(t, q, db)
	n, _ := d.N().Uint64() // 13
	rng := rand.New(rand.NewSource(123))
	asn := make([]relation.Value, len(q.Vars()))
	hits := make(map[string]int)
	samples := 13000
	for i := 0; i < samples; i++ {
		d.Sample(rng, asn)
		hits[fmt.Sprint(asn)]++
	}
	if len(hits) != int(n) {
		t.Fatalf("sampled %d distinct answers, want %d", len(hits), n)
	}
	exp := float64(samples) / float64(n)
	for k, c := range hits {
		if float64(c) < exp*0.7 || float64(c) > exp*1.3 {
			t.Fatalf("answer %s sampled %d times, expected ~%.0f", k, c, exp)
		}
	}
}

func TestDirectSampleEmptyPanics(t *testing.T) {
	q := query.New(
		query.Atom{Rel: "A", Vars: []query.Var{"x"}},
		query.Atom{Rel: "B", Vars: []query.Var{"x"}},
	)
	db := relation.NewDatabase()
	db.Add(relation.FromRows("A", 1, [][]relation.Value{{1}}))
	db.Add(relation.FromRows("B", 1, [][]relation.Value{{2}}))
	d := directOf(t, q, db)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Sample(rand.New(rand.NewSource(1)), make([]relation.Value, 2))
}

func BenchmarkDirectBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	q, db := testutil.RandomPathInstance(rng, 3, 1<<14, 1<<10)
	e := execOf(b, q, db)
	c := CountWorkers(e, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewDirect(e, c)
	}
}

func BenchmarkDirectSample(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	q, db := testutil.RandomPathInstance(rng, 3, 1<<12, 1<<8)
	d := directOf(b, q, db)
	if d.N().IsZero() {
		b.Skip("empty instance")
	}
	asn := make([]relation.Value, len(q.Vars()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Sample(rng, asn)
	}
}
