package qjoin_test

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"github.com/quantilejoins/qjoin"
)

// cyclicShape is one cyclic query over random edge relations. lone names the
// relation the second delta of TestCyclicAnswersArePinned touches alone: the
// one a bag covers without joining it, where the shape has such an atom.
type cyclicShape struct {
	name string
	q    *qjoin.Query
	db   *qjoin.DB
	dom  int64
	lone string
}

func pinnedCyclicShapes(rng *rand.Rand) []cyclicShape {
	edges := func(db *qjoin.DB, dom int64, names ...string) *qjoin.DB {
		for _, name := range names {
			db.MustAdd(name, 2, randomEdges(rng, 110, dom))
		}
		return db
	}
	return []cyclicShape{
		{"triangle", triangleQuery(), edges(qjoin.NewDB(), 9, "R", "S", "T"), 9, "T"},
		{"4-cycle", fourCycleQuery(), edges(qjoin.NewDB(), 7, "E1", "E2", "E3", "E4"), 7, "E4"},
		{"triangle with an ear", qjoin.NewQuery(
			qjoin.NewAtom("R", "x", "y"),
			qjoin.NewAtom("S", "y", "z"),
			qjoin.NewAtom("T", "z", "x"),
			qjoin.NewAtom("D", "x", "w"),
		), edges(qjoin.NewDB(), 8, "R", "S", "T", "D"), 8, "T"},
		{"two closing edges", qjoin.NewQuery(
			qjoin.NewAtom("R", "x", "y"),
			qjoin.NewAtom("S", "y", "z"),
			qjoin.NewAtom("T", "z", "x"),
			qjoin.NewAtom("U", "x", "z"),
		), edges(qjoin.NewDB(), 6, "R", "S", "T", "U"), 6, "U"},
		{"self-join triangle", qjoin.NewQuery(
			qjoin.NewAtom("E", "x", "y"),
			qjoin.NewAtom("E", "y", "z"),
			qjoin.NewAtom("E", "z", "x"),
		), edges(qjoin.NewDB(), 8, "E"), 8, "E"},
	}
}

// Exact answers of a cyclic query are a function of the query and its data
// alone, whatever its bags hold. Pinned to a digest: the count and the MIN,
// MAX and LEX quantiles at five φ's of five cyclic shapes — a triangle, the
// 4-cycle, a triangle with an ear, a triangle with two closing edges and a
// self-join triangle — each fresh, after two deltas (the second touching one
// relation alone) and restored from a snapshot of the updated plan.
func TestCyclicAnswersArePinned(t *testing.T) {
	h := fnv.New64a()
	answers := func(w io.Writer, p *qjoin.Prepared, q *qjoin.Query) {
		fmt.Fprintln(w, p.Count())
		vars := q.Vars()
		for _, f := range []*qjoin.Ranking{qjoin.Min(vars...), qjoin.Max(vars...), qjoin.Lex(vars...)} {
			for _, phi := range []float64{0, 0.25, 0.5, 0.9, 1} {
				a, err := p.Quantile(f, phi)
				if err != nil {
					fmt.Fprintln(w, err)
					continue
				}
				fmt.Fprintln(w, a.Values, a.Weight)
			}
		}
	}
	rng := rand.New(rand.NewSource(29))
	for _, s := range pinnedCyclicShapes(rng) {
		p, err := qjoin.Prepare(s.q, s.db)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		fmt.Fprintln(h, s.name, "fresh")
		answers(h, p, s.q)
		cur := s.db
		for round, names := range [][]string{cur.Relations(), {s.lone}} {
			delta := randomDelta(rng, cur.Unwrap(), names, 12, s.dom)
			if p, err = p.Update(delta); err != nil {
				t.Fatalf("%s: update %d: %v", s.name, round, err)
			}
			if cur, err = cur.Apply(delta); err != nil {
				t.Fatalf("%s: apply %d: %v", s.name, round, err)
			}
		}
		fmt.Fprintln(h, s.name, "updated")
		answers(h, p, s.q)
		var buf bytes.Buffer
		if err := p.Snapshot(&buf); err != nil {
			t.Fatalf("%s: snapshot: %v", s.name, err)
		}
		restored, err := qjoin.LoadPreparedBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: restore: %v", s.name, err)
		}
		fmt.Fprintln(h, s.name, "restored")
		answers(h, restored, s.q)
	}
	const want = 0x15bfc0de056889e1
	if got := h.Sum64(); got != want {
		t.Fatalf("digest %#x, want %#x: a cyclic query changed its answers", got, uint64(want))
	}
}

// prefilterTriangle is the plan testdata/triangle_prefilter.qjsn was written
// from, by the code whose bags joined their own atoms only: a triangle over
// 80 random edges per relation on [0, 12), counted once.
func prefilterTriangle(t *testing.T) (*qjoin.Query, *qjoin.DB) {
	t.Helper()
	rng := rand.New(rand.NewSource(2929))
	db := qjoin.NewDB()
	for _, name := range []string{"R", "S", "T"} {
		db.MustAdd(name, 2, randomEdges(rng, 80, 12))
	}
	return triangleQuery(), db
}

// A triangle snapshot written before bags were semijoined with the atoms they
// cover holds larger bags than a fresh plan does. It must still load, answer
// byte-identically to a fresh plan, and keep doing so after updates — one
// touching the covered atom alone, one touching a joined atom.
func TestPrefilterTriangleSnapshot(t *testing.T) {
	q, db := prefilterTriangle(t)
	b, err := os.ReadFile("testdata/triangle_prefilter.qjsn")
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := qjoin.LoadPreparedBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := qjoin.Prepare(q, db)
	if err != nil {
		t.Fatal(err)
	}
	agree := func(stage string, got, want *qjoin.Prepared) {
		t.Helper()
		if got.Count().Cmp(want.Count()) != 0 {
			t.Fatalf("%s: count %s, fresh %s", stage, got.Count(), want.Count())
		}
		vars := q.Vars()
		for _, f := range []*qjoin.Ranking{qjoin.Min(vars...), qjoin.Max(vars...), qjoin.Lex(vars...), qjoin.Sum(vars...)} {
			for _, phi := range []float64{0, 0.25, 0.5, 0.9, 1} {
				a1, err1 := got.Quantile(f, phi)
				a2, err2 := want.Quantile(f, phi)
				if (err1 == nil) != (err2 == nil) || err1 != nil && !errors.Is(err1, err2) {
					t.Fatalf("%s φ=%v: err %v, fresh %v", stage, phi, err1, err2)
				}
				if !reflect.DeepEqual(a1, a2) {
					t.Fatalf("%s φ=%v: answer %v, fresh %v", stage, phi, a1, a2)
				}
			}
		}
	}
	agree("loaded", loaded, fresh)
	cur := db
	rng := rand.New(rand.NewSource(29))
	for round, names := range [][]string{{"T"}, {"R"}} {
		delta := randomDelta(rng, cur.Unwrap(), names, 12, 12)
		if loaded, err = loaded.Update(delta); err != nil {
			t.Fatalf("update %d: %v", round, err)
		}
		if cur, err = cur.Apply(delta); err != nil {
			t.Fatalf("apply %d: %v", round, err)
		}
		if fresh, err = qjoin.Prepare(q, cur); err != nil {
			t.Fatal(err)
		}
		agree(fmt.Sprintf("update %d", round), loaded, fresh)
	}
}
