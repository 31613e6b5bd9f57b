package trim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/testutil"
)

// narrowBounds adds to boundsFor the bands a warm descent's slices look like,
// around the weight w of a random answer: the band of w's class alone, for LEX
// also the band of every weight whose first position is w's (a point interval
// on the most significant variable), bands with a bound at either end of
// int64, and empty ones.
func narrowBounds(rng *rand.Rand, all [][]relation.Value, vars []query.Var, f *ranking.Func) [][2]ranking.Bound {
	w := ranking.NewAnswerWeigher(f, vars).WeightOf(all[rng.Intn(len(all))])
	at := func(v ranking.Weightv) ranking.Bound { return ranking.Finite(v) }
	fill := func(x int64) ranking.Weightv {
		if f.Agg != ranking.Lex {
			return ranking.Weightv{K: x}
		}
		return ranking.Weightv{Vec: slices.Repeat([]int64{x}, len(f.Vars))}
	}
	lo, hi := at(fill(math.MinInt64)), at(fill(math.MaxInt64))
	out := [][2]ranking.Bound{{lo, hi}, {lo, at(w)}, {at(w), hi}, {at(w), at(w)}, {hi, lo}}
	// The band of w's class alone: w's last position one below and one above.
	step := func(by int64) (ranking.Weightv, bool) {
		v := w.Clone()
		p := &v.K
		if f.Agg == ranking.Lex {
			p = &v.Vec[len(v.Vec)-1]
		}
		if *p == math.MinInt64 && by < 0 || *p == math.MaxInt64 && by > 0 {
			return v, false
		}
		*p += by
		return v, true
	}
	if below, ok := step(-1); ok {
		if above, ok := step(1); ok {
			out = append(out, [2]ranking.Bound{at(below), at(above)}, [2]ranking.Bound{at(below), hi}, [2]ranking.Bound{lo, at(above)})
		}
	}
	if f.Agg == ranking.Lex {
		first := func(x int64) ranking.Weightv {
			v := fill(x)
			v.Vec[0] = w.Vec[0]
			return v
		}
		out = append(out, [2]ranking.Bound{at(first(math.MinInt64)), at(first(math.MaxInt64))})
	}
	return out
}

// A box seeded from a weight order keeps the rows a scanned one keeps: over
// the differential corpus — paths, a star, a self-join, relations with
// duplicate rows — under the corpus's rankings and random ones (some with
// custom weights, which build no order and scan), every band boundsFor and
// narrowBounds give is cut twice, from an instance whose cache holds the
// ranking's orders and from one without, and the two bands hold the same
// relations row for row and derive the same tree: the same gid arrays, each
// the tree a fresh build over the band would make. Every shape seeds some box.
func TestSeededBoxesMatchScannedBoxes(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for k, c := range testutil.FuzzCorpus(rng) {
		q, db := query.Normalize(c.Q, c.DB)
		e := freshExec(t, Instance{Q: q, DB: db})
		all := testutil.BruteForce(q, db)
		vars := q.Vars()
		ranks := rankingsOver(rng, vars, k)
		for _, f := range c.Ranks {
			if f.Agg != ranking.Sum {
				ranks = append(ranks, f)
			}
		}
		seeded, nonEmpty := 0, 0
		for _, f := range ranks {
			cache := NewCache()
			cache.WeightOrders(Instance{Q: q, DB: db, Exec: e}, f)
			if f.Weight != nil && cache.OrdersBuilt() != 0 {
				t.Fatalf("%s: a custom-weight ranking built %d orders", c.Name, cache.OrdersBuilt())
			}
			for _, b := range append(boundsFor(rng, all, vars, f), narrowBounds(rng, all, vars, f)...) {
				name := fmt.Sprintf("%s %s%v custom=%v (%v, %v)", c.Name, f.Agg, f.Vars, f.Weight != nil, b[0], b[1])
				scr := new(Scratch)
				got, err := Band(Instance{Q: q, DB: db, Exec: e, Cache: cache, Scratch: scr}, f, b[0], b[1])
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, err := Band(Instance{Q: q, DB: db, Exec: e}, f, b[0], b[1])
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				seeded += scr.seeded
				if scr.seeded > 0 && got.DB.Size() > 0 {
					nonEmpty++
				}
				sameBand(t, name, got, want)
			}
		}
		if seeded == 0 {
			t.Errorf("%s: no box was seeded", c.Name)
		}
		t.Logf("%s: %d seeded boxes, %d in bands with rows", c.Name, seeded, nonEmpty)
	}
}

// sameBand fails unless two cuts of one band are the same instance: the same
// relations row for row and, node for node, the same gid arrays, and got's
// tree is a fresh build's.
func sameBand(t *testing.T, name string, got, want Instance) {
	t.Helper()
	for _, atom := range want.Q.Atoms {
		if g, w := got.DB.Get(atom.Rel), want.DB.Get(atom.Rel); !g.Equal(w) {
			t.Fatalf("%s: %s holds %d rows, the scan's %d, or they differ", name, atom.Rel, g.Len(), w.Len())
		}
	}
	if (got.Exec == nil) != (want.Exec == nil) {
		t.Fatalf("%s: derived a tree %v, the scan %v", name, got.Exec != nil, want.Exec != nil)
	}
	if got.Exec == nil {
		return
	}
	for _, n := range want.Exec.T.Nodes {
		if n.Parent < 0 {
			continue
		}
		if !slices.Equal(got.Exec.Groups[n.ID].RowGid, want.Exec.Groups[n.ID].RowGid) || !slices.Equal(got.Exec.ParentGids(n.ID), want.Exec.ParentGids(n.ID)) {
			t.Fatalf("%s: node %d: gid arrays differ from the scan's", name, n.ID)
		}
	}
	testutil.SameExec(t, name, got.Exec, freshExec(t, got))
}

// sortedBy orders indexes by weight, ties by index, whether the weights span
// less than 2³² (sorted packed beside their index) or more, up to both ends of
// int64.
func TestSortedByOrdersByWeightThenIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 200; trial++ {
		w := make([]int64, rng.Intn(64))
		span := []int64{4, 1 << 31, 1 << 40, math.MaxInt64}[trial%4]
		for i := range w {
			w[i] = rng.Int63n(span) - span/2
			if trial%4 == 3 && rng.Intn(8) == 0 {
				w[i] = []int64{math.MinInt64, math.MaxInt64}[rng.Intn(2)]
			}
		}
		want := make([]int32, len(w))
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(w[a], w[b]) })
		if got := sortedBy(len(w), func(i int) int64 { return w[i] }); !slices.Equal(got, want) {
			t.Fatalf("weights %v: order %v, want %v", w, got, want)
		}
	}
}
