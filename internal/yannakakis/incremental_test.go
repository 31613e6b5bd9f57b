package yannakakis

import (
	"math/rand"
	"testing"

	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/workload"
)

// relDeltaFor removes up to nDel existing rows and adds up to nAdd fresh
// rows (values in [0, hi)) to a distinct relation.
func relDeltaFor(rng *rand.Rand, r *relation.Relation, nDel, nAdd int, hi int64) jointree.RelDelta {
	var enc relation.KeyEncoder
	rcols := r.Cols()
	present := make(map[string]struct{}, r.Len())
	for i := 0; i < r.Len(); i++ {
		present[string(enc.RowAt(rcols, i))] = struct{}{}
	}
	var d jointree.RelDelta
	picked := make(map[int]bool)
	for len(d.RemovedRows) < nDel && len(picked) < r.Len() {
		i := rng.Intn(r.Len())
		if picked[i] {
			continue
		}
		picked[i] = true
		row := r.RowValues(i)
		d.RemovedRows = append(d.RemovedRows, row)
	}
	for len(d.AddedRows) < nAdd {
		row := make([]relation.Value, r.Arity())
		for j := range row {
			row[j] = rng.Int63n(hi)
		}
		if _, dup := present[string(enc.Row(row))]; dup {
			continue
		}
		present[string(enc.Row(row))] = struct{}{}
		d.AddedRows = append(d.AddedRows, row)
	}
	return d
}

// TestUpdateCountsMatchesFresh checks the delta-counting pass against a full
// counting pass on the derived tree: per-tuple counts, per-group sums (same
// group-id layout) and the total must all be identical, across chained
// derivations and worker counts.
func TestUpdateCountsMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		var q, raw = workload.Hierarchy(rng, 200, 16)
		if trial%2 == 1 {
			q, raw = workload.Path(rng, 3, 150, 12)
		}
		db := relation.NewDatabase()
		for _, name := range raw.Names() {
			db.Add(raw.Get(name).Deduped())
		}
		tree, err := jointree.Build(q)
		if err != nil {
			t.Fatal(err)
		}
		e, err := jointree.NewExec(q, db, tree)
		if err != nil {
			t.Fatal(err)
		}
		counts := Count(e)
		for gen := 0; gen < 4; gen++ {
			deltas := make(map[string]jointree.RelDelta)
			for _, name := range e.DB.Names() {
				if rng.Intn(2) == 0 {
					continue
				}
				d := relDeltaFor(rng, e.DB.Get(name), rng.Intn(4), rng.Intn(4), 16)
				if !d.Empty() {
					deltas[name] = d
				}
			}
			if len(deltas) == 0 {
				continue
			}
			derived, changes, err := e.ApplyDelta(deltas)
			if err != nil {
				t.Fatal(err)
			}
			got := UpdateCounts(counts, derived, changes)
			want := Count(derived)
			if got.Total.Cmp(want.Total) != 0 {
				t.Fatalf("trial %d gen %d: total %s, want %s", trial, gen, got.Total, want.Total)
			}
			for id := range want.Tuple {
				if len(got.Tuple[id]) != len(want.Tuple[id]) {
					t.Fatalf("node %d: tuple count arrays differ in length", id)
				}
				for i := range want.Tuple[id] {
					if got.Tuple[id][i].Cmp(want.Tuple[id][i]) != 0 {
						t.Fatalf("node %d tuple %d: count %s, want %s", id, i, got.Tuple[id][i], want.Tuple[id][i])
					}
				}
				if len(got.Group[id]) != len(want.Group[id]) {
					t.Fatalf("node %d: group arrays differ in length: %d vs %d", id, len(got.Group[id]), len(want.Group[id]))
				}
				for g := range want.Group[id] {
					if got.Group[id][g].Cmp(want.Group[id][g]) != 0 {
						t.Fatalf("node %d group %d: sum %s, want %s", id, g, got.Group[id][g], want.Group[id][g])
					}
				}
			}
			e = derived
			counts = UpdateCounts(counts, derived, changes)
		}
	}
}
