package yannakakis

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/workload"
)

func answerKeys(rows [][]relation.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

func through(e *jointree.Exec, c *Counts, rows []NodeRows) [][]relation.Value {
	var out [][]relation.Value
	EnumerateThrough(e, c, rows, func(asn []relation.Value) bool {
		out = append(out, append([]relation.Value(nil), asn...))
		return true
	})
	return out
}

// TestEnumerateThroughIsTheAnswerDiff checks the restricted enumeration
// against the definition, over chained multi-relation deltas on three tree
// shapes: the answers through the removed rows of the base tree are exactly
// Q(old) − Q(new), those through the appended rows of the derived tree exactly
// Q(new) − Q(old), each listed once.
func TestEnumerateThroughIsTheAnswerDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	nLost, nGained := 0, 0
	for trial := 0; trial < 30; trial++ {
		var q *query.Query
		var raw *relation.Database
		switch trial % 3 {
		case 0:
			q, raw = workload.Hierarchy(rng, 120, 8)
		case 1:
			q, raw = workload.Path(rng, 4, 90, 7)
		default:
			q, raw = workload.Star(rng, 3, 80, 6, 7)
		}
		db := relation.NewDatabase()
		for _, name := range raw.Names() {
			db.Add(raw.Get(name).DedupedWorkers(1))
		}
		tree, err := jointree.Build(q)
		if err != nil {
			t.Fatal(err)
		}
		e, err := jointree.NewExecWorkers(q, db, tree, 1)
		if err != nil {
			t.Fatal(err)
		}
		counts := CountWorkers(e, 1)
		for gen := 0; gen < 4; gen++ {
			deltas := make(map[string]jointree.RelDelta)
			for _, name := range e.DB.Names() {
				if rng.Intn(3) == 0 {
					continue
				}
				if d := relDeltaFor(rng, e.DB.Get(name), rng.Intn(4), rng.Intn(4), 8); !d.Empty() {
					deltas[name] = d
				}
			}
			derived, changes, err := e.ApplyDelta(deltas, 1)
			if err != nil {
				t.Fatal(err)
			}
			newCounts := UpdateCounts(counts, derived, changes, 1)
			var removed, added []NodeRows
			for _, ch := range changes {
				removed = append(removed, NodeRows{Node: ch.Node, Rows: ch.RemovedIdx})
				added = append(added, NodeRows{Node: ch.Node, Rows: ch.AddedIdx})
			}
			lost := answerKeys(through(e, counts, removed))
			gained := answerKeys(through(derived, newCounts, added))

			before, after := make(map[string]int), make(map[string]int)
			for _, k := range answerKeys(Materialize(e)) {
				before[k]++
			}
			for _, k := range answerKeys(Materialize(derived)) {
				after[k]++
			}
			// A row deleted and re-inserted moves to the tail: the answers
			// through it are both lost and gained, which is the same diff.
			for _, k := range lost {
				if before[k]--; before[k] < 0 {
					t.Fatalf("trial %d gen %d: lost answer %s is not (or twice) an old answer", trial, gen, k)
				}
			}
			for _, k := range gained {
				before[k]++
			}
			for k, n := range before {
				if n != after[k] {
					t.Fatalf("trial %d gen %d: answer %s: old − lost + gained has %d, new has %d", trial, gen, k, n, after[k])
				}
			}
			for k, n := range after {
				if n != before[k] {
					t.Fatalf("trial %d gen %d: answer %s: new has %d, old − lost + gained has %d", trial, gen, k, n, before[k])
				}
			}
			nLost, nGained = nLost+len(lost), nGained+len(gained)
			e, counts = derived, newCounts
		}
	}
	if nLost == 0 || nGained == 0 {
		t.Fatalf("the deltas lost %d and gained %d answers in total: nothing was compared", nLost, nGained)
	}
}

// TestEnumerateThroughStops pins the early stop the caller's budget relies on.
func TestEnumerateThroughStops(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q, raw := workload.Star(rng, 3, 60, 2, 4)
	db := relation.NewDatabase()
	for _, name := range raw.Names() {
		db.Add(raw.Get(name).DedupedWorkers(1))
	}
	tree, err := jointree.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	e, err := jointree.NewExecWorkers(q, db, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	leaf := tree.BottomUp[0]
	all := make([]int, e.Rels[leaf].Len())
	for i := range all {
		all[i] = i
	}
	seen := 0
	EnumerateThrough(e, CountWorkers(e, 1), []NodeRows{{Node: leaf, Rows: all}}, func([]relation.Value) bool {
		seen++
		return seen < 5
	})
	if total, _ := CountWorkers(e, 1).Total.Uint64(); seen != 5 || total < 5 {
		t.Fatalf("walk delivered %d answers of %d after being stopped at 5", seen, total)
	}
}
