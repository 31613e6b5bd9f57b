package workload

import (
	"github.com/quantilejoins/qjoin/internal/relation"
)

// UpdateBatches returns a batch builder over a generated database for the
// incremental-maintenance measurements (BenchmarkIncrementalUpdate): a batch
// of size b holds ⌈b/2⌉ fresh rows to insert into insertRel — values drawn
// from a base far above any generator domain, so they are guaranteed new —
// and ⌊b/2⌋ rows to delete from deleteRel, chosen among rows occurring
// exactly once there, so every delete is a real set-level deletion rather
// than a multiplicity decrement.
func UpdateBatches(db *relation.Database, insertRel, deleteRel string) func(batch int) (inserts, deletes [][]relation.Value) {
	r := db.Get(deleteRel)
	rcols := r.Cols()
	counts := make(map[string]int, r.Len())
	var enc relation.KeyEncoder
	for i := 0; i < r.Len(); i++ {
		counts[string(enc.RowAt(rcols, i))]++
	}
	var unique [][]relation.Value
	seen := make(map[string]bool)
	for i := 0; i < r.Len() && len(unique) < 4096; i++ {
		k := string(enc.RowAt(rcols, i))
		if counts[k] == 1 && !seen[k] {
			seen[k] = true
			unique = append(unique, r.RowValues(i))
		}
	}
	arity := db.Get(insertRel).Arity()
	return func(batch int) (inserts, deletes [][]relation.Value) {
		ins := (batch + 1) / 2
		for i := 0; i < ins; i++ {
			row := make([]relation.Value, arity)
			for j := range row {
				row[j] = relation.Value(1<<20 + i + j)
			}
			inserts = append(inserts, row)
		}
		for i := 0; i < batch-ins && i < len(unique); i++ {
			deletes = append(deletes, unique[i])
		}
		return inserts, deletes
	}
}
