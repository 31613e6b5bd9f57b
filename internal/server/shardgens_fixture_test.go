package server_test

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/server"
)

// shardGensFixture is a dataset snapshot of the 4-shard dataset "sharded"
// after two deltas, written by a server that still recorded per-shard
// generations under first-column routing: its meta section carries the
// non-empty generation list [3 2 2 1]. Data directories written by such a
// server must keep recovering.
var shardGensFixture = filepath.Join("..", "..", "testdata", "dataset_shardgens.qjsn")

// shardGensDeltas are the fixture's two deltas (generations 2 and 3) and the
// WAL record the recovery half of the test appends (generation 4).
func shardGensDeltas() []*qjoin.Delta {
	return []*qjoin.Delta{
		qjoin.NewDelta().Insert("R", []int64{20, 1}, []int64{21, 3}).Delete("S", []int64{0, 10}),
		qjoin.NewDelta().Insert("S", []int64{4, 40}).Delete("R", []int64{3, 3}),
		qjoin.NewDelta().Insert("R", []int64{22, 2}),
	}
}

// shardGensReplay rebuilds the fixture's data from scratch: the bulk load
// followed by the first n deltas.
func shardGensReplay(t *testing.T, n int) *qjoin.DB {
	t.Helper()
	var r, s [][]int64
	for i := int64(0); i < 16; i++ {
		r = append(r, []int64{i, i % 5})
	}
	for i := int64(0); i < 20; i++ {
		s = append(s, []int64{i % 5, 10 + i})
	}
	db := qjoin.NewDB().MustAdd("R", 2, r).MustAdd("S", 2, s)
	for _, d := range shardGensDeltas()[:n] {
		var err error
		if db, err = db.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// sameRelations fails unless got holds exactly want's relations, tuple for
// tuple in the same order.
func sameRelations(t *testing.T, got, want *qjoin.DB) {
	t.Helper()
	gn, wn := got.Relations(), want.Relations()
	if len(gn) != len(wn) {
		t.Fatalf("relations %v, want %v", gn, wn)
	}
	for i, name := range wn {
		if gn[i] != name {
			t.Fatalf("relations %v, want %v", gn, wn)
		}
		g, w := got.Unwrap().Get(name), want.Unwrap().Get(name)
		if !g.Equal(w) {
			t.Fatalf("relation %s = %v, want %v", name, g, w)
		}
	}
}

// TestShardGensSnapshotRestores: the pinned snapshot restores through
// LoadDatasetBytes and through Store.LoadAll (with one more WAL record on
// top) to the relations, generation and shard count a fresh replay gives.
func TestShardGensSnapshotRestores(t *testing.T) {
	buf, err := os.ReadFile(shardGensFixture)
	if err != nil {
		t.Fatal(err)
	}

	db, meta, err := qjoin.LoadDatasetBytes(buf)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Name != "sharded" || meta.Gen != 3 || meta.Shards != 4 {
		t.Fatalf("meta name %q gen %d shards %d, want \"sharded\" 3 4", meta.Name, meta.Gen, meta.Shards)
	}
	sameRelations(t, db, shardGensReplay(t, 2))

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "sharded.snap"), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := server.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendDelta("sharded", 4, shardGensDeltas()[2]); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = server.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recovered, err := st.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 {
		t.Fatalf("recovered %d datasets, want 1", len(recovered))
	}
	rec := recovered[0]
	if rec.Name != "sharded" || rec.Gen != 4 || rec.Shards != 4 || rec.Replayed != 1 {
		t.Fatalf("recovered name %q gen %d shards %d replayed %d, want \"sharded\" 4 4 1",
			rec.Name, rec.Gen, rec.Shards, rec.Replayed)
	}
	sameRelations(t, rec.DB, shardGensReplay(t, 3))
}
