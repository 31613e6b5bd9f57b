package server_test

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/server"
)

// durableServer builds a server over a Store rooted at dir, recovering
// whatever the directory holds — the in-process equivalent of restarting
// qjserve with the same -data-dir.
func durableServer(t testing.TB, dir string) (*server.Server, []server.Recovered) {
	t.Helper()
	st, err := server.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	recovered, err := st.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{Store: st})
	for _, rec := range recovered {
		s.RestoreDataset(rec)
	}
	return s, recovered
}

// queryBody is the reference query the recovery tests compare across
// restarts: answers must be byte-identical, generation included.
func queryBody(dataset string) server.QueryRequest {
	return server.QueryRequest{
		Dataset: dataset, Query: "R(x,y),S(y,z)", Rank: "sum(x,z)",
		Op: "quantiles", Phis: []float64{0.25, 0.5, 1.0},
	}
}

// TestRecoverAfterCrash: load → delta → "crash" (drop the server, keep the
// directory) → recover → the query response is byte-identical at the
// pre-crash generation, including a delta that lives only in the WAL.
func TestRecoverAfterCrash(t *testing.T) {
	dir := t.TempDir()
	s1, recovered := durableServer(t, dir)
	if len(recovered) != 0 {
		t.Fatalf("fresh directory recovered %d datasets", len(recovered))
	}
	h1 := s1.Handler()
	decodeAs(t, do(t, h1, "PUT", "/datasets/d", tinyLoad()), http.StatusOK, nil)
	var dresp server.DeltaResponse
	decodeAs(t, do(t, h1, "POST", "/datasets/d/delta", server.DeltaRequest{Ops: []server.DeltaOp{
		{Op: "insert", Rel: "R", Row: []int64{7, 2}},
		{Op: "delete", Rel: "S", Row: []int64{4, 20}},
	}}), http.StatusOK, &dresp)
	if dresp.Generation != 2 {
		t.Fatalf("delta generation = %d, want 2", dresp.Generation)
	}
	before := do(t, h1, "POST", "/query", queryBody("d"))
	if before.Code != http.StatusOK {
		t.Fatalf("pre-crash query: %d %s", before.Code, before.Body.String())
	}

	// No shutdown hook runs: the WAL record was fsynced at acknowledgement,
	// so simply abandoning s1 is a faithful kill -9.
	s2, recovered := durableServer(t, dir)
	if len(recovered) != 1 || recovered[0].Name != "d" || recovered[0].Gen != 2 || recovered[0].Replayed != 1 {
		t.Fatalf("recovered %+v", recovered)
	}
	after := do(t, s2.Handler(), "POST", "/query", queryBody("d"))
	if after.Code != http.StatusOK {
		t.Fatalf("post-recovery query: %d %s", after.Code, after.Body.String())
	}
	if !bytes.Equal(before.Body.Bytes(), after.Body.Bytes()) {
		t.Fatalf("post-recovery response differs:\n  before: %s\n  after:  %s", before.Body.String(), after.Body.String())
	}

	// Generations stay monotonic after recovery: the next delta is gen 3.
	decodeAs(t, do(t, s2.Handler(), "POST", "/datasets/d/delta", server.DeltaRequest{Ops: []server.DeltaOp{
		{Op: "insert", Rel: "S", Row: []int64{2, 40}},
	}}), http.StatusOK, &dresp)
	if dresp.Generation != 3 {
		t.Fatalf("post-recovery delta generation = %d, want 3", dresp.Generation)
	}
}

// TestRecoverSharded: a sharded dataset recovers with its shard count and
// generation intact, WAL replay included.
func TestRecoverSharded(t *testing.T) {
	dir := t.TempDir()
	s1, _ := durableServer(t, dir)
	load := tinyLoad()
	load.Shards = 4
	decodeAs(t, do(t, s1.Handler(), "PUT", "/datasets/d", load), http.StatusOK, nil)
	var dresp server.DeltaResponse
	decodeAs(t, do(t, s1.Handler(), "POST", "/datasets/d/delta", server.DeltaRequest{Ops: []server.DeltaOp{
		{Op: "insert", Rel: "R", Row: []int64{9, 2}},
	}}), http.StatusOK, &dresp)
	before := do(t, s1.Handler(), "POST", "/query", queryBody("d"))

	s2, recovered := durableServer(t, dir)
	if len(recovered) != 1 || recovered[0].Shards != 4 {
		t.Fatalf("recovered %+v", recovered)
	}
	snap, ok := s2.Registry().Get("d")
	if !ok {
		t.Fatal("dataset missing after recovery")
	}
	if snap.Gen != dresp.Generation || snap.Shards != 4 {
		t.Fatalf("recovered gen %d shards %d, want %d 4", snap.Gen, snap.Shards, dresp.Generation)
	}
	after := do(t, s2.Handler(), "POST", "/query", queryBody("d"))
	if !bytes.Equal(before.Body.Bytes(), after.Body.Bytes()) {
		t.Fatalf("post-recovery response differs:\n  before: %s\n  after:  %s", before.Body.String(), after.Body.String())
	}
}

// TestCompactEndpoint: POST snapshot folds the WAL into the snapshot file
// (no generation bump), and recovery replays nothing.
func TestCompactEndpoint(t *testing.T) {
	dir := t.TempDir()
	s1, _ := durableServer(t, dir)
	decodeAs(t, do(t, s1.Handler(), "PUT", "/datasets/d", tinyLoad()), http.StatusOK, nil)
	decodeAs(t, do(t, s1.Handler(), "POST", "/datasets/d/delta", server.DeltaRequest{Ops: []server.DeltaOp{
		{Op: "insert", Rel: "R", Row: []int64{7, 2}},
	}}), http.StatusOK, nil)
	var sresp server.SnapshotResponse
	decodeAs(t, do(t, s1.Handler(), "POST", "/datasets/d/snapshot", nil), http.StatusOK, &sresp)
	if !sresp.Compacted || sresp.Generation != 2 {
		t.Fatalf("compact response %+v", sresp)
	}
	// The WAL is now just a header; recovery comes purely from the snapshot.
	wal, err := os.Stat(filepath.Join(dir, "d.wal"))
	if err != nil || wal.Size() != 8 {
		t.Fatalf("post-compaction WAL: %v, size %d", err, wal.Size())
	}
	_, recovered := durableServer(t, dir)
	if len(recovered) != 1 || recovered[0].Gen != 2 || recovered[0].Replayed != 0 {
		t.Fatalf("recovered %+v", recovered)
	}

	// Compacting a missing dataset is a 404; without a store it is a 409
	// (exercised via a plain in-memory server).
	if w := do(t, s1.Handler(), "POST", "/datasets/nope/snapshot", nil); w.Code != http.StatusNotFound {
		t.Fatalf("missing dataset compact: %d", w.Code)
	}
	plain := server.New(server.Config{})
	decodeAs(t, do(t, plain.Handler(), "PUT", "/datasets/d", tinyLoad()), http.StatusOK, nil)
	if w := do(t, plain.Handler(), "POST", "/datasets/d/snapshot", nil); w.Code != http.StatusConflict {
		t.Fatalf("storeless compact: %d", w.Code)
	}
}

// TestSnapshotStream: GET /datasets/{name}/snapshot streams a loadable
// dataset snapshot — the blue/green handoff path. Booting a second server's
// data directory from the streamed bytes reproduces the dataset exactly.
func TestSnapshotStream(t *testing.T) {
	s1, _ := durableServer(t, t.TempDir())
	decodeAs(t, do(t, s1.Handler(), "PUT", "/datasets/d", tinyLoad()), http.StatusOK, nil)
	decodeAs(t, do(t, s1.Handler(), "POST", "/datasets/d/delta", server.DeltaRequest{Ops: []server.DeltaOp{
		{Op: "insert", Rel: "R", Row: []int64{7, 2}},
	}}), http.StatusOK, nil)
	w := do(t, s1.Handler(), "GET", "/datasets/d/snapshot", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("stream: %d %s", w.Code, w.Body.String())
	}
	db, meta, err := qjoin.LoadDatasetBytes(w.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if meta.Name != "d" || meta.Gen != 2 || db.Size() != tinyDB(t).Size()+1 {
		t.Fatalf("streamed meta %+v, size %d", meta, db.Size())
	}

	// Green side: drop the bytes into an empty data directory and boot.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "d.snap"), w.Body.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, recovered := durableServer(t, dir)
	if len(recovered) != 1 || recovered[0].Gen != 2 {
		t.Fatalf("green boot recovered %+v", recovered)
	}
	blue := do(t, s1.Handler(), "POST", "/query", queryBody("d"))
	green := do(t, s2.Handler(), "POST", "/query", queryBody("d"))
	if !bytes.Equal(blue.Body.Bytes(), green.Body.Bytes()) {
		t.Fatalf("green response differs:\n  blue:  %s\n  green: %s", blue.Body.String(), green.Body.String())
	}

	if w := do(t, s1.Handler(), "GET", "/datasets/nope/snapshot", nil); w.Code != http.StatusNotFound {
		t.Fatalf("missing dataset stream: %d", w.Code)
	}
}

// TestLoadRollbackPreservesPrevious: when a replace-PUT cannot be persisted,
// the rollback must re-install the prior lineage — not destroy it. (The
// regression it pins: the old rollback deleted the dataset and removed its
// snapshot/WAL files, wiping previously acknowledged data over a transient
// disk error on an unrelated load.)
func TestLoadRollbackPreservesPrevious(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableServer(t, dir)
	h := s.Handler()
	decodeAs(t, do(t, h, "PUT", "/datasets/d", tinyLoad()), http.StatusOK, nil)
	var dresp server.DeltaResponse
	decodeAs(t, do(t, h, "POST", "/datasets/d/delta", server.DeltaRequest{Ops: []server.DeltaOp{
		{Op: "insert", Rel: "R", Row: []int64{7, 2}},
	}}), http.StatusOK, &dresp)
	before := do(t, h, "POST", "/query", queryBody("d"))
	if before.Code != http.StatusOK {
		t.Fatalf("pre-failure query: %d %s", before.Code, before.Body.String())
	}

	// Break the store: with the data directory gone, SaveSnapshot fails
	// before its commit point.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if w := do(t, h, "PUT", "/datasets/d", tinyLoad()); w.Code != http.StatusInternalServerError {
		t.Fatalf("replace with broken store: %d %s", w.Code, w.Body.String())
	}
	// The prior lineage still serves, at its generation, byte-identically.
	after := do(t, h, "POST", "/query", queryBody("d"))
	if after.Code != http.StatusOK {
		t.Fatalf("post-rollback query: %d %s", after.Code, after.Body.String())
	}
	if !bytes.Equal(before.Body.Bytes(), after.Body.Bytes()) {
		t.Fatalf("post-rollback response differs:\n  before: %s\n  after:  %s", before.Body.String(), after.Body.String())
	}
	// A failed create (no prior lineage) still removes the name entirely.
	if w := do(t, h, "PUT", "/datasets/e", tinyLoad()); w.Code != http.StatusInternalServerError {
		t.Fatalf("create with broken store: %d", w.Code)
	}
	if w := do(t, h, "GET", "/datasets/e", nil); w.Code != http.StatusNotFound {
		t.Fatalf("failed create left the dataset behind: %d", w.Code)
	}

	// Disk comes back: compaction re-persists the surviving lineage, and a
	// restart recovers it at the rolled-back generation.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var sresp server.SnapshotResponse
	decodeAs(t, do(t, h, "POST", "/datasets/d/snapshot", nil), http.StatusOK, &sresp)
	if sresp.Generation != dresp.Generation {
		t.Fatalf("compacted at generation %d, want %d", sresp.Generation, dresp.Generation)
	}
	s2, recovered := durableServer(t, dir)
	if len(recovered) != 1 || recovered[0].Gen != dresp.Generation {
		t.Fatalf("recovered %+v, want generation %d", recovered, dresp.Generation)
	}
	restarted := do(t, s2.Handler(), "POST", "/query", queryBody("d"))
	if !bytes.Equal(before.Body.Bytes(), restarted.Body.Bytes()) {
		t.Fatalf("post-restart response differs:\n  before: %s\n  after:  %s", before.Body.String(), restarted.Body.String())
	}
}

// TestDeltaRejectionKeepsCache: a delta rejected by a WAL-append failure
// must leave the plan cache keyed at the still-current generation — the
// dataset's warm plans survive the rejection instead of being migrated to a
// generation that never publishes.
func TestDeltaRejectionKeepsCache(t *testing.T) {
	dir := t.TempDir()
	st, err := server.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{Store: st})
	h := s.Handler()
	decodeAs(t, do(t, h, "PUT", "/datasets/d", tinyLoad()), http.StatusOK, nil)
	do(t, h, "POST", "/query", queryBody("d")) // populate the cache
	var warm server.QueryResponse
	decodeAs(t, do(t, h, "POST", "/query", queryBody("d")), http.StatusOK, &warm)
	if !warm.Cached {
		t.Fatal("second query was not a cache hit")
	}

	// Drop the open WAL handle and the directory: the next append has to
	// reopen the log and fails.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if w := do(t, h, "POST", "/datasets/d/delta", server.DeltaRequest{Ops: []server.DeltaOp{
		{Op: "insert", Rel: "R", Row: []int64{7, 2}},
	}}); w.Code != http.StatusInternalServerError {
		t.Fatalf("delta with broken store: %d %s", w.Code, w.Body.String())
	}
	var afterResp server.QueryResponse
	after := do(t, h, "POST", "/query", queryBody("d"))
	decodeAs(t, after, http.StatusOK, &afterResp)
	if !afterResp.Cached {
		t.Fatal("rejected delta dropped the warm plan cache")
	}
	if afterResp.Generation != warm.Generation {
		t.Fatalf("generation moved %d → %d across a rejected delta", warm.Generation, afterResp.Generation)
	}
}

// TestDeleteRemovesFiles: DELETE drops the on-disk state too, so a restart
// does not resurrect the dataset.
func TestDeleteRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	s1, _ := durableServer(t, dir)
	decodeAs(t, do(t, s1.Handler(), "PUT", "/datasets/d", tinyLoad()), http.StatusOK, nil)
	if w := do(t, s1.Handler(), "DELETE", "/datasets/d", nil); w.Code != http.StatusNoContent {
		t.Fatalf("delete: %d", w.Code)
	}
	if _, err := os.Stat(filepath.Join(dir, "d.snap")); !os.IsNotExist(err) {
		t.Fatalf("snapshot file survives delete: %v", err)
	}
	_, recovered := durableServer(t, dir)
	if len(recovered) != 0 {
		t.Fatalf("deleted dataset resurrected: %+v", recovered)
	}
}
