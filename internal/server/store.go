package server

import (
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/snap"
)

// errStore marks a durability-layer failure; the HTTP layer maps it to a 500
// (the request was well-formed — the server's disk failed it).
var errStore = errors.New("durable store")

// Store is the durability layer under a server's registry: one snapshot file
// plus one write-ahead log per dataset, in a single data directory.
//
// The write path keeps the invariant "acknowledged ⇒ durable ⇒ replayable":
// a bulk load persists a full snapshot before the response goes out, and a
// delta fsyncs a WAL record — inside the registry's writer critical section,
// before the new generation publishes — so a crash at any instant recovers to
// exactly the last acknowledged generation. Snapshot writes are atomic
// (temp file, fsync, rename) and double as WAL compaction: once a snapshot
// at generation G is durable, every record ≤ G is redundant and the log is
// truncated. Recovery (LoadAll) restores each snapshot and replays the WAL
// records beyond its generation.
//
// File names are url.PathEscape(dataset) + ".snap"/".wal", so any dataset
// name maps to a safe flat file name and recovery can invert it.
type Store struct {
	dir string

	mu   sync.Mutex
	wals map[string]*snap.WAL
}

// NewStore opens (creating if needed) the data directory.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir, wals: make(map[string]*snap.WAL)}, nil
}

// Dir returns the data directory.
func (st *Store) Dir() string { return st.dir }

func (st *Store) snapPath(name string) string {
	return filepath.Join(st.dir, url.PathEscape(name)+".snap")
}

func (st *Store) walPath(name string) string {
	return filepath.Join(st.dir, url.PathEscape(name)+".wal")
}

// wal returns the dataset's open WAL handle, opening it on first use. The
// caller must hold st.mu.
func (st *Store) wal(name string) (*snap.WAL, error) {
	if w := st.wals[name]; w != nil {
		return w, nil
	}
	w, err := snap.OpenWAL(st.walPath(name))
	if err != nil {
		return nil, err
	}
	st.wals[name] = w
	return w, nil
}

// SaveSnapshot atomically writes the dataset's snapshot file and truncates
// its WAL (the snapshot subsumes every logged record — the caller serializes
// against concurrent deltas via the registry's writer lock, so no record
// beyond snap.Gen can exist while this runs).
//
// The rename plus directory fsync is the commit point. An error from
// SaveSnapshot means the commit did not happen and the previous snapshot
// and WAL files are untouched — callers rely on this to roll a failed
// replace-load back to the prior lineage without losing its durable state.
// Past the commit point, failing to compact the log costs disk space, not
// correctness (replay skips records at or below the snapshot's generation),
// so compaction is best-effort rather than a reported failure.
func (st *Store) SaveSnapshot(name string, cur Snapshot) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	path := st.snapPath(name)
	tmp, err := os.CreateTemp(st.dir, ".qjserve-snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	meta := qjoin.DatasetMeta{Name: name, Gen: cur.Gen, Shards: cur.Shards}
	if err := qjoin.SnapshotDataset(tmp, cur.DB, meta); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Power loss (unlike kill -9) can undo a rename whose directory entry was
	// never flushed; without this, an acknowledged load or compaction could
	// vanish on the next boot.
	if err := st.syncDir(); err != nil {
		return err
	}
	w, err := st.wal(name)
	if err != nil {
		// The log is unreadable (damaged header or the like), but the
		// snapshot just subsumed everything it could hold: drop the file
		// rather than leave an unloadable log behind for the next boot. (No
		// open handle exists — st.wal just failed to create one.)
		_ = os.Remove(st.walPath(name))
		return nil
	}
	_ = w.Truncate()
	return nil
}

// syncDir fsyncs the data directory, making renames and newly created file
// entries durable against power loss.
func (st *Store) syncDir() error {
	d, err := os.Open(st.dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// AppendDelta frames and fsyncs one (generation, delta) WAL record. Callers
// run it inside the registry's Mutate critical section, before the new
// generation publishes: an error here rejects the delta, so an acknowledged
// delta is always on disk.
func (st *Store) AppendDelta(name string, gen uint64, delta *qjoin.Delta) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	w, err := st.wal(name)
	if err != nil {
		return err
	}
	return w.Append(gen, delta)
}

// Remove drops the dataset's snapshot and WAL files (after a DELETE).
func (st *Store) Remove(name string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if w := st.wals[name]; w != nil {
		w.Close()
		delete(st.wals, name)
	}
	err1 := os.Remove(st.snapPath(name))
	err2 := os.Remove(st.walPath(name))
	if err1 != nil && !os.IsNotExist(err1) {
		return err1
	}
	if err2 != nil && !os.IsNotExist(err2) {
		return err2
	}
	return nil
}

// Close closes every open WAL handle.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	var first error
	for name, w := range st.wals {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
		delete(st.wals, name)
	}
	return first
}

// Recovered is one dataset reconstructed by LoadAll: its post-replay snapshot
// state plus how many WAL records were applied on top of the snapshot file.
type Recovered struct {
	Name     string
	DB       *qjoin.DB
	Gen      uint64
	Shards   int
	Replayed int
}

// LoadAll recovers every dataset in the data directory: each snapshot file is
// restored and the WAL records beyond its generation are replayed in order,
// yielding exactly the state of the last acknowledged write before the crash.
// Records at or below the snapshot generation (a compaction that crashed
// between rename and truncate) are skipped — replay is idempotent under the
// crash window of SaveSnapshot.
func (st *Store) LoadAll() ([]Recovered, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	var out []Recovered
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".snap") || strings.HasPrefix(ent.Name(), ".") {
			continue
		}
		name, err := url.PathUnescape(strings.TrimSuffix(ent.Name(), ".snap"))
		if err != nil {
			return nil, fmt.Errorf("store: undecodable snapshot file name %q: %w", ent.Name(), err)
		}
		rec, err := st.loadOne(name)
		if err != nil {
			return nil, fmt.Errorf("store: dataset %q: %w", name, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// loadOne recovers a single dataset: snapshot file + WAL replay.
func (st *Store) loadOne(name string) (Recovered, error) {
	buf, err := os.ReadFile(st.snapPath(name))
	if err != nil {
		return Recovered{}, err
	}
	db, meta, err := qjoin.LoadDatasetBytes(buf)
	if err != nil {
		return Recovered{}, err
	}
	if meta.Name != name {
		return Recovered{}, fmt.Errorf("snapshot file holds dataset %q", meta.Name)
	}
	rec := Recovered{Name: name, DB: db, Gen: meta.Gen, Shards: meta.Shards}
	err = snap.ReplayWAL(st.walPath(name), func(gen uint64, delta *qjoin.Delta) error {
		if gen <= rec.Gen {
			return nil // already inside the snapshot (crashed compaction)
		}
		ndb, err := rec.DB.Apply(delta)
		if err != nil {
			return fmt.Errorf("replaying generation %d: %w", gen, err)
		}
		rec.DB, rec.Gen = ndb, gen
		rec.Replayed++
		return nil
	})
	if err != nil {
		return Recovered{}, err
	}
	return rec, nil
}
