// Package server is the concurrent serving layer over the prepared-query
// engine: a dataset registry, a plan cache and an HTTP request executor,
// assembled into the qjserve daemon by cmd/qjserve.
//
// The design leans entirely on the library's concurrency contracts. A
// *qjoin.Prepared plan is safe for concurrent readers, and Prepared.Update
// is a copy-on-write derivation that leaves the receiver usable — so the
// registry can swap dataset snapshots atomically while in-flight queries
// keep answering against the generation they admitted under, and the plan
// cache can migrate compiled plans across generations instead of throwing
// them away.
//
// # Consistency model
//
// Every dataset is a sequence of immutable snapshots (database, generation).
// A bulk load starts a new lineage; a delta produces the next generation by
// qjoin.DB.Apply and migrates every cached plan of the previous generation
// with Prepared.Update before the new snapshot becomes visible. A query
// reads the current snapshot exactly once, at admission, and runs entirely
// against it: it observes one generation, never a torn mix. When a delta
// commits mid-request the query's answers still reflect the generation its
// response reports. After a delta response returns, every later query
// observes the new generation, and its answers are byte-identical to a
// fresh Prepare on the mutated database (the library's Update contract).
package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/quantilejoins/qjoin"
)

// errNotFound marks a missing dataset; the HTTP layer maps it to a 404.
var errNotFound = errors.New("not found")

// Snapshot is one immutable (database, generation) state of a dataset.
type Snapshot struct {
	DB  *qjoin.DB
	Gen uint64
	// Shards is the dataset's configured shard count (0 or 1 = unsharded:
	// plans compile through qjoin.Prepare; larger values compile through
	// qjoin.PrepareSharded). Set at Load, constant for the lineage.
	Shards int
	// ShardGens[i] (sharded datasets only) is the generation at which shard
	// i's slice of the data last changed under the dataset's canonical
	// first-column routing: a delta bumps only the shards its rows hash to,
	// so a reader can tell which slices a generation step actually moved.
	// Individual plans may partition by a different join key — this is
	// delta-locality bookkeeping, not a per-plan invalidation key (the plan
	// cache keys on Gen; within a migrated sharded plan only the touched
	// shard engines are rebuilt by Update itself).
	ShardGens []uint64
}

// dataset is one named dataset: an atomically swappable snapshot pointer
// plus a mutex serializing writers. Readers never lock — they load the
// pointer and work on the immutable snapshot.
type dataset struct {
	name string
	mu   sync.Mutex // serializes Load / Mutate
	cur  atomic.Pointer[Snapshot]
}

// Registry holds the named datasets of a server.
type Registry struct {
	mu sync.RWMutex
	ds map[string]*dataset
	// lastGen is the highest generation ever assigned per name. It outlives
	// Delete so a deleted-then-reloaded dataset resumes the numbering
	// instead of restarting at 1 — otherwise a stale plan-cache entry of
	// the dead lineage (inserted by a racing prepare) could collide with
	// the new lineage's (name, generation) key and serve deleted data.
	lastGen map[string]uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{ds: make(map[string]*dataset), lastGen: make(map[string]uint64)}
}

// nextGen assigns the next generation for a name (monotonic for all time).
func (r *Registry) nextGen(name string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lastGen[name]++
	return r.lastGen[name]
}

// Get returns the current snapshot of a dataset. A dataset whose first
// Load has not published a snapshot yet does not exist for readers.
func (r *Registry) Get(name string) (Snapshot, bool) {
	r.mu.RLock()
	d := r.ds[name]
	r.mu.RUnlock()
	if d == nil {
		return Snapshot{}, false
	}
	cur := d.cur.Load()
	if cur == nil {
		return Snapshot{}, false
	}
	return *cur, true
}

// Load installs a database as the next generation of the named dataset,
// creating the dataset if needed. shards configures the lineage's shard
// count (0 or 1 = unsharded); a sharded snapshot starts with every shard
// generation at the load generation. Generations are monotonic per name for
// the registry's whole lifetime — across reloads and even across Delete —
// so stale cache entries can never be mistaken for current ones.
func (r *Registry) Load(name string, db *qjoin.DB, shards int) Snapshot {
	r.mu.Lock()
	d := r.ds[name]
	if d == nil {
		d = &dataset{name: name}
		r.ds[name] = d
	}
	r.mu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	next := &Snapshot{DB: db, Gen: r.nextGen(name), Shards: shards}
	if shards > 1 {
		next.ShardGens = make([]uint64, shards)
		for i := range next.ShardGens {
			next.ShardGens[i] = next.Gen
		}
	}
	d.cur.Store(next)
	// Re-install under r.mu: a Delete racing this Load may have removed the
	// dataset from the map after we fetched it, which would otherwise leave
	// this acknowledged write on an unreachable object. A PUT concurrent
	// with a DELETE legally serializes either way; re-installing makes the
	// outcome match the acknowledgement.
	r.mu.Lock()
	r.ds[name] = d
	r.mu.Unlock()
	return *next
}

// Restore installs a recovered snapshot at its original generation (crash
// recovery from a durable store). Unlike Load it does not assign a fresh
// generation: the point of recovery is that responses after a restart report
// the same generation numbers as before. The name's generation counter is
// advanced to at least gen so post-recovery mutations stay monotonic.
func (r *Registry) Restore(name string, db *qjoin.DB, gen uint64, shards int, shardGens []uint64) Snapshot {
	r.mu.Lock()
	if r.lastGen[name] < gen {
		r.lastGen[name] = gen
	}
	d := r.ds[name]
	if d == nil {
		d = &dataset{name: name}
		r.ds[name] = d
	}
	r.mu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	next := &Snapshot{DB: db, Gen: gen, Shards: shards, ShardGens: shardGens}
	d.cur.Store(next)
	r.mu.Lock()
	r.ds[name] = d
	r.mu.Unlock()
	return *next
}

// RollbackLoad swaps the previous snapshot back in after a load whose
// persistence failed, provided the dataset still sits at the failed load's
// generation — a concurrent writer that advanced past it wins, since its
// write was acknowledged. The failed generation stays burned (generations
// are monotonic, not contiguous). It reports whether the swap happened.
func (r *Registry) RollbackLoad(name string, gen uint64, prev Snapshot) bool {
	r.mu.RLock()
	d := r.ds[name]
	r.mu.RUnlock()
	if d == nil {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := d.cur.Load()
	if cur == nil || cur.Gen != gen {
		return false
	}
	p := prev
	d.cur.Store(&p)
	return true
}

// WithWriter runs fn under the dataset's writer lock against the current
// snapshot without creating a new generation. Snapshot compaction uses it:
// writing the snapshot file and truncating the WAL must not interleave with a
// delta appending to that WAL, or an acknowledged record could be erased.
func (r *Registry) WithWriter(name string, fn func(cur Snapshot) error) error {
	r.mu.RLock()
	d := r.ds[name]
	r.mu.RUnlock()
	if d == nil {
		return fmt.Errorf("dataset %q: %w", name, errNotFound)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	r.mu.RLock()
	alive := r.ds[name] == d
	r.mu.RUnlock()
	cur := d.cur.Load()
	if !alive || cur == nil {
		return fmt.Errorf("dataset %q: %w", name, errNotFound)
	}
	return fn(*cur)
}

// Mutate derives the next generation of a dataset from the current one.
// fn receives the current snapshot and the generation the result will be
// published under, and returns the next database plus the shards the
// mutation touched (nil = all; ignored for unsharded datasets); it runs
// under the dataset's writer lock, before the new snapshot becomes visible
// to readers — plan-cache migration happens inside fn, so a query that
// observes the new generation always finds the migrated plans. Only the
// touched shards' generations advance; the rest carry over, recording that
// their slice of the data is unchanged since the generation they name.
// Mutate returns the snapshots before and after. (A failed fn burns its
// assigned generation number; the sequence is monotonic, not contiguous.)
func (r *Registry) Mutate(name string, fn func(cur Snapshot, nextGen uint64) (*qjoin.DB, []int, error)) (old, now Snapshot, err error) {
	r.mu.RLock()
	d := r.ds[name]
	r.mu.RUnlock()
	if d == nil {
		return Snapshot{}, Snapshot{}, fmt.Errorf("dataset %q: %w", name, errNotFound)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	// Re-check membership under the writer lock: a Delete that raced in
	// after the map lookup must win — acknowledging a delta against a
	// deleted dataset would silently discard the write.
	r.mu.RLock()
	alive := r.ds[name] == d
	r.mu.RUnlock()
	cur := d.cur.Load()
	if !alive || cur == nil {
		// Deleted, or created but never published (a Load in flight).
		return Snapshot{}, Snapshot{}, fmt.Errorf("dataset %q: %w", name, errNotFound)
	}
	gen := r.nextGen(name)
	db, touched, err := fn(*cur, gen)
	if err != nil {
		return *cur, *cur, err
	}
	next := &Snapshot{DB: db, Gen: gen, Shards: cur.Shards}
	if len(cur.ShardGens) > 0 {
		next.ShardGens = append([]uint64(nil), cur.ShardGens...)
		if touched == nil {
			for i := range next.ShardGens {
				next.ShardGens[i] = gen
			}
		} else {
			for _, i := range touched {
				if i >= 0 && i < len(next.ShardGens) {
					next.ShardGens[i] = gen
				}
			}
		}
	}
	d.cur.Store(next)
	return *cur, *next, nil
}

// Delete removes a dataset. It reports whether the name existed. It takes
// the dataset's writer lock first (same d.mu → r.mu order as Load/Mutate),
// so a delete serializes against concurrent writes: whichever write the
// server acknowledged is reflected in the final map state.
func (r *Registry) Delete(name string) bool {
	r.mu.RLock()
	d := r.ds[name]
	r.mu.RUnlock()
	if d == nil {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ds[name] != d {
		// A racing Load re-created the name with a different object (or a
		// racing Delete already removed this one): leave the newer one.
		return false
	}
	delete(r.ds, name)
	return true
}

// Names returns the dataset names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.ds))
	for n := range r.ds {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
