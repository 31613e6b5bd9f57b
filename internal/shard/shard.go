// Package shard hash-partitions a (Query, Database) pair into N disjoint
// shard engines and keeps them consistent under deltas.
//
// The decomposition rides on one fact from the paper's framework: Algorithm
// 1 steers entirely by answer counts, and counts add across disjoint
// partitions of the answer set. Partitioning every relation that contains a
// chosen join key by a hash of that key's column — and replicating the few
// that do not — splits the answer set exactly by the key's value: the answer
// binding the key to v is produced entirely inside shard hash(v), and by no
// other shard. Exact quantiles over the union therefore need no
// approximation; the global pivot loop (core.Quantile) merges
// per-shard pivot candidates and sums per-shard counts, and the answer is
// byte-identical to the unsharded engine on the union database.
//
// Self-joins are eliminated before partitioning, not after: with R occurring
// at two atoms, the two occurrences route by different key columns, so each
// rewritten occurrence gets its own private partition of R. Partitioning the
// raw relation once would let one row serve both occurrences in different
// shards and double-produce answers.
//
// All shards share the input database's value dictionary (it is append-only,
// so interned ids stay valid everywhere), and a delta routes each op to the
// shard owning its key hash — only those engines are updated, which is what
// shrinks writer critical sections by roughly the shard count.
package shard

import (
	"errors"
	"fmt"
	"slices"

	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/relation"
)

// ErrNoKey is returned for queries with no variables: a Boolean query has
// nothing to partition on (and replicating every relation would multiply its
// single answer across shards). Run such queries unsharded.
var ErrNoKey = errors.New("qjoin: query has no join variable to shard on")

// ErrShardCount is returned for a shard count below 1.
var ErrShardCount = errors.New("qjoin: shard count must be at least 1")

// Sharded is the compiled sharded form of a (Query, Database) pair: N
// engine.Engine values over a hash partition of the input, plus the routing
// table deltas and re-partitions steer by. Like Engine, a Sharded is
// immutable once built — Update derives a new value copy-on-write — so
// concurrent readers are never disturbed.
type Sharded struct {
	src *query.Query // the user's query
	q   *query.Query // self-join-free rewrite shared by every shard engine
	key query.Var    // the partitioning join key
	// routes maps each rewritten relation name to the column its rows are
	// routed by; relations absent from the map (no occurrence of the key,
	// or not referenced by the query) are replicated to every shard. nil
	// on the route-less set Single builds.
	routes map[string]int
	engs   []*engine.Engine
}

// ChooseKey picks the partitioning variable of a query: the variable
// occurring in the most atoms, ties broken by first appearance. Every atom
// containing the key is partitioned; the rest are replicated to all shards,
// so the most-frequent variable minimizes replication. Deterministic, so a
// dataset re-prepared for the same query always partitions the same way.
func ChooseKey(q *query.Query) (query.Var, bool) {
	vars := q.Vars()
	if len(vars) == 0 {
		return "", false
	}
	best, bestOcc := vars[0], 0
	for _, v := range vars {
		occ := 0
		for _, a := range q.Atoms {
			for _, av := range a.Vars {
				if av == v {
					occ++
					break
				}
			}
		}
		if occ > bestOcc {
			best, bestOcc = v, occ
		}
	}
	return best, true
}

// Of returns the shard owning a key value. The splitmix64 finalizer gives a
// well-mixed deterministic hash of the raw int64 value, so routing is stable
// across processes and runs — required for the byte-identity contract and
// for deltas to find the rows earlier partitioning placed.
func Of(v relation.Value, shards int) int {
	x := uint64(v)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(shards))
}

// Partition hash-partitions the database into the given number of shards
// and compiles one engine per shard, in shard order. shards=1 shares the
// input relations outright and is exactly the unsharded engine.
func Partition(src *query.Query, db0 *relation.Database, shards int) (*Sharded, error) {
	s, dbs, err := plan(src, db0, shards)
	if err != nil {
		return nil, err
	}
	s.engs = make([]*engine.Engine, shards)
	for i := range s.engs {
		if s.engs[i], err = engine.New(s.q, dbs[i]); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// New is Partition; parallelism is unread. Kept for the bench module's
// probes, which call it by this name.
func New(src *query.Query, db0 *relation.Database, shards, _ int) (*Sharded, error) {
	return Partition(src, db0, shards)
}

// Single wraps one already-compiled engine — acyclic or decomposed-cyclic —
// as the route-less one-engine set: no key, no partition, and Update forwards
// the delta to the engine unchanged. It is what lets a caller hold every plan
// as an engine vector without the engine's query having to be shardable.
func Single(eng *engine.Engine) *Sharded {
	return &Sharded{src: eng.Source(), q: eng.Query(), engs: []*engine.Engine{eng}}
}

// Routed reports whether the set came from a hash partition (Partition,
// Restore) rather than from Single. Partition with shards=1 is routed: it has
// a key, and its snapshots record the partition.
func (s *Sharded) Routed() bool { return s.routes != nil }

// Restore reassembles a Sharded from snapshot-decoded shard engines. The
// routing state (rewrite, key, routes) and the per-shard raw databases are
// replayed through exactly the code path Partition uses — both are
// deterministic functions of (src, db0), so the replayed partition is
// byte-identical to the one the engines were compiled over. Only the engine
// compiles themselves are skipped: mk is called once per shard, in order, with
// the shard's rewritten query and raw partition, and returns the decoded
// engine (typically engine.Restore over that partition as db0).
func Restore(src *query.Query, db0 *relation.Database, shards int,
	mk func(i int, q *query.Query, sdb *relation.Database) (*engine.Engine, error)) (*Sharded, error) {
	s, dbs, err := plan(src, db0, shards)
	if err != nil {
		return nil, err
	}
	s.engs = make([]*engine.Engine, shards)
	for i := range s.engs {
		// In order: snapshot decoding resolves stream-order relation
		// backrefs, so shard sections must decode in order.
		if s.engs[i], err = mk(i, s.q, dbs[i]); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// plan runs the shared front half of Partition and Restore: validation,
// self-join elimination, key choice, the routing table, and the hash partition
// of the rewritten database. Everything is deterministic in (src, db0,
// shards).
func plan(src *query.Query, db0 *relation.Database, shards int) (*Sharded, []*relation.Database, error) {
	if shards < 1 {
		return nil, nil, fmt.Errorf("%w, got %d", ErrShardCount, shards)
	}
	// Before Validate, which rejects zero-arity atoms with an untyped error:
	// callers fall back to an unsharded plan on ErrNoKey specifically. (The
	// rewrite below renames relations, never variables, so src decides.)
	key, ok := ChooseKey(src)
	if !ok {
		return nil, nil, ErrNoKey
	}
	if err := src.Validate(db0); err != nil {
		return nil, nil, err
	}
	q, db := query.EliminateSelfJoins(src, db0)
	routes := make(map[string]int)
	for _, a := range q.Atoms {
		for j, v := range a.Vars {
			if v == key {
				routes[a.Rel] = j
				break
			}
		}
	}
	s := &Sharded{src: src, q: q, key: key, routes: routes}

	dbs := make([]*relation.Database, shards)
	if shards == 1 {
		dbs[0] = db
	} else {
		// Every shard starts as a view of the whole database — relations
		// without the key are replicated: shared, never copied, and so is the
		// dictionary (append-only: interned ids are valid in every shard) —
		// and takes its own partition of each routed relation.
		for i := range dbs {
			dbs[i] = db.View()
		}
		idx := make([][]int, shards)
		for _, name := range db.Names() {
			col, routed := routes[name]
			if !routed {
				continue
			}
			r := db.Get(name)
			for i := range idx {
				idx[i] = idx[i][:0]
			}
			for i, v := range r.Col(col) {
				sh := Of(v, shards)
				idx[sh] = append(idx[sh], i)
			}
			for sh := range dbs {
				part := r.GatherRows(name, idx[sh])
				if r.IsDistinct() {
					part.MarkDistinct()
				}
				dbs[sh].Add(part)
			}
		}
	}
	return s, dbs, nil
}

// Source returns the query as the user wrote it.
func (s *Sharded) Source() *query.Query { return s.src }

// Query returns the self-join-free rewrite every shard engine runs on.
func (s *Sharded) Query() *query.Query { return s.q }

// Key returns the partitioning variable ("" on a route-less set).
func (s *Sharded) Key() query.Var { return s.key }

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.engs) }

// Engines returns the per-shard engines, indexed by shard. The slice is
// shared and must be treated as read-only.
func (s *Sharded) Engines() []*engine.Engine { return s.engs }

// Vars returns the canonical answer layout (the source query's variables).
func (s *Sharded) Vars() []query.Var { return s.engs[0].Vars() }

// Total returns the global |Q(D)|: the sum of the disjoint per-shard counts.
func (s *Sharded) Total() counting.Count {
	t := counting.Zero
	for _, e := range s.engs {
		t = t.Add(e.Total())
	}
	return t
}

// split routes a delta's ops to per-shard deltas. Ops name source (pre-
// rewrite) relations; each op fans out to every rewritten occurrence of its
// relation, routed to the shard hashing that occurrence's key column (or to
// every shard when the occurrence is replicated). Per-shard op order follows
// the delta's own order, so delete/insert interleavings replay faithfully.
// A route-less set forwards the delta to its one engine unchanged.
func (s *Sharded) split(d *engine.Delta) []*engine.Delta {
	if !s.Routed() {
		return []*engine.Delta{d}
	}
	parts := make([]*engine.Delta, len(s.engs))
	part := func(i int) *engine.Delta {
		if parts[i] == nil {
			parts[i] = engine.NewDelta()
		}
		return parts[i]
	}
	// Rewritten occurrences per source relation, in atom order; nil for
	// relations the query never references (replicated, validated everywhere).
	occs := make(map[string][]string, len(s.src.Atoms))
	for i, a := range s.src.Atoms {
		occs[a.Rel] = append(occs[a.Rel], s.q.Atoms[i].Rel)
	}
	route := func(name string, row []relation.Value, del bool) {
		col, routed := s.routes[name]
		if !routed || col >= len(row) {
			for i := range parts {
				emit(part(i), name, row, del)
			}
			return
		}
		i := Of(row[col], len(s.engs))
		emit(part(i), name, row, del)
	}
	d.Ops(func(rel string, row []relation.Value, del bool) {
		names, referenced := occs[rel]
		if !referenced {
			route(rel, row, del)
			return
		}
		for _, name := range names {
			route(name, row, del)
		}
	})
	return parts
}

func emit(d *engine.Delta, rel string, row []relation.Value, del bool) {
	if del {
		d.Delete(rel, row)
	} else {
		d.Insert(rel, row)
	}
}

// Touched returns the shards the delta's ops route to, ascending. A delta
// whose key hashes all land in one shard touches exactly that shard — the
// common case the per-shard write path is built for. On a route-less set
// every non-empty delta touches the one engine.
func (s *Sharded) Touched(d *engine.Delta) []int {
	parts := s.split(d)
	out := make([]int, 0, len(parts))
	for i, p := range parts {
		if p != nil && p.Len() > 0 {
			out = append(out, i)
		}
	}
	return out
}

// Update derives a Sharded reflecting the delta, leaving the receiver fully
// usable (copy-on-write, like engine.Update it builds on). Only the shards
// the delta routes to are updated — untouched engines are shared with the
// receiver — so the write cost scales with the touched slice of the data,
// not the dataset. The whole delta applies atomically: engine.Update never
// mutates its receiver, so any per-shard failure (e.g.
// engine.ErrDeleteAbsent) discards all derived engines and returns the error
// with the receiver intact.
//
// The returned changes are the engines' own, indexed by shard (the zero
// Change for a shard the delta did not route to); nil when the receiver
// itself is returned.
func (s *Sharded) Update(d *engine.Delta) (*Sharded, []engine.Change, error) {
	if d == nil || d.Len() == 0 {
		return s, nil, nil
	}
	engs := slices.Clone(s.engs)
	changes := make([]engine.Change, len(s.engs))
	touched := false
	for i, p := range s.split(d) {
		if p == nil || p.Len() == 0 {
			continue
		}
		var err error
		if engs[i], changes[i], err = s.engs[i].Update(p); err != nil {
			return nil, nil, err
		}
		touched = true
	}
	if !touched {
		return s, nil, nil
	}
	out := *s
	out.engs = engs
	return &out, changes, nil
}
