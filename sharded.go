package qjoin

import (
	"errors"

	"github.com/quantilejoins/qjoin/internal/shard"
)

// Plan is the name serving layers hold a plan under — the qjserve plan cache
// and the repository benchmark. A plan from Prepare and one from
// PrepareSharded differ in how many engines they hold, not in type, and their
// answers are byte-identical, so the shard count behind a Plan is purely an
// operational choice.
type Plan = *Prepared

// UpdatePlan is Update under the Plan name.
func (p *Prepared) UpdatePlan(d *Delta) (Plan, error) { return p.Update(d) }

// ErrNoShardKey is returned by PrepareSharded for queries with no join
// variable to partition on (Boolean queries). Run those through Prepare.
var ErrNoShardKey = shard.ErrNoKey

// ErrCyclicSharded is returned by PrepareSharded for cyclic queries. Hash
// partitioning on one join variable does not commute with the hypertree
// decomposition a cyclic query is answered through (a bag join recombines
// rows across shard boundaries), so sharding such a query would silently
// drop answers. Run cyclic queries through Prepare, which routes them
// through a single decomposed engine.
var ErrCyclicSharded = errors.New("qjoin: cyclic query cannot be sharded; use Prepare for a single decomposed plan")

// ShardOf returns the shard owning a join-key value under the engine's
// deterministic hash routing. Exposed so operators can predict (and tests
// can assert) where a row lands; the same function routes rows at
// PrepareSharded time and delta ops at Update time.
func ShardOf(v Value, shards int) int { return shard.Of(v, shards) }

// PrepareSharded compiles a query against a hash-partitioned database: the
// input relations are partitioned on a join key into N shard engines
// (compiled one after another), and every query
// runs the pivot loop globally across them — per-shard pivot candidates merge
// by weighted median, per-shard partition counts are summed, and the λ-trim
// broadcasts to every shard. Answers are exact and byte-identical to Prepare
// on the same database, for every shard count. (RunStats describing the run
// path — iterations, materialization size — are deterministic per shard
// count but differ across shard counts: the merged pivot sequence is a
// different, equally valid descent.)
//
// shards is the partition count (0 selects 1; validated by ValidateShards);
// the partitioning key is chosen automatically — the join variable occurring
// in the most atoms — and relations not containing the key are replicated to
// every shard. What sharding buys is operational: a delta routes to the
// shards owning its key hashes, so Update touches ~1/N of the compiled
// state. PrepareSharded(q, db, 1) answers
// exactly like Prepare but is still a routed plan (it has a Key, and its
// snapshot records the partition).
//
// Boolean queries (no variables) cannot be sharded (ErrNoShardKey), and
// neither can cyclic queries (ErrCyclicSharded); use Prepare for both.
func PrepareSharded(q *Query, db *DB, shards int, opts ...Options) (*Prepared, error) {
	if err := ValidateShards(shards); err != nil {
		return nil, err
	}
	if !IsAcyclic(q) {
		return nil, ErrCyclicSharded
	}
	if shards == 0 {
		shards = 1
	}
	o, err := oneOpt(opts)
	if err != nil {
		return nil, err
	}
	sh, err := shard.Partition(q, db.inner, shards)
	if err != nil {
		return nil, err
	}
	return &Prepared{q: q, db: db, sh: sh, opts: o}, nil
}

// Shards returns the number of engines the plan holds: the partition count
// of a PrepareSharded plan, 1 for a plan from Prepare.
func (p *Prepared) Shards() int { return p.sh.Shards() }

// Key returns the join variable the relations are partitioned on, or "" for
// a plan from Prepare, which has no partition.
func (p *Prepared) Key() Var { return p.sh.Key() }

// Touched returns, ascending, the shards the delta's ops route to — the
// shards Update would rebuild. Ops on replicated relations (and on
// relations outside the query) route to every shard. On a plan from Prepare
// every non-empty delta touches shard 0, its one engine.
func (p *Prepared) Touched(d *Delta) []int { return p.sh.Touched(d) }
