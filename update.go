package qjoin

import (
	"fmt"

	"github.com/quantilejoins/qjoin/internal/engine"
)

// Delta is an ordered batch of tuple inserts and deletes against the
// database a plan was prepared on. Build one with NewDelta and the chaining
// Insert/Delete methods, then hand it to Prepared.Update (incremental plan
// maintenance) or DB.Apply (plain database mutation).
//
// Relations are multisets at this level: inserting a tuple that is already
// present bumps its multiplicity (the answer set is unchanged — relations
// are sets to the query semantics), and a delete removes one occurrence,
// most recently inserted first. A tuple only leaves the answer side once its
// last occurrence is deleted. Deleting a tuple with no occurrence at all is
// an error (ErrDeleteAbsent) and rejects the whole delta atomically.
type Delta = engine.Delta

// NewDelta returns an empty delta. Populate it with Insert and Delete:
//
//	d := qjoin.NewDelta().
//		Insert("R", []int64{1, 2}, []int64{3, 4}).
//		Delete("S", []int64{9, 9})
func NewDelta() *Delta { return engine.NewDelta() }

// ErrDeleteAbsent is returned by Prepared.Update and DB.Apply when a delta
// deletes a tuple that has no remaining occurrence in its relation. The
// delta is rejected as a whole; no state changes.
var ErrDeleteAbsent = engine.ErrDeleteAbsent

// Apply returns a new database reflecting the delta; the receiver is not
// modified and untouched relations are shared. This is the canonical "apply
// a delta from scratch" operation: Prepare on the result answers exactly
// like Prepared.Update on a plan compiled from the receiver.
func (d *DB) Apply(delta *Delta) (*DB, error) {
	inner, err := engine.ApplyDelta(d.inner, delta)
	if err != nil {
		return nil, err
	}
	return &DB{inner: inner}, nil
}

// Update derives a plan reflecting the delta without recompiling: the
// change propagates through the compiled artifact (deduplicated relations,
// join-group indexes, counting state) in time proportional to the touched
// data, not the database size.
//
// The receiver is unchanged and stays fully usable — Update is a
// copy-on-write swap. The derived plan shares every structure the delta did
// not touch; the counts every reader walks the tree by are maintained.
// Answers of the derived plan are byte-identical to a fresh
// Prepare on the mutated database (DB.Apply), including run statistics.
//
// On a routed plan only the shards owning the delta's key hashes are
// rebuilt; the other shard engines are shared with the receiver untouched.
// A delta localized to one shard therefore costs ~1/N of the unsharded
// update, which is what shrinks writer critical sections under serving
// load.
//
// Update may be called concurrently with queries on the receiver and with
// other Updates of the receiver. It fails atomically — leaving the plan
// untouched — with ErrDeleteAbsent when a delete has no occurrence left
// (in any shard), and on rows that do not match the schema.
func (p *Prepared) Update(d *Delta) (*Prepared, error) {
	sh, changes, err := p.sh.Update(d)
	if err != nil {
		return nil, err
	}
	if sh == p.sh {
		return p, nil // empty delta: nothing changed
	}
	p.dbMu.Lock()
	base, chain := p.baseDB, p.deltas
	if p.db != nil {
		// The receiver's database is materialized (base plans always are):
		// start the derived plan's chain from it instead of replaying the
		// receiver's history.
		base, chain = p.db, nil
	}
	p.dbMu.Unlock()
	if len(chain) >= maxDeltaChain {
		// Fold a long chain: materialize the receiver's database once (also
		// cached on the receiver for its other derivations) and restart.
		// This bounds both the memory held by a lineage of updated plans
		// and the replay cost of any later DB() call.
		base, chain = p.DB(), nil
	}
	// Snapshot the delta: the chain is replayed lazily by DB(), and the
	// caller may keep building on d after this call returns.
	return &Prepared{
		q: p.q, sh: sh, opts: p.opts,
		baseDB: base,
		deltas: append(chain[:len(chain):len(chain)], d.Clone()),
		// Sketch summaries carry over, the parts of engines whose answers
		// changed marked stale and handed the answers gained and lost: the
		// first approximate query (or WarmSketches) shifts their anchors'
		// windows by those instead of rebuilding from scratch.
		sketches: p.carrySketches(sh.Engines(), changes),
	}, nil
}

// maxDeltaChain caps how many deltas a derived plan may accumulate before
// Update folds them into a materialized database.
const maxDeltaChain = 64

// materializeDB applies the plan's delta chain to its base database. Updates
// were validated against the engine's refcounts, which mirror the raw
// multiplicities exactly, so Apply cannot fail here.
func (p *Prepared) materializeDB() *DB {
	db := p.baseDB
	for _, d := range p.deltas {
		nd, err := db.Apply(d)
		if err != nil {
			panic(fmt.Sprintf("qjoin: delta chain re-apply failed: %v", err))
		}
		db = nd
	}
	return db
}
