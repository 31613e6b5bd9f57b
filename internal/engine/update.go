// Incremental maintenance: Engine.Update absorbs a batch of tuple inserts
// and deletes by propagating the change through every layer of the compiled
// artifact — multiset refcounts, the deduplicated database (whose relations
// the executable tree's nodes read), the tree's join-group indexes, and the
// counting state — instead of recompiling, which would pay O(|D|) for an O(|delta|)
// change.
//
// Update is copy-on-write: it returns a new *Engine sharing every untouched
// structure with the receiver and never mutates the receiver, so concurrent
// readers of the old artifact (and concurrent Updates from it) are safe. The
// counting state is delta-maintained; the lazily built direct-access index, a
// global function of the answer set, is invalidated by any set-level change
// and rebuilt lazily on the derived engine from the maintained counts. A delta
// that only changes raw multiplicities (duplicate inserts, deletes of
// duplicates) invalidates nothing.
package engine

import (
	"errors"
	"fmt"
	"slices"

	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/trim"
	"github.com/quantilejoins/qjoin/internal/yannakakis"
)

// ErrDeleteAbsent is returned when a delta deletes a tuple that has no
// remaining occurrence in its relation. The whole Update (or ApplyDelta) is
// rejected atomically: no structure is modified.
var ErrDeleteAbsent = errors.New("qjoin: delta deletes a tuple not present")

// Delta is an ordered batch of tuple-level mutations against the original
// (pre-rewrite) database schema. Ops are replayed in the order they were
// added; relations are multisets at this level, so inserting an existing
// tuple bumps its multiplicity and a delete removes one occurrence (the most
// recently inserted one first).
type Delta struct {
	ops []deltaOp
}

type deltaOp struct {
	rel string
	row []relation.Value
	del bool
}

// NewDelta returns an empty delta.
func NewDelta() *Delta { return &Delta{} }

// Insert appends insert ops for the given rows of a relation. Rows are
// copied. It returns the delta for chaining.
func (d *Delta) Insert(rel string, rows ...[]relation.Value) *Delta {
	for _, r := range rows {
		d.ops = append(d.ops, deltaOp{rel: rel, row: append([]relation.Value(nil), r...)})
	}
	return d
}

// Delete appends delete ops for the given rows of a relation. Rows are
// copied. It returns the delta for chaining.
func (d *Delta) Delete(rel string, rows ...[]relation.Value) *Delta {
	for _, r := range rows {
		d.ops = append(d.ops, deltaOp{rel: rel, row: append([]relation.Value(nil), r...), del: true})
	}
	return d
}

// Len returns the number of ops in the delta.
func (d *Delta) Len() int { return len(d.ops) }

// Ops calls fn for every op in order. The row slice is the delta's own
// storage and must not be mutated. Consumers that re-route ops — the shard
// layer splits one delta into per-shard deltas by hashing a key column —
// read them through this, keeping the op encoding private to this package.
func (d *Delta) Ops(fn func(rel string, row []relation.Value, del bool)) {
	for _, op := range d.ops {
		fn(op.rel, op.row, op.del)
	}
}

// Clone returns a snapshot of the delta. Consumers that retain a delta
// (Prepared.Update keeps the chain for lazy database materialization) hold
// a Clone, so the caller may keep building on the original afterwards.
func (d *Delta) Clone() *Delta {
	return &Delta{ops: append([]deltaOp(nil), d.ops...)}
}

// opsByRel splits the delta's ops per relation, preserving op order, and
// returns the touched relation names in first-appearance order.
func opsByRel(d *Delta) (map[string][]deltaOp, []string) {
	m := make(map[string][]deltaOp)
	var names []string
	for _, op := range d.ops {
		if _, ok := m[op.rel]; !ok {
			names = append(names, op.rel)
		}
		m[op.rel] = append(m[op.rel], op)
	}
	return m, names
}

// appendTok is one raw insert of a delta, live until a later delete of the
// same tuple consumes it.
type appendTok struct {
	key  string
	row  []relation.Value
	live bool
}

// relEffect is the validated net effect of a delta's ops on one relation,
// in all three views the engine maintains.
type relEffect struct {
	// set is the set-level view consumed by the executable structures.
	set jointree.RelDelta
	// multChanges holds the final multiplicity of every key whose
	// multiplicity changed (refcount view).
	multChanges map[string]int
	// keepOrig is, per touched key, how many leading original raw
	// occurrences survive; appends lists the surviving raw inserts in op
	// order (raw-database view).
	keepOrig map[string]int
	appends  []appendTok
}

// simulateRel replays ops in order against per-key refcounts. mult returns a
// key's multiplicity in the pre-delta raw relation. A delete removes the
// most recent occurrence — a pending insert of this delta if one is live,
// else the last surviving original occurrence; deleting a tuple with no
// occurrence left fails with ErrDeleteAbsent. The replay is pure: it reads
// the engine's state and builds the net effect, so a failing delta leaves
// everything untouched.
func simulateRel(relName string, arity int, ops []deltaOp, mult func(key string) int) (*relEffect, error) {
	type keyState struct {
		orig      int
		remaining int
		liveToks  []int
		row       []relation.Value
	}
	states := make(map[string]*keyState)
	var order []string // first-touch key order: deterministic net-effect output
	eff := &relEffect{multChanges: make(map[string]int), keepOrig: make(map[string]int)}
	var enc relation.KeyEncoder
	for _, op := range ops {
		if len(op.row) != arity {
			return nil, fmt.Errorf("qjoin: delta row for relation %s has %d values, want %d", relName, len(op.row), arity)
		}
		key := string(enc.Row(op.row))
		st := states[key]
		if st == nil {
			m := mult(key)
			st = &keyState{orig: m, remaining: m, row: op.row}
			states[key] = st
			order = append(order, key)
		}
		if !op.del {
			st.liveToks = append(st.liveToks, len(eff.appends))
			eff.appends = append(eff.appends, appendTok{key: key, row: op.row, live: true})
			continue
		}
		switch {
		case len(st.liveToks) > 0:
			ti := st.liveToks[len(st.liveToks)-1]
			st.liveToks = st.liveToks[:len(st.liveToks)-1]
			eff.appends[ti].live = false
		case st.remaining > 0:
			st.remaining--
		default:
			return nil, fmt.Errorf("%w: relation %s, row %v", ErrDeleteAbsent, relName, op.row)
		}
	}
	for _, key := range order {
		st := states[key]
		if final := st.remaining + len(st.liveToks); final != st.orig {
			eff.multChanges[key] = final
		}
		eff.keepOrig[key] = st.remaining
		// A key leaves the set view when no original occurrence survives.
		// Delete-then-reinsert therefore moves the tuple to the append
		// section — exactly where a fresh deduplication of the mutated raw
		// input would first encounter it.
		if st.orig > 0 && st.remaining == 0 {
			eff.set.RemovedRows = append(eff.set.RemovedRows, st.row)
		}
	}
	// Set-level additions: the first surviving insert of every key without a
	// surviving original occurrence, in op order. Later surviving inserts of
	// the same key only raise the multiplicity.
	emitted := make(map[string]bool)
	for _, tok := range eff.appends {
		if !tok.live || emitted[tok.key] {
			continue
		}
		if states[tok.key].remaining > 0 {
			continue // the key never left the set; this insert is a duplicate
		}
		emitted[tok.key] = true
		eff.set.AddedRows = append(eff.set.AddedRows, tok.row)
	}
	return eff, nil
}

// ApplyDelta applies a delta to a raw (multiset) database and returns a new
// database; untouched relations are shared, the input is never modified. It
// fails with ErrDeleteAbsent on a delete of an absent tuple and applies
// nothing in that case. The result is the canonical mutated database: a
// fresh Prepare on it answers exactly like Engine.Update on the compiled
// artifact.
func ApplyDelta(db *relation.Database, d *Delta) (*relation.Database, error) {
	if d == nil || d.Len() == 0 {
		return db, nil
	}
	byRel, names := opsByRel(d)
	effects := make(map[string]*relEffect, len(names))
	for _, name := range names {
		r := db.Get(name)
		if r == nil {
			return nil, fmt.Errorf("qjoin: delta references unknown relation %q", name)
		}
		ms := relation.NewMultisetWorkers(r, 1)
		eff, err := simulateRel(name, r.Arity(), byRel[name], ms.Mult)
		if err != nil {
			return nil, err
		}
		effects[name] = eff
	}
	out := relation.NewDatabase()
	for _, name := range db.Names() {
		r := db.Get(name)
		eff := effects[name]
		if eff == nil {
			out.Add(r)
			continue
		}
		nr := relation.NewWithCapacity(r.Name(), r.Arity(), r.Len()+len(eff.appends))
		var enc relation.KeyEncoder
		seen := make(map[string]int, len(eff.keepOrig))
		cols := r.Cols()
		n := r.Len()
		row := make([]relation.Value, r.Arity())
		for i := 0; i < n; i++ {
			key := enc.RowAt(cols, i)
			if limit, touched := eff.keepOrig[string(key)]; touched {
				if seen[string(key)] >= limit {
					continue // one of the trailing occurrences a delete removed
				}
				seen[string(key)]++
			}
			nr.AppendRow(r.CopyRow(row, i))
		}
		for _, tok := range eff.appends {
			if tok.live {
				nr.AppendRow(tok.row)
			}
		}
		out.Add(nr)
	}
	return out, nil
}

// multisets returns the per-source-relation raw multiplicities, building
// them on first use from the raw input database (engines derived by Update
// carry maintained multisets and never rebuild).
func (e *Engine) multisets() map[string]*relation.Multiset {
	e.setsMu.Lock()
	defer e.setsMu.Unlock()
	if e.sets == nil {
		sets := make(map[string]*relation.Multiset)
		for _, name := range e.db0.Names() {
			sets[name] = relation.NewMultisetWorkers(e.db0.Get(name), e.workers)
		}
		e.sets = sets
	}
	return e.sets
}

// Update derives an Engine reflecting the delta. The receiver is unchanged
// and stays fully usable; the derived engine shares every structure the
// delta did not touch. Inside the derived artifact:
//
//   - multiset refcounts absorb multiplicity changes,
//   - the deduplicated database drops removed rows (survivor order
//     preserved) and appends entering rows,
//   - the join-tree nodes reading a changed relation take the rewritten
//     relation (jointree ApplyDelta), with group indexes remapped or extended
//     in place of a rebuild,
//   - the counting state is delta-maintained along the root-to-leaf paths
//     whose group sums changed (yannakakis.UpdateCounts),
//   - the direct-access index is invalidated (rebuilt lazily on first use)
//     whenever the answer set could have changed, and kept when the delta
//     was a pure multiplicity change.
//
// A change to a source relation fans out to every atom over it, through the
// atom's row map (setDeltas). Update fails atomically with ErrDeleteAbsent when a delete has no
// remaining occurrence, and answers of the derived engine are byte-identical
// to a fresh Prepare on the ApplyDelta-mutated database.
//
// The returned Change says what the derivation did to the answer set; it is
// handed to the caller and not kept on either engine.
func (e *Engine) Update(d *Delta) (*Engine, Change, error) {
	if d == nil || d.Len() == 0 {
		return e, Change{}, nil
	}
	sets := e.multisets()
	byRel, names := opsByRel(d)
	effects := make(map[string]*relEffect, len(names))
	anySet := false
	for _, name := range names {
		ms := sets[name]
		if ms == nil {
			return nil, Change{}, fmt.Errorf("qjoin: delta references unknown relation %q", name)
		}
		eff, err := simulateRel(name, e.sourceArity(name), byRel[name], ms.Mult)
		if err != nil {
			return nil, Change{}, err
		}
		effects[name] = eff
		if !eff.set.Empty() {
			anySet = true
		}
	}
	newSets := make(map[string]*relation.Multiset, len(sets))
	for name, ms := range sets {
		newSets[name] = ms
	}
	for name, eff := range effects {
		if len(eff.multChanges) > 0 {
			newSets[name] = sets[name].Derive(eff.multChanges)
		}
	}
	if !anySet {
		// Pure multiplicity change: the set view — and with it every
		// compiled structure and cache — is still exact. Whatever lazy
		// structures the receiver already built are carried forward;
		// nothing is built eagerly and nothing is invalidated.
		return &Engine{
			src: e.src, origVars: e.origVars, q: e.q, db: e.db, tree: e.tree,
			exec: e.exec, pos: e.pos, workers: e.workers,
			counts: e.peekCounts(), sets: newSets,
			access: e.peekAccess(),
			dec:    e.dec, decQ: e.decQ, ddb: e.ddb, decStats: e.decStats,
			trimCache: e.trimCache,
		}, Change{}, nil
	}
	if e.dec != nil {
		return e.updateDecomposed(newSets, effects)
	}
	newExec, changes, err := e.exec.ApplyDelta(e.setDeltas(e.q, effects), e.workers)
	if err != nil {
		return nil, Change{}, err
	}
	if len(changes) == 0 {
		// Only relations outside the query changed: the answer set is
		// untouched, so every already-built cache carries forward (direct
		// access only ever reads query relations);
		// only the database view is new.
		return &Engine{
			src: e.src, origVars: e.origVars, q: e.q, db: newExec.DB, tree: e.tree,
			exec: newExec, pos: e.pos, workers: e.workers,
			counts: e.peekCounts(), sets: newSets,
			access:    e.peekAccess(),
			trimCache: e.trimCache,
		}, Change{}, nil
	}
	newCounts := yannakakis.UpdateCounts(e.Counts(), newExec, changes, e.workers)
	return &Engine{
		src: e.src, origVars: e.origVars, q: e.q, db: newExec.DB, tree: e.tree,
		exec: newExec, pos: e.pos, workers: e.workers,
		counts: newCounts, sets: newSets,
		trimCache: trim.NewCache(),
	}, Change{Nodes: changes}, nil
}

// setDeltas fans the set-level effects on source relations out to the
// relations of the normalized query q (e.q, or e.decQ behind a decomposition):
// every source relation under its own name — the normalized database keeps
// them all — and every atom that Normalize bound to a relation of its own, a
// self-join occurrence or a repeated-variable atom, through the atom's row
// map. Relations whose set view does not change are left out; a row that
// violates an atom's repeated-variable equality changes nothing there.
func (e *Engine) setDeltas(q *query.Query, effects map[string]*relEffect) map[string]jointree.RelDelta {
	out := make(map[string]jointree.RelDelta)
	for name, eff := range effects {
		if !eff.set.Empty() {
			out[name] = eff.set
		}
	}
	for i, atom := range e.src.Atoms {
		eff, name := effects[atom.Rel], q.Atoms[i].Rel
		if eff == nil || name == atom.Rel {
			continue
		}
		m := query.RowMapOf(atom)
		d := jointree.RelDelta{RemovedRows: m.Rows(eff.set.RemovedRows), AddedRows: m.Rows(eff.set.AddedRows)}
		if !d.Empty() {
			out[name] = d
		}
	}
	return out
}

// Change is what one Update did to the answer set, for callers that maintain
// state derived from it (the sketch summaries of a plan). The zero value means
// the answer set is untouched: an empty delta, a pure multiplicity change, or
// rows of a relation the query never reads.
type Change struct {
	// Nodes are the row-level changes of the executable tree's nodes, when
	// the derivation maintained the tree incrementally: the removed indexes
	// refer to the receiver's tree, the added ones to the derived engine's.
	Nodes []jointree.NodeChange
	// Rebuilt marks a derivation that rebuilt the tree instead (an engine
	// behind a hypertree decomposition rematerializes its bags): the answer
	// set may have changed and there is no row-level record of how.
	Rebuilt bool
}

// AnswersChanged reports whether the derived engine's answer set may differ
// from the receiver's.
func (c Change) AnswersChanged() bool { return c.Rebuilt || len(c.Nodes) > 0 }

// sourceArity returns the arity of a source-schema relation: straight from
// the compiled database normally, and from the source-side view on a
// decomposed engine (whose compiled database holds only bag relations).
func (e *Engine) sourceArity(name string) int {
	if e.dec == nil {
		return e.db.Get(name).Arity()
	}
	if e.ddb != nil {
		if r := e.ddb.Get(name); r != nil {
			return r.Arity()
		}
	}
	return e.db0.Get(name).Arity()
}

// sourceDedup returns the deduplicated, normalized source database a
// decomposed engine materializes its bags from, rebuilding it from the raw
// input on a snapshot-restored engine (which dropped it to keep snapshots
// lean). The receiver is never mutated; derived engines carry the result.
func (e *Engine) sourceDedup() *relation.Database {
	if e.ddb != nil {
		return e.ddb
	}
	_, db := normalize(e.src, e.db0, e.workers)
	return db
}

// updateDecomposed is Update's tail for engines whose source query was
// answered through a hypertree decomposition. The set-level effects are
// applied to the deduplicated source database, the bags covering a changed
// relation are re-materialized (untouched bags are shared by pointer), and
// the executable tree is rebuilt over the new bag database — so the derived
// engine is byte-identical to a fresh compile of the mutated input, except
// that its decomposition stats record the incremental work.
func (e *Engine) updateDecomposed(newSets map[string]*relation.Multiset, effects map[string]*relEffect) (*Engine, Change, error) {
	ddb := e.sourceDedup()
	newDDB := ddb.View()
	changed := make(map[string]bool)
	for name, d := range e.setDeltas(e.decQ, effects) {
		rel, _ := d.ApplyTo(ddb.Get(name))
		newDDB.Add(rel)
		changed[name] = true
	}
	if !slices.ContainsFunc(e.decQ.Atoms, func(a query.Atom) bool { return changed[a.Rel] }) {
		// Only relations outside the query changed: the bags — and every
		// compiled structure and cache — are still exact.
		return &Engine{
			src: e.src, origVars: e.origVars, q: e.q, db: e.db, tree: e.tree,
			exec: e.exec, pos: e.pos, workers: e.workers,
			counts: e.peekCounts(), sets: newSets,
			access: e.peekAccess(),
			dec:    e.dec, decQ: e.decQ, ddb: newDDB, decStats: e.decStats,
			trimCache: e.trimCache,
		}, Change{}, nil
	}
	newBagDB, st := e.dec.Rematerialize(e.decQ, newDDB, e.db, changed, e.workers)
	exec, err := jointree.NewExecWorkers(e.q, newBagDB, e.tree, e.workers)
	if err != nil {
		return nil, Change{}, err
	}
	return &Engine{
		src: e.src, origVars: e.origVars, q: e.q, db: newBagDB, tree: e.tree,
		exec: exec, pos: e.pos, workers: e.workers,
		sets: newSets,
		dec:  e.dec, decQ: e.decQ, ddb: newDDB, decStats: st,
		trimCache: trim.NewCache(),
	}, Change{Rebuilt: true}, nil
}
