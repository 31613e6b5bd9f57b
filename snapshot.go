package qjoin

// Plan snapshots: Prepared.Snapshot serializes a compiled plan — raw
// database, dictionary, the compiled engine artifact(s) and warm sketch
// summaries — into the versioned, checksummed container of internal/snap,
// and LoadPrepared / LoadPreparedBytes restore it without re-running Prepare's hash
// passes. The container has two plan kinds, and which one a plan writes
// follows whether it is routed: KindPrepared (one engine section, one
// summary per sketch section) from Prepare, KindSharded (shard count in the
// meta section, N engine sections, N summaries per sketch section) from
// PrepareSharded. See doc.go ("Durability") for the contract: what a
// snapshot captures, what it rebuilds lazily, and the byte-identity
// guarantee.

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/shard"
	"github.com/quantilejoins/qjoin/internal/sketch"
	"github.com/quantilejoins/qjoin/internal/snap"
)

// Typed snapshot errors (re-exported internal/snap sentinels; test with
// errors.Is). Loaders never return a partially decoded plan: any of these
// means no plan was produced.
var (
	// ErrNotSnapshot means the stream is not a qjoin snapshot at all.
	ErrNotSnapshot = snap.ErrBadMagic
	// ErrSnapshotVersion means the snapshot was written by a different
	// format revision. Re-Prepare from source data and re-save.
	ErrSnapshotVersion = snap.ErrVersion
	// ErrSnapshotChecksum means a section failed its CRC.
	ErrSnapshotChecksum = snap.ErrChecksum
	// ErrSnapshotTruncated means the stream ended before its end marker.
	ErrSnapshotTruncated = snap.ErrTruncated
	// ErrSnapshotCorrupt means the stream decoded to structurally invalid
	// data.
	ErrSnapshotCorrupt = snap.ErrCorrupt
)

// corruptf builds an ErrSnapshotCorrupt with context.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrSnapshotCorrupt}, args...)...)
}

// Snapshot writes the plan to w in the versioned binary snapshot format:
// the raw database (with its dictionary), one compiled engine artifact per
// shard, and every warm (non-stale) sketch entry. LoadPrepared restores a
// plan whose answers — including run statistics — are byte-identical to the
// receiver's at the moment of the call. On a plan derived by Update the
// delta chain is materialized first, so the snapshot is self-contained at
// the current generation.
func (p *Prepared) Snapshot(w io.Writer) error {
	raw := p.DB()
	routed := p.sh.Routed()
	kind := snap.KindPrepared
	if routed {
		kind = snap.KindSharded
	}
	sw := snap.NewWriter(w, kind)

	var e snap.Enc
	snap.EncodeQuery(&e, p.q)
	if routed {
		e.U32(uint32(p.sh.Shards()))
	}
	if err := sw.Section(snap.SecMeta, e.Bytes()); err != nil {
		return err
	}
	e = snap.Enc{}
	snap.EncodeDict(&e, raw.inner.Dict())
	if err := sw.Section(snap.SecDict, e.Bytes()); err != nil {
		return err
	}
	rw := snap.NewRelWriter()
	e = snap.Enc{}
	snap.EncodeDatabase(&e, rw, raw.inner)
	if err := sw.Section(snap.SecRawDB, e.Bytes()); err != nil {
		return err
	}
	for _, eng := range p.sh.Engines() {
		e = snap.Enc{}
		snap.EncodeEngine(&e, rw, eng)
		if err := sw.Section(snap.SecEngine, e.Bytes()); err != nil {
			return err
		}
	}
	for _, s := range p.snapshotSketches() {
		e = snap.Enc{}
		e.Str(s.spec)
		if routed {
			e.F64(s.entry.res)
			e.U32(uint32(len(s.entry.parts)))
		}
		for _, part := range s.entry.parts {
			snap.EncodeSummary(&e, part)
		}
		if err := sw.Section(snap.SecSketch, e.Bytes()); err != nil {
			return err
		}
	}
	return sw.Close()
}

// specSketch is one serializable sketch entry: wire spec plus entry.
type specSketch struct {
	spec  string
	entry *sketchEntry
}

// snapshotSketches collects the plan's serializable sketch entries: fresh
// (stale parts would need re-certification the loader cannot perform) and
// with a wire-formattable ranking. Sorted by spec so snapshots are byte-
// deterministic.
func (p *Prepared) snapshotSketches() []specSketch {
	p.skMu.Lock()
	defer p.skMu.Unlock()
	var out []specSketch
	for _, en := range p.sketches {
		if !en.fresh() {
			continue
		}
		spec, err := FormatRanking(en.f) // fails on a custom Weight: no wire form
		if err != nil {
			continue
		}
		out = append(out, specSketch{spec, en})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].spec < out[j].spec })
	return out
}

// LoadPrepared restores a plan saved by Prepared.Snapshot, of either kind:
// a stream written by a Prepare plan restores one engine, a stream written
// by a PrepareSharded plan restores its N shard engines and routing. The
// expensive compile passes (dedup hashing, node materialization, group
// indexing, counting) are skipped — only the cheap pure-function state is
// recomputed — so restoring is roughly an order of magnitude faster than
// Prepare on the same data. An optional Options value becomes the restored
// plan's defaults, exactly as with Prepare; answers are byte-identical for
// every Parallelism value and to the plan that was saved.
func LoadPrepared(r io.Reader, opts ...Options) (*Prepared, error) {
	sr, err := snap.NewReader(r)
	if err != nil {
		return nil, err
	}
	return loadPlan(sr, opts)
}

// LoadPreparedBytes is LoadPrepared over an in-memory snapshot, skipping the
// stream copy: the restored plan's columns alias b (zero copy), so b must not
// be modified while the plan is alive. This is the fast path for blue/green
// handoff and mmap'd snapshot files.
func LoadPreparedBytes(b []byte, opts ...Options) (*Prepared, error) {
	sr, err := snap.NewReaderBytes(b)
	if err != nil {
		return nil, err
	}
	return loadPlan(sr, opts)
}

// LoadPlanBytes is LoadPreparedBytes under the Plan name.
func LoadPlanBytes(b []byte, opts ...Options) (Plan, error) { return LoadPreparedBytes(b, opts...) }

// loadPlan decodes a plan while the section checksum pass runs concurrently
// (snap.Reader.Sections); the verify join gates every exit, and a checksum
// failure wins over whatever the decode made of the bad bytes.
func loadPlan(sr *snap.Reader, opts []Options) (*Prepared, error) {
	o, err := oneOpt(opts)
	if err != nil {
		return nil, err
	}
	kind := sr.Kind()
	if kind != snap.KindPrepared && kind != snap.KindSharded {
		return nil, corruptf("stream holds kind %d, not a plan snapshot", kind)
	}
	secs, verify, err := sr.Sections()
	if err != nil {
		return nil, err
	}
	p, err := decodePlan(secs, kind == snap.KindSharded, o)
	if verr := verify(); verr != nil {
		return nil, verr
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// decodePlan decodes the fixed section sequence of a plan snapshot — Meta,
// Dict, RawDB, one Engine per shard, any number of Sketch. routed selects
// the two kind-dependent layouts: the shard count in the meta section and
// the per-shard framing of the sketch sections.
func decodePlan(secs []snap.Section, routed bool, o Options) (*Prepared, error) {
	if len(secs) < 1 || secs[0].ID != snap.SecMeta {
		return nil, corruptf("missing meta section")
	}
	d := snap.NewDec(secs[0].Payload)
	src := snap.DecodeQuery(d)
	shards := 1
	if routed {
		shards = int(d.U32())
	}
	if d.Err() != nil || !d.Done() {
		return nil, corruptf("bad meta section")
	}
	if shards < 1 || shards > MaxShards {
		return nil, corruptf("shard count %d", shards)
	}
	want := []uint32{snap.SecMeta, snap.SecDict, snap.SecRawDB}
	if len(secs) < len(want)+shards {
		return nil, corruptf("plan snapshot has %d sections", len(secs))
	}
	for i, s := range secs {
		id := snap.SecSketch
		if i < len(want) {
			id = want[i]
		} else if i < len(want)+shards {
			id = snap.SecEngine
		}
		if s.ID != id {
			return nil, corruptf("section %d has id %d, want %d", i, s.ID, id)
		}
	}
	engPls, skPls := secs[len(want):len(want)+shards], secs[len(want)+shards:]
	db, rd, err := decodeRawDB(secs[1].Payload, secs[2].Payload)
	if err != nil {
		return nil, err
	}
	var sh *shard.Sharded
	if routed {
		// The partition is replayed from (src, db); each engine must have been
		// compiled from the self-join-free rewrite its partition is routed by.
		sh, err = shard.Restore(src, db.inner, shards, o.Parallelism,
			func(i int, q *Query, sdb *relation.Database, per int) (*engine.Engine, error) {
				eng, err := decodeEngine(engPls[i].Payload, rd, sdb, per)
				if err == nil && eng.Source().String() != q.String() {
					err = corruptf("shard %d engine query %s does not match partition query %s", i, eng.Source(), q)
				}
				return eng, err
			})
		if err != nil {
			return nil, asSnapshotErr(err)
		}
	} else {
		eng, err := decodeEngine(engPls[0].Payload, rd, db.inner, o.Parallelism)
		if err == nil && eng.Source().String() != src.String() {
			err = corruptf("engine query %s does not match plan query %s", eng.Source(), src)
		}
		if err != nil {
			return nil, err
		}
		sh = shard.Single(eng)
	}
	p := &Prepared{q: src, db: db, sh: sh, opts: o}
	for _, sec := range skPls {
		d := snap.NewDec(sec.Payload)
		spec := d.Str()
		var res float64
		if routed {
			res = d.F64()
			if n := int(d.U32()); d.Err() == nil && n != shards {
				return nil, corruptf("sketch %q has %d parts, plan has %d shards", spec, n, shards)
			}
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		parts := make([]*sketch.Summary, shards)
		for i := range parts {
			if parts[i], err = snap.DecodeSummary(d); err != nil {
				return nil, err
			}
		}
		if !d.Done() {
			return nil, corruptf("trailing bytes in sketch section")
		}
		if !routed {
			res = parts[0].Res
		}
		f, err := ParseRanking(spec)
		if err == nil {
			err = f.Validate(p.q)
		}
		if err != nil {
			return nil, corruptf("sketch ranking %q: %v", spec, err)
		}
		merged := parts[0]
		if len(parts) > 1 {
			// Merge is deterministic, so the rebuilt merge is byte-identical
			// to the one the saver held.
			merged = sketch.Merge(parts, f.Compare)
		}
		if p.sketches == nil {
			p.sketches = make(map[ranking.Key]*sketchEntry)
		}
		p.sketches[f.Key()] = &sketchEntry{f: f, parts: parts, merged: merged, res: res}
	}
	return p, nil
}

// decodeEngine decodes one engine section over the database it was compiled
// against (the raw database, or a shard's partition of it).
func decodeEngine(pl []byte, rd *snap.RelReader, db *relation.Database, workers int) (*engine.Engine, error) {
	d := snap.NewDec(pl)
	eng, err := snap.DecodeEngine(d, rd, db, workers)
	if err != nil {
		return nil, err
	}
	if !d.Done() {
		return nil, corruptf("trailing bytes in engine section")
	}
	return eng, nil
}

// decodeRawDB decodes the dictionary and raw database sections, attaching
// the dictionary. The returned RelReader carries the relation backref
// registry into the engine sections.
func decodeRawDB(dictPl, rawPl []byte) (*DB, *snap.RelReader, error) {
	d := snap.NewDec(dictPl)
	dict, err := snap.DecodeDict(d)
	if err != nil {
		return nil, nil, err
	}
	if !d.Done() {
		return nil, nil, corruptf("trailing bytes in dictionary section")
	}
	rd := snap.NewRelReader()
	d = snap.NewDec(rawPl)
	inner, err := snap.DecodeDatabase(d, rd)
	if err != nil {
		return nil, nil, err
	}
	if !d.Done() {
		return nil, nil, corruptf("trailing bytes in database section")
	}
	inner.SetDict(dict)
	return &DB{inner: inner}, rd, nil
}

// DatasetMeta is the identity block of a dataset snapshot: the serving-layer
// state that must survive a restart alongside the data itself. Gen is the
// registry generation the snapshot captures; recovery reinstalls the dataset
// at exactly this generation (plus any WAL records beyond it) so responses
// after a crash report the same generation numbers as before.
type DatasetMeta struct {
	Name   string
	Gen    uint64
	Shards int
}

// SnapshotDataset writes a dataset — raw database, dictionary and the
// serving-layer identity in meta — to w in the versioned snapshot container.
// Unlike a plan snapshot it carries no compiled engine artifact: the serving
// layer recompiles plans on demand through its cache, so the dataset snapshot
// stays small and load-shaped. LoadDatasetBytes restores it.
func SnapshotDataset(w io.Writer, db *DB, meta DatasetMeta) error {
	sw := snap.NewWriter(w, snap.KindDataset)
	var e snap.Enc
	e.Str(meta.Name)
	e.U64(meta.Gen)
	e.U32(uint32(meta.Shards))
	// Reserved until the next container version bump: an array of per-shard
	// generations that earlier servers recorded and nothing reads. It is
	// written empty so the format, and files already written, stay as they are.
	snap.PutArray[uint64](&e, nil)
	if err := sw.Section(snap.SecMeta, e.Bytes()); err != nil {
		return err
	}
	e = snap.Enc{}
	snap.EncodeDict(&e, db.inner.Dict())
	if err := sw.Section(snap.SecDict, e.Bytes()); err != nil {
		return err
	}
	rw := snap.NewRelWriter()
	e = snap.Enc{}
	snap.EncodeDatabase(&e, rw, db.inner)
	if err := sw.Section(snap.SecRawDB, e.Bytes()); err != nil {
		return err
	}
	return sw.Close()
}

// LoadDatasetBytes restores a dataset snapshot written by SnapshotDataset from
// memory (see LoadPreparedBytes for the aliasing contract).
func LoadDatasetBytes(b []byte) (*DB, DatasetMeta, error) {
	sr, err := snap.NewReaderBytes(b)
	if err != nil {
		return nil, DatasetMeta{}, err
	}
	return loadDataset(sr)
}

func loadDataset(sr *snap.Reader) (*DB, DatasetMeta, error) {
	if sr.Kind() != snap.KindDataset {
		return nil, DatasetMeta{}, corruptf("stream holds kind %d, want a dataset snapshot", sr.Kind())
	}
	secs, verify, err := sr.Sections()
	if err != nil {
		return nil, DatasetMeta{}, err
	}
	db, meta, err := decodeDataset(secs)
	if verr := verify(); verr != nil {
		return nil, DatasetMeta{}, verr
	}
	if err != nil {
		return nil, DatasetMeta{}, err
	}
	return db, meta, nil
}

func decodeDataset(secs []snap.Section) (*DB, DatasetMeta, error) {
	if len(secs) != 3 || secs[0].ID != snap.SecMeta || secs[1].ID != snap.SecDict || secs[2].ID != snap.SecRawDB {
		return nil, DatasetMeta{}, corruptf("dataset snapshot has the wrong section sequence")
	}
	d := snap.NewDec(secs[0].Payload)
	meta := DatasetMeta{Name: d.Str(), Gen: d.U64(), Shards: int(d.U32())}
	// The reserved slot (see SnapshotDataset) is input, so it is checked
	// against the shard count, then discarded.
	reserved := snap.Array[uint64](d)
	if d.Err() != nil || !d.Done() {
		return nil, DatasetMeta{}, corruptf("bad dataset meta section")
	}
	if meta.Shards < 0 || meta.Shards > MaxShards {
		return nil, DatasetMeta{}, corruptf("dataset shard count %d", meta.Shards)
	}
	if len(reserved) != 0 && len(reserved) != meta.Shards {
		return nil, DatasetMeta{}, corruptf("dataset has %d shard generations for %d shards", len(reserved), meta.Shards)
	}
	db, _, err := decodeRawDB(secs[1].Payload, secs[2].Payload)
	if err != nil {
		return nil, DatasetMeta{}, err
	}
	return db, meta, nil
}

// asSnapshotErr maps non-sentinel errors surfacing from structural replay
// (shard.Restore validation) onto ErrSnapshotCorrupt: during a load, a
// database that fails validation IS corruption.
func asSnapshotErr(err error) error {
	for _, sentinel := range []error{ErrNotSnapshot, ErrSnapshotVersion, ErrSnapshotChecksum, ErrSnapshotTruncated, ErrSnapshotCorrupt} {
		if errors.Is(err, sentinel) {
			return err
		}
	}
	return fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
}
