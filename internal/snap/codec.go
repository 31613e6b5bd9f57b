package snap

import (
	"encoding/binary"
	"fmt"

	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/sketch"
	"github.com/quantilejoins/qjoin/internal/yannakakis"
)

// corrupt wraps a structural-validation failure in the ErrCorrupt sentinel.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// ---- queries ----------------------------------------------------------

// EncodeQuery writes a query structurally: atoms as (relation name,
// variable list). Structural, not the wire syntax, because rewritten
// queries contain generated relation names (self-join occurrences) the
// parser need not round-trip.
func EncodeQuery(e *Enc, q *query.Query) {
	e.U32(uint32(len(q.Atoms)))
	for _, a := range q.Atoms {
		e.Str(a.Rel)
		e.U32(uint32(len(a.Vars)))
		for _, v := range a.Vars {
			e.Str(string(v))
		}
	}
}

// DecodeQuery reads a structurally encoded query. The atom count sizes
// nothing: it is read before the section's checksum is known good, and each
// atom's bytes must be there for the loop to go on.
func DecodeQuery(d *Dec) *query.Query {
	n := d.U32()
	var atoms []query.Atom
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		a := query.Atom{Rel: d.Str()}
		nv := d.U32()
		for j := uint32(0); j < nv && d.Err() == nil; j++ {
			a.Vars = append(a.Vars, query.Var(d.Str()))
		}
		atoms = append(atoms, a)
	}
	return query.New(atoms...)
}

// ---- dictionary -------------------------------------------------------

// EncodeDict writes the interned strings in id order; re-interning them in
// this order reproduces every id.
func EncodeDict(e *Enc, dict *relation.Dict) {
	strs := dict.Strings()
	e.U64(uint64(len(strs)))
	for _, s := range strs {
		e.Str(s)
	}
}

// DecodeDict rebuilds the dictionary, validating that ids come out dense and
// sequential (a duplicate string in the stream would silently remap ids).
func DecodeDict(d *Dec) (*relation.Dict, error) {
	n := d.Len(1)
	dict := relation.NewDict()
	for i := 0; i < n && d.Err() == nil; i++ {
		if id := dict.Intern(d.Str()); id != relation.Value(i) {
			return nil, corrupt("dictionary id %d out of sequence", i)
		}
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return dict, nil
}

// ---- relations --------------------------------------------------------

// RelWriter writes each column set of one snapshot stream once. The first
// encoding of a relation is inline; the same relation again (shared by
// pointer: a shard-replicated relation, an engine's database relation that is
// its raw input) is a backref, and a different relation over the same columns
// (a deduplication that dropped nothing, a self-join occurrence) is a view: a
// backref plus the name and distinct marker of its own.
type RelWriter struct {
	ids  map[*relation.Relation]uint32
	cols map[*relation.Value]*relation.Relation // first value of an inline relation's first column → that relation
}

// Relation record tags.
const (
	relInline  = 0
	relBackref = 1
	relView    = 2
)

// NewRelWriter returns an empty registry for one stream.
func NewRelWriter() *RelWriter {
	return &RelWriter{ids: make(map[*relation.Relation]uint32), cols: make(map[*relation.Value]*relation.Relation)}
}

// Encode writes one relation: inline, as a backref, or as a view.
func (w *RelWriter) Encode(e *Enc, r *relation.Relation) {
	if id, ok := w.ids[r]; ok {
		e.U8(relBackref)
		e.U32(id)
		return
	}
	w.ids[r] = uint32(len(w.ids))
	if base := w.sharing(r); base != nil {
		e.U8(relView)
		e.U32(w.ids[base])
		e.Str(r.Name())
		e.Bool(r.IsDistinct())
		return
	}
	if r.Arity() > 0 && r.Len() > 0 {
		w.cols[&r.Col(0)[0]] = r
	}
	e.U8(relInline)
	e.Str(r.Name())
	e.Bool(r.IsDistinct())
	e.U32(uint32(r.Arity()))
	e.U64(uint64(r.Len()))
	e.Align8() // each column is 8·n bytes, so one alignment covers them all
	e.Grow(8 * r.Arity() * r.Len())
	for _, col := range r.Cols() {
		putBlock(e, col)
	}
}

// sharing returns the inline-written relation whose columns r's are — same
// shape, every column starting at the same address — or nil.
func (w *RelWriter) sharing(r *relation.Relation) *relation.Relation {
	if r.Arity() == 0 || r.Len() == 0 {
		return nil
	}
	base := w.cols[&r.Col(0)[0]]
	if base == nil || base.Arity() != r.Arity() || base.Len() != r.Len() {
		return nil
	}
	for j, col := range r.Cols() {
		if &col[0] != &base.Col(j)[0] {
			return nil
		}
	}
	return base
}

// RelReader mirrors RelWriter: inline relations and views append to the
// decoded list, backrefs and views index into it. References only ever point
// backward, so decoding is a single pass.
type RelReader struct {
	rels []*relation.Relation
}

// NewRelReader returns an empty registry for one stream.
func NewRelReader() *RelReader { return &RelReader{} }

// Decode reads one relation.
func (rd *RelReader) Decode(d *Dec) (*relation.Relation, error) {
	tag := d.U8()
	switch tag {
	case relBackref, relView:
		id := d.U32()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if int(id) >= len(rd.rels) {
			return nil, corrupt("relation backref %d out of range", id)
		}
		r := rd.rels[id]
		if tag == relView {
			r = relation.FromColumns(d.Str(), r.Cols(), d.Bool())
			if d.Err() != nil {
				return nil, d.Err()
			}
			rd.rels = append(rd.rels, r)
		}
		return r, nil
	case relInline:
		name := d.Str()
		distinct := d.Bool()
		arity := int(d.U32())
		if d.Err() != nil {
			return nil, d.Err()
		}
		if arity > 1<<20 {
			return nil, corrupt("relation %s arity %d", name, arity)
		}
		n := d.Len(8 * max(arity, 1))
		if d.Err() != nil {
			return nil, d.Err()
		}
		d.Align8()
		cols := make([][]relation.Value, arity)
		for j := range cols {
			cols[j] = Block[relation.Value](d, n)
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		r := relation.FromColumns(name, cols, distinct)
		rd.rels = append(rd.rels, r)
		return r, nil
	default:
		if d.Err() != nil {
			return nil, d.Err()
		}
		return nil, corrupt("relation record tag %d", tag)
	}
}

// ---- databases --------------------------------------------------------

// EncodeDatabase writes a database's relations in Names() order. The
// dictionary is NOT included — it is stream-global (SecDict) because every
// database in a snapshot shares it.
func EncodeDatabase(e *Enc, w *RelWriter, db *relation.Database) {
	names := db.Names()
	e.U32(uint32(len(names)))
	for _, name := range names {
		w.Encode(e, db.Get(name))
	}
}

// DecodeDatabase rebuilds a database, adding relations in encoded order so
// iteration order round-trips. The caller attaches the stream dictionary
// when the original database carried one.
func DecodeDatabase(d *Dec, rd *RelReader) (*relation.Database, error) {
	n := d.U32()
	if d.Err() != nil {
		return nil, d.Err()
	}
	db := relation.NewDatabase()
	for i := uint32(0); i < n; i++ {
		r, err := rd.Decode(d)
		if err != nil {
			return nil, err
		}
		if db.Has(r.Name()) {
			return nil, corrupt("duplicate relation %q", r.Name())
		}
		db.Add(r)
	}
	return db, nil
}

// ---- counts -----------------------------------------------------------

// EncodeCount writes one 128-bit count.
func EncodeCount(e *Enc, c counting.Count) {
	e.U64(c.Hi)
	e.U64(c.Lo)
}

// DecodeCount reads one 128-bit count.
func DecodeCount(d *Dec) counting.Count {
	return counting.Count{Hi: d.U64(), Lo: d.U64()}
}

func encodeCountArr(e *Enc, cs []counting.Count) {
	e.Bool(cs != nil)
	if cs == nil {
		return
	}
	e.Align8()
	e.U64(uint64(len(cs)))
	e.Grow(16 * len(cs))
	for _, c := range cs {
		EncodeCount(e, c)
	}
}

func decodeCountArr(d *Dec) []counting.Count {
	if !d.Bool() {
		return nil
	}
	d.Align8()
	n := d.Len(16)
	b := d.take(16 * n)
	if b == nil || n == 0 {
		return nil
	}
	// counting.Count is exactly two uint64 words, Hi then Lo: the wire order.
	if cs := view[counting.Count](b, n); cs != nil {
		return cs
	}
	cs := make([]counting.Count, n)
	for i := range cs {
		cs[i] = counting.Count{
			Hi: binary.LittleEndian.Uint64(b[16*i:]),
			Lo: binary.LittleEndian.Uint64(b[16*i+8:]),
		}
	}
	return cs
}

// ---- group indexes ----------------------------------------------------

// encodeGroupIndex writes a group index as four parts: the key interner's
// internals (tuples in group-id order, per-id hashes, probe table), the
// per-row gid array, and the flattened per-group tuple lists. Hashes, table
// and tuple lists are all rederivable but written anyway — each is a piece
// whose rebuild costs a hash/alloc/fill pass, and on the restore path every
// one aliases straight out of the payload instead.
func encodeGroupIndex(e *Enc, g *jointree.GroupIndex) {
	vals, hashes, table := g.Keys().Parts()
	width, ng := g.Keys().Width(), len(hashes)
	e.U32(uint32(width))
	e.U64(uint64(ng))
	e.Align8()
	putBlock(e, vals)
	PutArray(e, hashes)
	PutArray(e, table)
	PutArray(e, g.RowGid)
	e.Align8()
	e.U64(uint64(len(g.RowGid)))
	e.Grow(8 * len(g.RowGid))
	for gid := 0; gid < ng; gid++ {
		putBlock(e, g.Tuples[gid])
	}
}

// decodeGroupIndex rebuilds a group index by adopting the serialized interner
// parts (relation.InternerFromParts owns the structural validation).
func decodeGroupIndex(d *Dec, wantRows int) (*jointree.GroupIndex, error) {
	width := int(d.U32())
	if d.Err() != nil {
		return nil, d.Err()
	}
	if width < 0 || width > 1<<20 {
		return nil, corrupt("group key width %d", width)
	}
	ng := d.Len(8 * max(width, 1))
	d.Align8()
	flat := Block[relation.Value](d, width*ng)
	hashes := Array[uint64](d)
	table := Array[uint32](d)
	if d.Err() != nil {
		return nil, d.Err()
	}
	if len(hashes) != ng {
		return nil, corrupt("interner has %d hashes for %d keys", len(hashes), ng)
	}
	keys, ok := relation.InternerFromParts(width, flat, hashes, table)
	if !ok {
		return nil, corrupt("interner parts inconsistent")
	}
	rowGid := Array[int32](d)
	if d.Err() != nil {
		return nil, d.Err()
	}
	if len(rowGid) != wantRows {
		return nil, corrupt("row gid array has %d entries, relation has %d rows", len(rowGid), wantRows)
	}
	// Gid range validation happens inside GroupIndexFromFlat's counting pass.
	tuples := Array[int](d)
	if d.Err() != nil {
		return nil, d.Err()
	}
	g, ok := jointree.GroupIndexFromFlat(keys, rowGid, tuples)
	if !ok {
		return nil, corrupt("group tuple lists inconsistent with row gids")
	}
	return g, nil
}

// ---- engines ----------------------------------------------------------

// EncodeEngine writes one compiled engine: its source and normalized queries,
// the deduplicated database, the executable tree's per-node hashed state
// (group index, parent-gid array — a node's relation is the database's, found
// again by name), and the counting state. The raw input database (db0) is NOT
// included — the caller owns it (it is the raw section for unsharded plans, a
// deterministic re-partition for shards).
func EncodeEngine(e *Enc, w *RelWriter, eng *engine.Engine) {
	EncodeQuery(e, eng.Source())
	EncodeQuery(e, eng.Query())
	EncodeDatabase(e, w, eng.DB())
	ex := eng.Exec()
	tree := eng.Tree()
	e.U32(uint32(len(tree.Nodes)))
	for _, n := range tree.Nodes {
		if n.Parent < 0 {
			continue
		}
		encodeGroupIndex(e, ex.Groups[n.ID])
		e.Bool(true) // every Exec has the edge's array; DecodeEngine refuses a record without
		PutArray(e, ex.ParentGids(n.ID))
	}
	counts := eng.Counts()
	e.U32(uint32(len(counts.Tuple)))
	for i := range counts.Tuple {
		encodeCountArr(e, counts.Tuple[i])
		encodeCountArr(e, counts.Group[i])
	}
	EncodeCount(e, counts.Total)
}

// DecodeEngine rebuilds an engine from one engine section. The join tree and
// key positions are recomputed (pure functions of the decoded rewritten
// query); the hashed state (dedup relations, group interners, gid arrays,
// counts) is taken from the stream after structural validation. db0 is the
// raw input database the engine's lazy multisets rebuild from.
func DecodeEngine(d *Dec, rd *RelReader, db0 *relation.Database, parallelism int) (*engine.Engine, error) {
	src := DecodeQuery(d)
	q := DecodeQuery(d)
	if d.Err() != nil {
		return nil, d.Err()
	}
	db, err := DecodeDatabase(d, rd)
	if err != nil {
		return nil, err
	}
	if err := q.Validate(db); err != nil {
		return nil, corrupt("rewritten query does not match database: %v", err)
	}
	// The rewrite preserves the variable set; a mismatch means the two
	// queries are not a (source, rewrite) pair and the answer projection
	// would silently read wrong columns.
	idx := q.VarIndex()
	for _, v := range src.Vars() {
		if _, ok := idx[v]; !ok {
			return nil, corrupt("source variable %s missing from rewrite", v)
		}
	}
	tree, err := jointree.Build(q)
	if err != nil {
		return nil, corrupt("decoded query is cyclic")
	}
	nNodes := int(d.U32())
	if d.Err() != nil {
		return nil, d.Err()
	}
	if nNodes != len(tree.Nodes) {
		return nil, corrupt("engine has %d node records, tree has %d nodes", nNodes, len(tree.Nodes))
	}
	// The tree over the decoded database — a node's relation is the database's
	// relation of its atom — with per-edge state still to come: the decoding
	// below fills the slices the Exec holds.
	groups := make([]*jointree.GroupIndex, nNodes)
	parentGid := make([][]int32, nNodes)
	exec, err := jointree.RestoreExec(q, db, tree, groups, parentGid)
	if err != nil {
		return nil, corrupt("%v", err)
	}
	rels := exec.Rels
	for _, n := range tree.Nodes {
		if n.Parent < 0 {
			continue
		}
		if groups[n.ID], err = decodeGroupIndex(d, rels[n.ID].Len()); err != nil {
			return nil, err
		}
		if !d.Bool() && d.Err() == nil {
			return nil, corrupt("edge %d has no parent-gid array", n.ID)
		}
		if parentGid[n.ID] = Array[int32](d); d.Err() != nil {
			return nil, d.Err()
		}
	}
	// Cross-node validation that needs every relation decoded: parent-gid
	// arrays are indexed by parent row and hold gids of the child's index.
	for _, n := range tree.Nodes {
		if n.Parent < 0 {
			continue
		}
		pg := parentGid[n.ID]
		if len(pg) != rels[n.Parent].Len() {
			return nil, corrupt("edge %d gid array has %d entries, parent has %d rows", n.ID, len(pg), rels[n.Parent].Len())
		}
		ng := int32(groups[n.ID].NumGroups())
		for i, gid := range pg {
			if gid < -1 || gid >= ng {
				return nil, corrupt("edge %d parent row %d gid %d out of range", n.ID, i, gid)
			}
		}
	}
	nCounts := int(d.U32())
	if d.Err() != nil {
		return nil, d.Err()
	}
	if nCounts != nNodes {
		return nil, corrupt("counts cover %d nodes, tree has %d", nCounts, nNodes)
	}
	counts := &yannakakis.Counts{
		Tuple: make([][]counting.Count, nNodes),
		Group: make([][]counting.Count, nNodes),
	}
	for i := 0; i < nNodes; i++ {
		counts.Tuple[i] = decodeCountArr(d)
		counts.Group[i] = decodeCountArr(d)
		if d.Err() != nil {
			return nil, d.Err()
		}
		if counts.Tuple[i] != nil && len(counts.Tuple[i]) != rels[i].Len() {
			return nil, corrupt("node %d tuple counts cover %d rows, relation has %d", i, len(counts.Tuple[i]), rels[i].Len())
		}
		if counts.Group[i] != nil && groups[i] != nil && len(counts.Group[i]) != groups[i].NumGroups() {
			return nil, corrupt("node %d group counts cover %d groups, index has %d", i, len(counts.Group[i]), groups[i].NumGroups())
		}
	}
	counts.Total = DecodeCount(d)
	if d.Err() != nil {
		return nil, d.Err()
	}
	eng, err := engine.Restore(src, q, db0, db, tree, exec, counts, parallelism)
	if err != nil {
		return nil, corrupt("%v", err)
	}
	return eng, nil
}

// ---- sketch summaries -------------------------------------------------

// EncodeSummary writes one warm sketch summary.
func EncodeSummary(e *Enc, s *sketch.Summary) {
	e.U32(uint32(len(s.Entries)))
	for _, en := range s.Entries {
		e.I64(en.Weight.K)
		PutArray(e, en.Weight.Vec)
		PutArray(e, en.Values)
		EncodeCount(e, en.RMin)
		EncodeCount(e, en.RMax)
	}
	EncodeCount(e, s.N)
	e.F64(s.Res)
	e.Bool(s.Lossy)
	EncodeCount(e, s.B)
}

// DecodeSummary reads one warm sketch summary. The certified bound B is
// restored as recorded, not recomputed — the summary is immutable and the
// bound was computed from exactly these windows at build time.
func DecodeSummary(d *Dec) (*sketch.Summary, error) {
	n := int(d.U32())
	if d.Err() != nil {
		return nil, d.Err()
	}
	if n < 0 || n > sketch.MaxEntries*4 {
		return nil, corrupt("summary has %d entries", n)
	}
	s := &sketch.Summary{Entries: make([]sketch.Entry, n)}
	for i := range s.Entries {
		en := &s.Entries[i]
		en.Weight.K = d.I64()
		en.Weight.Vec = Array[int64](d)
		en.Values = Array[relation.Value](d)
		en.RMin = DecodeCount(d)
		en.RMax = DecodeCount(d)
	}
	s.N = DecodeCount(d)
	s.Res = d.F64()
	s.Lossy = d.Bool()
	s.B = DecodeCount(d)
	if d.Err() != nil {
		return nil, d.Err()
	}
	return s, nil
}

// ---- deltas -----------------------------------------------------------

// EncodeDelta writes a delta batch op-by-op in order.
func EncodeDelta(e *Enc, delta *engine.Delta) {
	e.U32(uint32(delta.Len()))
	delta.Ops(func(rel string, row []relation.Value, del bool) {
		e.Bool(del)
		e.Str(rel)
		PutArray(e, row)
	})
}

// DecodeDelta reads a delta batch.
func DecodeDelta(d *Dec) (*engine.Delta, error) {
	n := int(d.U32())
	if d.Err() != nil {
		return nil, d.Err()
	}
	delta := engine.NewDelta()
	for i := 0; i < n; i++ {
		del := d.Bool()
		rel := d.Str()
		row := Array[relation.Value](d)
		if d.Err() != nil {
			return nil, d.Err()
		}
		if del {
			delta.Delete(rel, row)
		} else {
			delta.Insert(rel, row)
		}
	}
	return delta, nil
}
