package relation

// Interned integer row keys. An Interner maps flat []Value tuples to dense
// uint32 ids (0, 1, 2, … in first-intern order) through an open-addressed
// table over 64-bit mixed hashes: a probe hashes width values, an insert
// copies them into one flat array, and hot loops compare and index by
// integers — no per-key allocation anywhere.
//
// Dense first-appearance ids are the load-bearing property: group ids,
// dedup survivor order and segment ids all follow them, so a structure built
// over chunks and merged in chunk order numbers its keys exactly as the
// sequential build does.
//
// An Interner is not safe for concurrent mutation; parallel passes intern
// into per-chunk interners and merge in chunk order. Read-only Lookup is
// safe for any number of concurrent readers.

// Interner maps fixed-width Value tuples to dense uint32 ids.
//
// A derived Interner (see Derive) keeps a pointer to an immutable base and
// records only its own additions, mirroring the copy-on-write overlay the
// incremental-maintenance layer uses for group indexes: deriving is O(|new
// keys|), and the base stays safe for concurrent readers of older Execs.
type Interner struct {
	width  int
	table  []uint32 // open-addressed slots holding local id+1; 0 = empty
	mask   uint64
	hashes []uint64 // per local id
	vals   []Value  // flat tuple storage, local id i at [i*width, (i+1)*width)

	base    *Interner // immutable parent; nil for a root interner
	baseLen uint32    // base.Len() at derivation time
}

const internMinTable = 16

// NewInterner returns an empty interner for tuples of the given width,
// presized for about capHint distinct tuples.
func NewInterner(width, capHint int) *Interner {
	it := &Interner{width: width}
	it.grow(tableSizeFor(capHint))
	if capHint > 0 {
		it.hashes = make([]uint64, 0, capHint)
		if width > 0 {
			it.vals = make([]Value, 0, capHint*width)
		}
	}
	return it
}

func tableSizeFor(capHint int) int {
	size := internMinTable
	for size*3 < capHint*4 { // keep load factor under 3/4 at capHint
		size *= 2
	}
	return size
}

// Width returns the tuple width the interner was created with.
func (it *Interner) Width() int { return it.width }

// Len returns the number of distinct tuples interned so far, including the
// base's when derived. Ids are exactly [0, Len()).
func (it *Interner) Len() int { return int(it.baseLen) + len(it.hashes) }

// mix64 is the splitmix64 finalizer — a fast, deterministic avalanche.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashTuple returns the interner's deterministic hash of a tuple. Exposed so
// chunked passes can pre-hash on the workers and merge without re-hashing.
func HashTuple(t []Value) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range t {
		h = mix64(h ^ uint64(v))
	}
	return h
}

func (it *Interner) tupleAt(local uint32) []Value {
	off := int(local) * it.width
	return it.vals[off : off+it.width]
}

func tupleEq(a, b []Value) bool {
	for i, v := range a {
		if b[i] != v {
			return false
		}
	}
	return true
}

// find returns the id of t under hash h, searching this interner only.
func (it *Interner) find(t []Value, h uint64) (uint32, bool) {
	i := h & it.mask
	for {
		s := it.table[i]
		if s == 0 {
			return 0, false
		}
		local := s - 1
		if it.hashes[local] == h && tupleEq(it.tupleAt(local), t) {
			return it.baseLen + local, true
		}
		i = (i + 1) & it.mask
	}
}

// Lookup returns the id of t if it was interned before.
func (it *Interner) Lookup(t []Value) (uint32, bool) {
	return it.LookupHashed(t, HashTuple(t))
}

// LookupHashed is Lookup with the caller-computed hash.
func (it *Interner) LookupHashed(t []Value, h uint64) (uint32, bool) {
	if it.base != nil {
		if id, ok := it.base.find(t, h); ok {
			return id, true
		}
	}
	return it.find(t, h)
}

// Intern returns the dense id of t, assigning the next id on first sight.
// fresh reports whether the tuple was new. The tuple is copied.
func (it *Interner) Intern(t []Value) (id uint32, fresh bool) {
	return it.InternHashed(t, HashTuple(t))
}

// InternHashed is Intern with the caller-computed hash.
func (it *Interner) InternHashed(t []Value, h uint64) (id uint32, fresh bool) {
	if it.base != nil {
		if id, ok := it.base.find(t, h); ok {
			return id, false
		}
	}
	i := h & it.mask
	for {
		s := it.table[i]
		if s == 0 {
			break
		}
		local := s - 1
		if it.hashes[local] == h && tupleEq(it.tupleAt(local), t) {
			return it.baseLen + local, false
		}
		i = (i + 1) & it.mask
	}
	local := uint32(len(it.hashes))
	it.hashes = append(it.hashes, h)
	it.vals = append(it.vals, t...)
	it.table[i] = local + 1
	if uint64(len(it.hashes))*4 > (it.mask+1)*3 {
		it.grow(int(it.mask+1) * 2)
	}
	return it.baseLen + local, true
}

// grow rebuilds the probe table at the given power-of-two size.
func (it *Interner) grow(size int) {
	it.table = make([]uint32, size)
	it.mask = uint64(size - 1)
	for local, h := range it.hashes {
		i := h & it.mask
		for it.table[i] != 0 {
			i = (i + 1) & it.mask
		}
		it.table[i] = uint32(local) + 1
	}
}

// HashOf returns the stored hash of an interned id — chunked merges re-intern
// worker-produced tuples without re-hashing them.
func (it *Interner) HashOf(id uint32) uint64 {
	if id < it.baseLen {
		return it.base.HashOf(id)
	}
	return it.hashes[id-it.baseLen]
}

// TupleOf returns the tuple interned under id as a view into the interner's
// storage; callers must not mutate it.
func (it *Interner) TupleOf(id uint32) []Value {
	if id < it.baseLen {
		return it.base.TupleOf(id)
	}
	return it.tupleAt(id - it.baseLen)
}

// Reserve grows the receiver's own probe table and storage so about capHint
// distinct tuples fit without intermediate rehashes — chunk-merge paths know
// an upper bound (the sum of the per-chunk distinct counts) up front.
func (it *Interner) Reserve(capHint int) {
	if size := tableSizeFor(capHint); size > int(it.mask+1) {
		it.grow(size)
	}
	if cap(it.hashes) < capHint {
		h := make([]uint64, len(it.hashes), capHint)
		copy(h, it.hashes)
		it.hashes = h
	}
	if it.width > 0 && cap(it.vals) < capHint*it.width {
		v := make([]Value, len(it.vals), capHint*it.width)
		copy(v, it.vals)
		it.vals = v
	}
}

// Reset empties the interner for reuse, keeping its capacity. width may be
// changed; the probe table is cleared, not reallocated. Derived interners
// cannot be reset.
func (it *Interner) Reset(width int) {
	if it.base != nil {
		panic("relation: Reset on a derived interner")
	}
	it.width = width
	clear(it.table)
	it.hashes = it.hashes[:0]
	it.vals = it.vals[:0]
}

// Derive returns an interner that extends the receiver without mutating it:
// the receiver (or its root, when the receiver is itself derived) becomes the
// shared immutable base, and the receiver's own additions are copied into the
// derivation — exactly the copy-on-write discipline of GroupIndex.derive.
// The base must not be mutated afterwards.
func (it *Interner) Derive() *Interner {
	root := it
	if it.base != nil {
		root = it.base
	}
	out := &Interner{
		width:   it.width,
		base:    root,
		baseLen: uint32(root.Len()),
	}
	if it.base != nil {
		// Copy the receiver's own overlay entries; their local ids (and so
		// their global ids) are preserved.
		out.hashes = append([]uint64(nil), it.hashes...)
		out.vals = append([]Value(nil), it.vals...)
	}
	out.grow(tableSizeFor(len(out.hashes) + 1))
	return out
}

// OverlayLen returns the number of tuples owned by this interner alone —
// for a derived interner, the overlay size that drives flattening policy.
func (it *Interner) OverlayLen() int { return len(it.hashes) }

// Parts returns the interner's internal arrays — flat tuple storage in id
// order, per-id hashes, and the open-addressed probe table (slots hold id+1,
// 0 = empty) — for serialization; InternerFromParts is the inverse. Derived
// interners are flattened first. The returned slices are views; callers must
// not mutate them.
func (it *Interner) Parts() (vals []Value, hashes []uint64, table []uint32) {
	root := it.Flatten()
	return root.vals, root.hashes, root.table
}

// InternerFromParts reconstructs a root interner from Parts output without
// re-hashing or re-inserting anything — the restore path's replacement for an
// Intern loop. The arrays are adopted, not copied (they must stay immutable
// while the interner lives), so a restore can alias them straight out of a
// checksummed snapshot payload. Validation covers what memory safety needs:
// array lengths agree, the table is a power of two within the load-factor
// policy (so probe loops always find an empty slot and terminate), and every
// slot is empty or a valid id, with exactly n slots occupied. It does not
// re-derive the table from the tuples — a table that lies consistently gives
// wrong lookups, never unsafe ones, the same trust class as fabricated tuple
// data itself.
func InternerFromParts(width int, vals []Value, hashes []uint64, table []uint32) (*Interner, bool) {
	n := len(hashes)
	if width < 0 || len(vals) != n*width {
		return nil, false
	}
	size := len(table)
	if size < internMinTable || size&(size-1) != 0 || size*3 < n*4 {
		return nil, false
	}
	live := 0
	for _, s := range table {
		if s != 0 {
			if int(s) > n {
				return nil, false
			}
			live++
		}
	}
	if live != n {
		return nil, false
	}
	return &Interner{
		width:  width,
		table:  table,
		mask:   uint64(size - 1),
		hashes: hashes,
		vals:   vals,
	}, true
}

// Flatten folds a derived interner into a fresh root holding the same ids.
// No-op (returns the receiver) for root interners.
func (it *Interner) Flatten() *Interner {
	if it.base == nil {
		return it
	}
	out := NewInterner(it.width, it.Len())
	for id := 0; id < it.Len(); id++ {
		out.Intern(it.TupleOf(uint32(id)))
	}
	return out
}

// Gather copies the selected columns of row into dst[:0] and returns it — the
// key tuple of an interner probe.
func Gather(dst []Value, row []Value, cols []int) []Value {
	dst = dst[:0]
	for _, c := range cols {
		dst = append(dst, row[c])
	}
	return dst
}

// GatherAt copies row i of the selected column vectors into dst[:0] and
// returns it — the column-major form of Gather, used by every key-building
// loop over columnar relations.
func GatherAt(dst []Value, cols [][]Value, pos []int, i int) []Value {
	dst = dst[:0]
	for _, c := range pos {
		dst = append(dst, cols[c][i])
	}
	return dst
}
