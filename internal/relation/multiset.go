package relation

// Multiset tracks the raw tuple multiplicities behind a deduplicated
// relation. The engine's execution structures treat relations as sets
// (Section 2.1), but user input is a multiset: the same tuple may be added
// several times, and incremental deletes must only drop a tuple from the set
// view once every raw occurrence is gone. A Multiset is the refcount side of
// the dedup map — the piece that makes delete well-defined.
//
// Multisets are persistent: Derive returns a new Multiset sharing the
// immutable base map with the receiver, carrying the changed keys in a small
// overlay. Small deltas therefore cost O(|delta|), not O(|relation|); the
// overlay is folded into a fresh base once it grows past a fraction of the
// base size, bounding lookup cost at two map probes. A Multiset is safe for
// concurrent readers; Derive never mutates the receiver.
type Multiset struct {
	base map[string]int // immutable after construction; shared by derivations
	over map[string]int // sparse overlay; an entry of 0 marks a removed key
}

// NewMultiset counts the raw row multiplicities of a relation.
func NewMultiset(r *Relation) *Multiset {
	base := make(map[string]int, r.n)
	cols := r.Cols()
	var enc KeyEncoder
	for i := range r.n {
		base[string(enc.RowAt(cols, i))]++
	}
	return &Multiset{base: base}
}

// Mult returns the multiplicity of the row key (0 when absent).
func (m *Multiset) Mult(key string) int {
	if m.over != nil {
		if c, ok := m.over[key]; ok {
			return c
		}
	}
	return m.base[key]
}

// Contains reports whether the key has at least one occurrence.
func (m *Multiset) Contains(key string) bool { return m.Mult(key) > 0 }

// Derive returns a Multiset reflecting the given final multiplicities for
// the changed keys (a value of 0 removes the key). The receiver is not
// modified — derivations from a shared base may proceed concurrently — and
// unchanged keys share the receiver's storage.
func (m *Multiset) Derive(changes map[string]int) *Multiset {
	if len(changes) == 0 {
		return m
	}
	over := make(map[string]int, len(m.over)+len(changes))
	for k, c := range m.over {
		over[k] = c
	}
	for k, c := range changes {
		over[k] = c
	}
	// Fold the overlay into a fresh base once it stops being sparse: the
	// overlay copy above is paid on every derivation, so a large overlay
	// would turn O(|delta|) updates back into O(|relation|) ones.
	if len(over) > len(m.base)/4+16 {
		base := make(map[string]int, len(m.base))
		for k, c := range m.base {
			base[k] = c
		}
		for k, c := range over {
			if c == 0 {
				delete(base, k)
			} else {
				base[k] = c
			}
		}
		return &Multiset{base: base}
	}
	return &Multiset{base: m.base, over: over}
}
