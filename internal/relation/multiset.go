package relation

import "github.com/quantilejoins/qjoin/internal/parallel"

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

// NewMultisetWorkers counts the raw row multiplicities of a relation over a
// bounded worker pool: per-chunk counts are summed in a sequential merge, so
// the result is identical for every worker count (multiset union is
// commutative).
func NewMultisetWorkers(r *Relation, workers int) *Multiset {
	n := r.Len()
	cols := r.Cols()
	if len(parallel.Ranges(workers, n)) <= 1 {
		base := make(map[string]int, n)
		var enc KeyEncoder
		for i := 0; i < n; i++ {
			base[string(enc.RowAt(cols, i))]++
		}
		return &Multiset{base: base}
	}
	parts := parallel.MapRanges(workers, n, func(lo, hi int) map[string]int {
		local := make(map[string]int, hi-lo)
		var enc KeyEncoder
		for i := lo; i < hi; i++ {
			local[string(enc.RowAt(cols, i))]++
		}
		return local
	})
	base := make(map[string]int, n)
	for _, part := range parts {
		for k, c := range part {
			base[k] += c
		}
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
