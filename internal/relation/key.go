package relation

// Fixed-width row keys: each value as 8 little-endian bytes, concatenated, so
// a row becomes a string a Go map can key on.
// The update path uses them — delta replay against multiset refcounts and
// locating the rows a set-level delta removes (engine.Update, jointree's
// RelDelta) — and so does workload/deltas.go. Everything on the query path
// (deduplication, join groups, trims) keys tuples through an Interner instead.

func appendValue(dst []byte, v Value) []byte {
	u := uint64(v)
	return append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// KeyEncoder builds fixed-width row keys into a single reusable buffer.
// The slice returned by Row/RowAt aliases that buffer and is only valid
// until the next call — look it up (or string-convert it) immediately.
// Map lookups with string(enc.Row(...)) do not allocate; only inserting a
// previously unseen key copies the bytes into a permanent string.
//
// A KeyEncoder is not safe for concurrent use; parallel passes allocate one
// per chunk.
type KeyEncoder struct{ buf []byte }

// Row returns the key of the whole row.
func (e *KeyEncoder) Row(row []Value) []byte {
	dst := e.buf[:0]
	for _, v := range row {
		dst = appendValue(dst, v)
	}
	e.buf = dst
	return dst
}

// RowAt returns the whole-row key of row i of the given column vectors —
// the column-major form of Row, one value read per column.
func (e *KeyEncoder) RowAt(cols [][]Value, i int) []byte {
	dst := e.buf[:0]
	for _, col := range cols {
		dst = appendValue(dst, col[i])
	}
	e.buf = dst
	return dst
}
