package relation

// Fixed-width row keys. Every hash structure over tuples in this repository
// — input deduplication, join-group indexes, the group maps of the trim
// constructions — keys rows (or selected columns of rows) by the same
// encoding: each value as 8 little-endian bytes, concatenated. This file is
// the one shared implementation; hand-rolled per-package encoders caused
// both divergence risk and avoidable per-row allocations.

// AppendKey appends the fixed-width encoding of the selected columns of row
// to dst and returns the extended slice. A nil cols encodes the whole row.
func AppendKey(dst []byte, row []Value, cols []int) []byte {
	if cols == nil {
		for _, v := range row {
			dst = appendValue(dst, v)
		}
		return dst
	}
	for _, c := range cols {
		dst = appendValue(dst, row[c])
	}
	return dst
}

func appendValue(dst []byte, v Value) []byte {
	u := uint64(v)
	return append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// KeyEncoder builds fixed-width row keys into a single reusable buffer.
// The slice returned by Cols/Row aliases that buffer and is only valid
// until the next call — look it up (or string-convert it) immediately.
// Map lookups with string(enc.Cols(...)) do not allocate; only inserting a
// previously unseen key copies the bytes into a permanent string.
//
// A KeyEncoder is not safe for concurrent use; parallel passes allocate one
// per chunk.
type KeyEncoder struct{ buf []byte }

// Cols returns the key of the selected columns of row.
func (e *KeyEncoder) Cols(row []Value, cols []int) []byte {
	e.buf = AppendKey(e.buf[:0], row, cols)
	return e.buf
}

// Row returns the key of the whole row.
func (e *KeyEncoder) Row(row []Value) []byte {
	e.buf = AppendKey(e.buf[:0], row, nil)
	return e.buf
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
