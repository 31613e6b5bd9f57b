package snap

// Zero-copy decode fast path. Snapshot payloads are CRC-verified, freshly
// allocated and never reused by the container reader, so on hosts whose
// memory layout matches the wire format (little-endian) a fixed-width value
// block can be returned as an alias of the payload bytes instead of being
// copied. The structures these blocks land in (relation columns, count
// arrays, group-id arrays, sketch entries) are immutable after construction —
// engine updates are copy-on-write — so aliasing is safe. Writers 8-align
// every block (Enc.Align8) to keep the aliased loads aligned; the decoder
// falls back to an explicit conversion loop on big-endian hosts or when a
// payload lands misaligned.

import "unsafe"

// hostLittleEndian reports whether host integer layout matches the wire
// format, making aliasing a valid decode.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// aliasable reports whether b may back an aliased value block of the given
// element alignment.
func aliasable(b []byte, align uintptr) bool {
	return hostLittleEndian && uintptr(unsafe.Pointer(unsafe.SliceData(b)))%align == 0
}

// view aliases b as n values of T — a fixed-width integer or a struct of
// them laid out as on the wire, like the two words of a counting.Count — or
// returns nil when the fast path is off.
func view[T any](b []byte, n int) []T {
	var z T
	if !aliasable(b, unsafe.Alignof(z)) {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n)
}
