package snap

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// Enc builds a section payload. All integers are little-endian; strings are
// uvarint-length-prefixed UTF-8; value and gid arrays are count-prefixed raw
// arrays (PutArray / Array). Encoding cannot fail — the container layer owns
// I/O errors.
type Enc struct {
	b []byte
}

// Bytes returns the accumulated payload.
func (e *Enc) Bytes() []byte { return e.b }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.b = append(e.b, v) }

// Bool appends a byte 0/1.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a fixed-width uint32.
func (e *Enc) U32(v uint32) {
	e.b = binary.LittleEndian.AppendUint32(e.b, v)
}

// U64 appends a fixed-width uint64.
func (e *Enc) U64(v uint64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, v)
}

// I64 appends a fixed-width int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float64 as its IEEE-754 bits.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str appends a uvarint-length-prefixed string.
func (e *Enc) Str(s string) {
	e.b = binary.AppendUvarint(e.b, uint64(len(s)))
	e.b = append(e.b, s...)
}

// Grow ensures capacity for n more bytes, so bulk appends don't re-allocate
// per element.
func (e *Enc) Grow(n int) { e.b = slices.Grow(e.b, n) }

var zeroPad [8]byte

// Align8 zero-pads to the next 8-byte boundary of the payload. Writers call
// it before every fixed-width value block so the decoder can alias the block
// in place (see alias.go); decoders skip the same padding with Dec.Align8.
func (e *Enc) Align8() {
	if pad := (8 - len(e.b)%8) % 8; pad > 0 {
		e.b = append(e.b, zeroPad[:pad]...)
	}
}

// word is the element types of array blocks: the fixed-width integers, plus
// int, which travels as 8 bytes whatever the host's width.
type word interface {
	int64 | uint64 | int32 | uint32 | int
}

// wireSize is the width of one T on the wire.
func wireSize[T word]() int {
	var z T
	if _, isInt := any(z).(int); isInt {
		return 8
	}
	return int(unsafe.Sizeof(z))
}

// putBlock appends vs as raw little-endian words: no count, no alignment.
func putBlock[T word](e *Enc, vs []T) {
	if wireSize[T]() == 4 {
		e.Grow(4 * len(vs))
		for _, v := range vs {
			e.U32(uint32(v))
		}
		return
	}
	e.Grow(8 * len(vs))
	for _, v := range vs {
		e.U64(uint64(v))
	}
}

// PutArray appends an aligned count-prefixed array.
func PutArray[T word](e *Enc, vs []T) {
	e.Align8()
	e.U64(uint64(len(vs)))
	putBlock(e, vs)
}

// Dec consumes a section payload. Errors are sticky: the first structural
// problem pins Err() to ErrCorrupt (with context) and every later read
// returns zero values, so decoders can run a straight-line sequence of reads
// and check Err once per object. Array reads validate the count against the
// bytes actually remaining before allocating.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec wraps a section payload.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the sticky decode error, nil while the stream is healthy.
func (d *Dec) Err() error { return d.err }

// Done reports whether the payload was consumed exactly.
func (d *Dec) Done() bool { return d.err == nil && d.off == len(d.b) }

func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b)-d.off < n {
		d.fail("payload overrun (need %d bytes, have %d)", n, len(d.b)-d.off)
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a 0/1 byte; any other value is corrupt.
func (d *Dec) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bad bool")
		return false
	}
}

// U32 reads a fixed-width uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a fixed-width uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a fixed-width int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// F64 reads a float64 from its IEEE-754 bits.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Len reads an array count and validates it against the remaining payload at
// the given per-element width.
func (d *Dec) Len(elemBytes int) int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if rem := uint64(len(d.b) - d.off); elemBytes > 0 && n > rem/uint64(elemBytes) {
		d.fail("array count %d exceeds payload", n)
		return 0
	}
	return int(n)
}

// Str reads a uvarint-length-prefixed string.
func (d *Dec) Str() string {
	if d.err != nil {
		return ""
	}
	n, w := binary.Uvarint(d.b[d.off:])
	if w <= 0 || n > uint64(len(d.b)-d.off-w) {
		d.fail("bad string length")
		return ""
	}
	d.off += w
	return string(d.take(int(n)))
}

// Align8 skips the zero padding Enc.Align8 wrote, so the next block starts
// on an 8-byte boundary of the payload.
func (d *Dec) Align8() {
	if pad := (8 - d.off%8) % 8; pad > 0 {
		d.take(pad)
	}
}

// Block reads n words as one block. When the host layout matches the wire
// format the returned slice aliases the verified payload (zero copy — restore
// speed lives here, value columns dominate a snapshot's bytes); otherwise one
// conversion pass, which fails on an 8-byte int that overflows a narrower
// host int. Zero words read as nil.
func Block[T word](d *Dec, n int) []T {
	w := wireSize[T]()
	b := d.take(w * n)
	if b == nil || n == 0 {
		return nil
	}
	var z T
	if int(unsafe.Sizeof(z)) == w {
		if vs := view[T](b, n); vs != nil {
			return vs
		}
	}
	vs := make([]T, n)
	for i := range vs {
		if w == 4 {
			vs[i] = T(binary.LittleEndian.Uint32(b[4*i:]))
			continue
		}
		v := binary.LittleEndian.Uint64(b[8*i:])
		if vs[i] = T(v); uint64(vs[i]) != v {
			d.fail("int value %d overflows host int", int64(v))
			return nil
		}
	}
	return vs
}

// Array reads an aligned count-prefixed array. Zero count decodes to nil, so
// values that were nil when encoded round-trip to reflect.DeepEqual-identical
// state (the byte-identity contract covers answer structs carrying these).
func Array[T word](d *Dec) []T {
	d.Align8()
	return Block[T](d, d.Len(wireSize[T]()))
}
