// Package counting provides exact 128-bit unsigned counters for join-answer
// cardinalities.
//
// The number of answers to a join query with ℓ atoms over a database of n
// tuples is bounded by n^ℓ, which overflows int64 already for moderate
// instances (e.g. n = 2^16, ℓ = 4). A 128-bit counter covers every instance
// this library accepts (n ≤ 2^20, ℓ ≤ 6 ⇒ |Q(D)| ≤ 2^120) while staying
// allocation-free in hot loops; math/big is used only at API boundaries
// (decimal rendering, quantile index computation).
//
// All arithmetic is checked: overflow panics, because a wrapped answer count
// would silently corrupt quantile indexes.
package counting

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
)

// Count is an unsigned 128-bit integer. The zero value is the count 0.
type Count struct {
	Hi, Lo uint64
}

// Zero is the count 0.
var Zero = Count{}

// One is the count 1.
var One = Count{Lo: 1}

// FromUint64 returns x as a Count.
func FromUint64(x uint64) Count { return Count{Lo: x} }

// FromInt returns x as a Count. It panics if x is negative.
func FromInt(x int) Count {
	if x < 0 {
		panic("counting: negative count")
	}
	return Count{Lo: uint64(x)}
}

// IsZero reports whether c is 0.
func (c Count) IsZero() bool { return c.Hi == 0 && c.Lo == 0 }

// Cmp compares c and d, returning -1, 0 or +1.
func (c Count) Cmp(d Count) int {
	switch {
	case c.Hi < d.Hi:
		return -1
	case c.Hi > d.Hi:
		return 1
	case c.Lo < d.Lo:
		return -1
	case c.Lo > d.Lo:
		return 1
	}
	return 0
}

// Less reports whether c < d.
func (c Count) Less(d Count) bool { return c.Cmp(d) < 0 }

// Add returns c + d, panicking on 128-bit overflow.
func (c Count) Add(d Count) Count {
	lo, carry := bits.Add64(c.Lo, d.Lo, 0)
	hi, carry2 := bits.Add64(c.Hi, d.Hi, carry)
	if carry2 != 0 {
		panic("counting: overflow in Add")
	}
	return Count{Hi: hi, Lo: lo}
}

// Sub returns c - d, panicking if d > c.
func (c Count) Sub(d Count) Count {
	lo, borrow := bits.Sub64(c.Lo, d.Lo, 0)
	hi, borrow2 := bits.Sub64(c.Hi, d.Hi, borrow)
	if borrow2 != 0 {
		panic("counting: underflow in Sub")
	}
	return Count{Hi: hi, Lo: lo}
}

// Mul returns c * d, panicking on 128-bit overflow.
func (c Count) Mul(d Count) Count {
	// (cHi·2^64 + cLo) · (dHi·2^64 + dLo)
	if c.Hi != 0 && d.Hi != 0 {
		panic("counting: overflow in Mul")
	}
	hi, lo := bits.Mul64(c.Lo, d.Lo)
	// Cross terms c.Hi*d.Lo and c.Lo*d.Hi contribute to the high word.
	cross1Hi, cross1 := bits.Mul64(c.Hi, d.Lo)
	cross2Hi, cross2 := bits.Mul64(c.Lo, d.Hi)
	if cross1Hi != 0 || cross2Hi != 0 {
		panic("counting: overflow in Mul")
	}
	var carry uint64
	hi, carry = bits.Add64(hi, cross1, 0)
	if carry != 0 {
		panic("counting: overflow in Mul")
	}
	hi, carry = bits.Add64(hi, cross2, 0)
	if carry != 0 {
		panic("counting: overflow in Mul")
	}
	return Count{Hi: hi, Lo: lo}
}

// AddUint64 returns c + x.
func (c Count) AddUint64(x uint64) Count { return c.Add(Count{Lo: x}) }

// Float64 returns the nearest float64 to c (lossy above 2^53).
func (c Count) Float64() float64 {
	return math.Ldexp(float64(c.Hi), 64) + float64(c.Lo)
}

// Uint64 returns c as a uint64 and whether the conversion was exact.
func (c Count) Uint64() (uint64, bool) { return c.Lo, c.Hi == 0 }

// Big returns c as a new big.Int.
func (c Count) Big() *big.Int {
	b := new(big.Int).SetUint64(c.Hi)
	b.Lsh(b, 64)
	return b.Add(b, new(big.Int).SetUint64(c.Lo))
}

// FromBig converts a big.Int to a Count. It reports failure for negative
// values or values ≥ 2^128.
func FromBig(b *big.Int) (Count, bool) {
	if b.Sign() < 0 || b.BitLen() > 128 {
		return Count{}, false
	}
	lo := new(big.Int).And(b, new(big.Int).SetUint64(math.MaxUint64))
	hi := new(big.Int).Rsh(b, 64)
	return Count{Hi: hi.Uint64(), Lo: lo.Uint64()}, true
}

// String renders c in decimal.
func (c Count) String() string {
	if c.Hi == 0 {
		return fmt.Sprintf("%d", c.Lo)
	}
	return c.Big().String()
}

// FloorMulFloat returns ⌊phi · c⌋ for phi ∈ [0, 1]. It is exact (computed via
// math/big rationals) and intended for the once-per-query quantile index
// computation k = ⌊φ·|Q(D)|⌋.
func FloorMulFloat(c Count, phi float64) Count {
	if phi <= 0 {
		return Zero
	}
	if phi >= 1 {
		return c
	}
	r := new(big.Rat).SetFloat64(phi)
	if r == nil {
		panic("counting: non-finite fraction")
	}
	r.Mul(r, new(big.Rat).SetInt(c.Big()))
	q := new(big.Int).Quo(r.Num(), r.Denom())
	out, ok := FromBig(q)
	if !ok {
		panic("counting: FloorMulFloat overflow")
	}
	return out
}

// DivMod returns (⌊c/d⌋, c mod d). It panics if d is zero. The common case of
// both operands fitting in 64 bits is allocation free; wider operands go
// through math/big (DivMod is used O(query size) times per decoded position,
// not in per-tuple loops).
func (c Count) DivMod(d Count) (q, r Count) {
	if d.IsZero() {
		panic("counting: division by zero")
	}
	if c.Hi == 0 && d.Hi == 0 {
		return Count{Lo: c.Lo / d.Lo}, Count{Lo: c.Lo % d.Lo}
	}
	qb, rb := new(big.Int).DivMod(c.Big(), d.Big(), new(big.Int))
	q, _ = FromBig(qb)
	r, _ = FromBig(rb)
	return q, r
}

// Half returns ⌊c / 2⌋.
func (c Count) Half() Count {
	return Count{Hi: c.Hi >> 1, Lo: c.Lo>>1 | c.Hi<<63}
}

// Min returns the smaller of c and d.
func Min(c, d Count) Count {
	if c.Cmp(d) <= 0 {
		return c
	}
	return d
}

// Max returns the larger of c and d.
func Max(c, d Count) Count {
	if c.Cmp(d) >= 0 {
		return c
	}
	return d
}
