package counting

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasics(t *testing.T) {
	if !Zero.IsZero() {
		t.Fatal("Zero must be zero")
	}
	if One.IsZero() {
		t.Fatal("One must not be zero")
	}
	if got := FromUint64(7).Add(FromUint64(5)); got.Lo != 12 || got.Hi != 0 {
		t.Fatalf("7+5 = %v", got)
	}
	if got := FromUint64(7).Sub(FromUint64(5)); got.Lo != 2 || got.Hi != 0 {
		t.Fatalf("7-5 = %v", got)
	}
	if got := FromUint64(7).Mul(FromUint64(5)); got.Lo != 35 || got.Hi != 0 {
		t.Fatalf("7*5 = %v", got)
	}
}

func TestCarryPropagation(t *testing.T) {
	a := Count{Lo: math.MaxUint64}
	b := a.Add(One)
	if b.Hi != 1 || b.Lo != 0 {
		t.Fatalf("MaxUint64+1 = %+v", b)
	}
	c := b.Sub(One)
	if c != a {
		t.Fatalf("round trip = %+v", c)
	}
}

func TestMulWide(t *testing.T) {
	a := FromUint64(1 << 40)
	b := a.Mul(a) // 2^80
	if b.Hi != 1<<16 || b.Lo != 0 {
		t.Fatalf("2^40 * 2^40 = %+v", b)
	}
	if b.String() != new(big.Int).Lsh(big.NewInt(1), 80).String() {
		t.Fatalf("string = %s", b.String())
	}
}

func TestAddOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a := Count{Hi: math.MaxUint64, Lo: math.MaxUint64}
	a.Add(One)
}

func TestSubUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Zero.Sub(One)
}

func TestMulOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a := Count{Hi: 1}
	a.Mul(Count{Hi: 1})
}

func TestMulCrossOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a := Count{Hi: math.MaxUint64}
	a.Mul(FromUint64(3))
}

// Property: Count arithmetic agrees with math/big on random inputs.
func TestQuickAgainstBig(t *testing.T) {
	f := func(aHi, aLo, bHi, bLo uint64) bool {
		a := Count{Hi: aHi >> 1, Lo: aLo} // keep headroom to avoid overflow
		b := Count{Hi: bHi >> 1, Lo: bLo}
		sum := a.Add(b)
		want := new(big.Int).Add(a.Big(), b.Big())
		if sum.Big().Cmp(want) != 0 {
			return false
		}
		if a.Cmp(b) != a.Big().Cmp(b.Big()) {
			return false
		}
		hi, lo := a, b
		if hi.Less(lo) {
			hi, lo = lo, hi
		}
		diff := hi.Sub(lo)
		wantDiff := new(big.Int).Sub(hi.Big(), lo.Big())
		return diff.Big().Cmp(wantDiff) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMulAgainstBig(t *testing.T) {
	f := func(a, b uint64) bool {
		x, y := FromUint64(a), FromUint64(b)
		got := x.Mul(y)
		want := new(big.Int).Mul(x.Big(), y.Big())
		return got.Big().Cmp(want) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromBigRoundTrip(t *testing.T) {
	f := func(hi, lo uint64) bool {
		c := Count{Hi: hi, Lo: lo}
		back, ok := FromBig(c.Big())
		return ok && back == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromBigRejects(t *testing.T) {
	if _, ok := FromBig(big.NewInt(-1)); ok {
		t.Fatal("negative accepted")
	}
	too := new(big.Int).Lsh(big.NewInt(1), 128)
	if _, ok := FromBig(too); ok {
		t.Fatal("2^128 accepted")
	}
}

func TestFloorMulFloat(t *testing.T) {
	cases := []struct {
		n    uint64
		phi  float64
		want uint64
	}{
		{1001, 0.5, 500},
		{1001, 0.0, 0},
		{1001, 1.0, 1001},
		{10, 0.1, 1},
		{10, 0.99, 9},
		{3, 1.0 / 3.0, 0}, // float64(1/3) < 1/3 exactly
		{1, 0.5, 0},
	}
	for _, c := range cases {
		got := FloorMulFloat(FromUint64(c.n), c.phi)
		if got.Lo != c.want || got.Hi != 0 {
			t.Errorf("FloorMulFloat(%d, %v) = %v, want %d", c.n, c.phi, got, c.want)
		}
	}
}

func TestFloorMulFloatWide(t *testing.T) {
	// phi * 2^100 must stay exact.
	c := Count{Hi: 1 << 36} // 2^100
	got := FloorMulFloat(c, 0.5)
	want := new(big.Int).Lsh(big.NewInt(1), 99)
	if got.Big().Cmp(want) != 0 {
		t.Fatalf("got %s want %s", got, want)
	}
}

// floorMulRat is ⌊phi · c⌋ by big.Rat: FloorMulFloat's oracle.
func floorMulRat(c Count, phi float64) Count {
	r := new(big.Rat).SetFloat64(phi)
	r.Mul(r, new(big.Rat).SetInt(c.Big()))
	out, ok := FromBig(new(big.Int).Quo(r.Num(), r.Denom()))
	if !ok {
		panic("floorMulRat overflow")
	}
	return out
}

// FloorMulFloat is the exact rational product's floor at the edges of both
// operands — a subnormal φ, 2⁻⁵³, ½, 1 − 2⁻⁵³ and every p/100 against counts
// 0, 1, 2⁶⁴ − 1, 2⁶⁴, 2⁶⁴ + 1 and 2¹²⁸ − 1 — and at random ones.
func TestFloorMulFloatIsTheRationalFloor(t *testing.T) {
	phis := []float64{math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64, 0x1p-1022 - math.SmallestNonzeroFloat64,
		0x1p-1022, 0x1p-53, 0.5, 1 - 0x1p-53}
	for p := range 101 {
		phis = append(phis, float64(p)/100)
	}
	counts := []Count{Zero, One, {Lo: math.MaxUint64}, {Hi: 1}, {Hi: 1, Lo: 1}, {Hi: math.MaxUint64, Lo: math.MaxUint64}}
	rng := rand.New(rand.NewSource(7))
	for range 200 {
		phis = append(phis, rng.Float64(), math.Ldexp(rng.Float64(), -rng.Intn(1100)))
		counts = append(counts, Count{Lo: rng.Uint64()}, Count{Hi: rng.Uint64() >> uint(rng.Intn(64)), Lo: rng.Uint64()})
	}
	for _, phi := range phis {
		for _, c := range counts {
			if got, want := FloorMulFloat(c, phi), floorMulRat(c, phi); got != want {
				t.Fatalf("FloorMulFloat(%s, %v) = %s, want %s", c, phi, got, want)
			}
		}
	}
}

func TestDivModSmall(t *testing.T) {
	q, r := FromUint64(17).DivMod(FromUint64(5))
	if q.Lo != 3 || r.Lo != 2 {
		t.Fatalf("17/5 = %v rem %v", q, r)
	}
}

func TestDivModZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	One.DivMod(Zero)
}

// Property: DivMod agrees with math/big across the 64/128-bit boundary.
func TestQuickDivMod(t *testing.T) {
	f := func(aHi, aLo, bHi, bLo uint64) bool {
		a := Count{Hi: aHi, Lo: aLo}
		b := Count{Hi: bHi, Lo: bLo}
		if b.IsZero() {
			b = One
		}
		q, r := a.DivMod(b)
		wantQ, wantR := new(big.Int).DivMod(a.Big(), b.Big(), new(big.Int))
		return q.Big().Cmp(wantQ) == 0 && r.Big().Cmp(wantR) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDivModWidePaths(t *testing.T) {
	// 2^100 / 2^20 = 2^80, remainder 0 — exercises the big.Int path.
	a := Count{Hi: 1 << 36}
	q, r := a.DivMod(FromUint64(1 << 20))
	if !r.IsZero() || q.Hi != 1<<16 || q.Lo != 0 {
		t.Fatalf("2^100/2^20 = %v rem %v", q, r)
	}
	// Dividend smaller than a wide divisor.
	q, r = FromUint64(7).DivMod(Count{Hi: 1})
	if !q.IsZero() || r.Lo != 7 {
		t.Fatalf("7/2^64 = %v rem %v", q, r)
	}
}

func TestHalf(t *testing.T) {
	f := func(hi, lo uint64) bool {
		c := Count{Hi: hi, Lo: lo}
		want := new(big.Int).Rsh(c.Big(), 1)
		return c.Half().Big().Cmp(want) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMinMax(t *testing.T) {
	a, b := FromUint64(3), Count{Hi: 1}
	if Min(a, b) != a || Max(a, b) != b {
		t.Fatal("min/max wrong")
	}
	if Min(b, a) != a || Max(b, a) != b {
		t.Fatal("min/max wrong (swapped)")
	}
}

func TestFloat64(t *testing.T) {
	c := Count{Hi: 1, Lo: 0} // 2^64
	if got := c.Float64(); got != math.Ldexp(1, 64) {
		t.Fatalf("Float64 = %v", got)
	}
}

func TestUint64(t *testing.T) {
	if v, ok := FromUint64(42).Uint64(); !ok || v != 42 {
		t.Fatal("exact conversion failed")
	}
	if _, ok := (Count{Hi: 1}).Uint64(); ok {
		t.Fatal("inexact conversion reported exact")
	}
}

func TestStringSmall(t *testing.T) {
	if FromUint64(12345).String() != "12345" {
		t.Fatal("small decimal")
	}
}

func BenchmarkAdd(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	xs := make([]Count, 1024)
	for i := range xs {
		// Keep 10 bits of headroom in the high word so summing 1024 values
		// stays within 128 bits (the Add is checked).
		xs[i] = Count{Hi: r.Uint64() >> 12, Lo: r.Uint64()}
	}
	b.ResetTimer()
	acc := Count{}
	for i := 0; i < b.N; i++ {
		acc = Count{}
		for _, x := range xs {
			acc = acc.Add(x)
		}
	}
	_ = acc
}

func BenchmarkMul(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	xs := make([]uint64, 1024)
	for i := range xs {
		xs[i] = r.Uint64()>>34 + 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := One
		for _, x := range xs {
			acc = One.Mul(FromUint64(x))
		}
		_ = acc
	}
}
