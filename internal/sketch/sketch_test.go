package sketch

import (
	"cmp"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func randomItems(rng *rand.Rand, n int, domain int64) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Sum: rng.Int63n(domain) - domain/2, Mult: float64(rng.Intn(20) + 1)}
	}
	return items
}

// countBelow returns the sketched mass strictly below lambda:
// ↓λ(S_ε(L)) = Σ of bucket masses with Rep < λ.
func countBelow(s *Sketch, lambda int64) float64 {
	total := 0.0
	for _, b := range s.Buckets {
		if b.Rep < lambda {
			total += b.Mult
		}
	}
	return total
}

// exactBelow returns the exact mass of items strictly below lambda.
func exactBelow(items []Item, lambda int64) float64 {
	total := 0.0
	for _, it := range items {
		if it.Sum < lambda {
			total += it.Mult
		}
	}
	return total
}

// Lemma 6.3: (1-ε)·↓λ(L) ≤ ↓λ(S_ε(L)) ≤ ↓λ(L) for all λ.
func TestSketchGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		eps := []float64{0.5, 0.25, 0.1, 0.05}[trial%4]
		items := randomItems(rng, 1+rng.Intn(200), 50)
		s := Build(items, eps)
		// Probe every distinct value boundary plus extremes.
		probes := []int64{math.MinInt64 / 2, math.MaxInt64 / 2}
		for _, it := range items {
			probes = append(probes, it.Sum, it.Sum+1, it.Sum-1)
		}
		for _, lam := range probes {
			exact := exactBelow(items, lam)
			got := countBelow(s, lam)
			if got > exact+1e-9 {
				t.Fatalf("eps=%v λ=%d: sketch overestimates: %v > %v", eps, lam, got, exact)
			}
			if got < (1-eps)*exact-1e-9 {
				t.Fatalf("eps=%v λ=%d: sketch loses too much: %v < (1-ε)·%v", eps, lam, got, exact)
			}
		}
	}
}

// Lemma 6.3 at the multiplicities a deep lossy trim hands the sketch: σ_m is
// a product of bucket masses along the join tree and passes 2^53, where
// float64 stops holding integers exactly, long before it passes 2^120. Both
// sides of the bound are summed exactly in math/big; the slack of 1e-12 is
// for the rounding of the float64 bucket masses the sketch adds up.
func TestSketchGuaranteeHugeMultiplicities(t *testing.T) {
	const tol = 1e-12
	rng := rand.New(rand.NewSource(36))
	sumOf := func(ms []float64) []*big.Float { // prefix sums, exact at 512 bits
		out := []*big.Float{new(big.Float).SetPrec(512)}
		for _, m := range ms {
			out = append(out, new(big.Float).SetPrec(512).Add(out[len(out)-1], big.NewFloat(m)))
		}
		return out
	}
	for trial := 0; trial < 2000; trial++ {
		eps := []float64{0.3, 0.05, 1e-3, 1e-12}[trial%4]
		domain := []int64{8, 1000, 1 << 40}[trial%3] // 8 forces ties
		items := make([]Item, 1+rng.Intn(200))
		for i := range items {
			items[i] = Item{Sum: rng.Int63n(domain), Mult: math.Ldexp(1+rng.Float64(), rng.Intn(121))}
		}
		s := Build(items, eps)
		sorted := slices.Clone(items)
		slices.SortFunc(sorted, func(a, b Item) int { return cmp.Compare(a.Sum, b.Sum) })
		var itemMass, bucketMass []float64
		for _, it := range sorted {
			itemMass = append(itemMass, it.Mult)
		}
		for _, b := range s.Buckets {
			bucketMass = append(bucketMass, b.Mult)
		}
		exactCum, sketchCum := sumOf(itemMass), sumOf(bucketMass)
		probes := []int64{math.MinInt64, math.MaxInt64}
		for _, it := range items {
			probes = append(probes, it.Sum, it.Sum+1)
		}
		for _, lam := range probes {
			exact := exactCum[sort.Search(len(sorted), func(i int) bool { return sorted[i].Sum >= lam })]
			got := sketchCum[sort.Search(len(s.Buckets), func(i int) bool { return s.Buckets[i].Rep >= lam })]
			hi := new(big.Float).SetPrec(512).Mul(exact, big.NewFloat(1+tol))
			lo := new(big.Float).SetPrec(512).Mul(exact, big.NewFloat((1-eps)*(1-tol)))
			if got.Cmp(hi) > 0 || got.Cmp(lo) < 0 {
				t.Fatalf("trial %d, ε=%v, λ=%d: sketched %s outside [(1-ε)·%s, %s]",
					trial, eps, lam, got.Text('g', 20), exact.Text('g', 20), exact.Text('g', 20))
			}
		}
	}
}

// Atomicity: all items with equal Sum map to the same bucket.
func TestSketchAtomicity(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 100; trial++ {
		items := randomItems(rng, 1+rng.Intn(300), 10) // small domain forces ties
		s := Build(items, 0.3)
		bucketOf := make(map[int64]int)
		for i, it := range items {
			if b, ok := bucketOf[it.Sum]; ok {
				if b != s.ItemBucket[i] {
					t.Fatalf("value %d split across buckets %d and %d", it.Sum, b, s.ItemBucket[i])
				}
			} else {
				bucketOf[it.Sum] = s.ItemBucket[i]
			}
		}
	}
}

func TestBucketCountLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	n := 100000
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Sum: rng.Int63n(1 << 40), Mult: 1} // effectively no ties
	}
	eps := 0.1
	s := Build(items, eps)
	// O(log_{1+eps} total): allow a 4x constant.
	bound := 4 * math.Log(float64(n)) / math.Log(1+eps)
	if float64(len(s.Buckets)) > bound {
		t.Fatalf("buckets = %d exceeds %v", len(s.Buckets), bound)
	}
}

func TestEpsZeroIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	items := randomItems(rng, 100, 20)
	s := Build(items, 0)
	for _, it := range items {
		for _, lam := range []int64{it.Sum, it.Sum + 1} {
			if got, want := countBelow(s, lam), exactBelow(items, lam); math.Abs(got-want) > 1e-9 {
				t.Fatalf("eps=0 not exact at λ=%d: %v vs %v", lam, got, want)
			}
		}
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	s := Build(nil, 0.5)
	if len(s.Buckets) != 0 || countBelow(s, 0) != 0 {
		t.Fatal("empty sketch wrong")
	}
	s = Build([]Item{{Sum: 7, Mult: 3}}, 0.5)
	if len(s.Buckets) != 1 || s.Buckets[0].Rep != 7 || s.Buckets[0].Mult != 3 {
		t.Fatalf("singleton sketch = %+v", s.Buckets)
	}
	if countBelow(s, 7) != 0 || countBelow(s, 8) != 3 {
		t.Fatal("singleton counts wrong")
	}
}

// Buckets are emitted in ascending Rep order and masses add up.
func TestQuickBucketInvariants(t *testing.T) {
	f := func(raw []uint16, epsRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		eps := float64(epsRaw%90+5) / 100
		items := make([]Item, len(raw))
		total := 0.0
		for i, v := range raw {
			items[i] = Item{Sum: int64(v % 64), Mult: float64(v%7 + 1)}
			total += items[i].Mult
		}
		s := Build(items, eps)
		sum := 0.0
		for i, b := range s.Buckets {
			sum += b.Mult
			if i > 0 && s.Buckets[i-1].Rep >= b.Rep {
				return false
			}
		}
		return math.Abs(sum-total) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Every item's value is ≤ its bucket representative (rounding is upward).
func TestQuickRoundsUp(t *testing.T) {
	f := func(raw []int16, epsRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		eps := float64(epsRaw%90+5) / 100
		items := make([]Item, len(raw))
		for i, v := range raw {
			items[i] = Item{Sum: int64(v), Mult: 1}
		}
		s := Build(items, eps)
		for i, it := range items {
			if it.Sum > s.Buckets[s.ItemBucket[i]].Rep {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	items := randomItems(rng, 1<<15, 1<<30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(items, 0.1)
	}
}
