package selection

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/quantilejoins/qjoin/internal/counting"
)

func lessOf(vals []int) func(a, b int) bool {
	return func(a, b int) bool { return vals[a] < vals[b] }
}

func TestNthSimple(t *testing.T) {
	vals := []int{5, 1, 4, 2, 3}
	for k := 0; k < 5; k++ {
		got := Nth(NewIndex(5), k, lessOf(vals))
		if vals[got] != k+1 {
			t.Fatalf("Nth(%d) -> item %d", k, vals[got])
		}
	}
}

func TestNthDuplicates(t *testing.T) {
	vals := []int{2, 2, 2, 1, 3}
	if got := Nth(NewIndex(5), 2, lessOf(vals)); vals[got] != 2 {
		t.Fatalf("median of %v = %d", vals, vals[got])
	}
	if got := Nth(NewIndex(5), 0, lessOf(vals)); vals[got] != 1 {
		t.Fatal("min wrong")
	}
	if got := Nth(NewIndex(5), 4, lessOf(vals)); vals[got] != 3 {
		t.Fatal("max wrong")
	}
}

func TestNthOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Nth(NewIndex(3), 3, func(a, b int) bool { return a < b })
}

// Property: Nth agrees with sorting for every k on random inputs.
func TestQuickNthMatchesSort(t *testing.T) {
	f := func(raw []uint8, kRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int, len(raw))
		for i, v := range raw {
			vals[i] = int(v % 16) // force duplicates
		}
		k := int(kRaw) % len(vals)
		got := vals[Nth(NewIndex(len(vals)), k, lessOf(vals))]
		sorted := append([]int(nil), vals...)
		sort.Ints(sorted)
		return got == sorted[k]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedSelectBasic(t *testing.T) {
	// Items 10,20,30 with multiplicities 1,3,1 -> expanded: 10,20,20,20,30
	vals := []int{10, 20, 30}
	mults := []uint64{1, 3, 1}
	mult := func(i int) counting.Count { return counting.FromUint64(mults[i]) }
	want := []int{10, 20, 20, 20, 30}
	for pos, expect := range want {
		got := WeightedSelect(NewIndex(3), counting.FromInt(pos), lessOf(vals), mult)
		if vals[got] != expect {
			t.Fatalf("WeightedSelect(%d) = %d, want %d", pos, vals[got], expect)
		}
	}
}

func TestWeightedMedianDefinition(t *testing.T) {
	// |B| = 5 -> lower-median position floor((5-1)/2) = 2 -> value 20.
	vals := []int{10, 20, 30}
	mults := []uint64{1, 3, 1}
	mult := func(i int) counting.Count { return counting.FromUint64(mults[i]) }
	got := WeightedMedian(NewIndex(3), lessOf(vals), mult)
	if vals[got] != 20 {
		t.Fatalf("weighted median = %d", vals[got])
	}
}

func TestWeightedMedianLowerConvention(t *testing.T) {
	// Figure 2's U-group: {8×1, 9×1} -> lower median is 8.
	vals := []int{8, 9}
	mult := func(i int) counting.Count { return counting.One }
	got := WeightedMedian(NewIndex(2), lessOf(vals), mult)
	if vals[got] != 8 {
		t.Fatalf("lower weighted median of {8,9} = %d, want 8", vals[got])
	}
}

func TestWeightedMedianHeavySingleton(t *testing.T) {
	// One item dominates the multiset.
	vals := []int{1, 100, 2, 3}
	mults := []uint64{1, 1000, 1, 1}
	mult := func(i int) counting.Count { return counting.FromUint64(mults[i]) }
	got := WeightedMedian(NewIndex(4), lessOf(vals), mult)
	if vals[got] != 100 {
		t.Fatalf("weighted median = %d", vals[got])
	}
}

func TestWeightedMedianEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	WeightedMedian(nil, func(a, b int) bool { return false }, func(int) counting.Count { return counting.One })
}

// Reference implementation: expand the multiset and index it.
func refWeightedSelect(vals []int, mults []uint64, pos int) int {
	type pair struct {
		v int
		m uint64
	}
	ps := make([]pair, len(vals))
	for i := range vals {
		ps[i] = pair{vals[i], mults[i]}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].v < ps[j].v })
	cum := uint64(0)
	for _, p := range ps {
		cum += p.m
		if uint64(pos) < cum {
			return p.v
		}
	}
	panic("pos out of range")
}

// Property: WeightedSelect agrees with the expanded-multiset reference.
func TestQuickWeightedSelect(t *testing.T) {
	f := func(raw []uint8, posRaw uint16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int, len(raw))
		mults := make([]uint64, len(raw))
		var total uint64
		for i, v := range raw {
			vals[i] = int(v % 8)
			mults[i] = uint64(v%5) + 1
			total += mults[i]
		}
		pos := int(uint64(posRaw) % total)
		mult := func(i int) counting.Count { return counting.FromUint64(mults[i]) }
		got := vals[WeightedSelect(NewIndex(len(vals)), counting.FromInt(pos), lessOf(vals), mult)]
		return got == refWeightedSelect(vals, mults, pos)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedSelectHugeMultiplicities(t *testing.T) {
	// Multiplicities beyond uint64 still select correctly.
	vals := []int{1, 2, 3}
	big := counting.FromUint64(1 << 62).Mul(counting.FromUint64(1 << 10)) // 2^72
	mult := func(i int) counting.Count { return big }
	// Position in the middle third must return 2.
	target := big.Add(big.Half())
	got := WeightedSelect(NewIndex(3), target, lessOf(vals), mult)
	if vals[got] != 2 {
		t.Fatalf("got %d", vals[got])
	}
}

func TestNthLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 100000
	vals := make([]int, n)
	for i := range vals {
		vals[i] = rng.Intn(1000)
	}
	sorted := append([]int(nil), vals...)
	sort.Ints(sorted)
	for _, k := range []int{0, 1, n / 4, n / 2, n - 2, n - 1} {
		got := vals[Nth(NewIndex(n), k, lessOf(vals))]
		if got != sorted[k] {
			t.Fatalf("k=%d got %d want %d", k, got, sorted[k])
		}
	}
}

func BenchmarkNthMedian(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	n := 1 << 16
	vals := make([]int, n)
	for i := range vals {
		vals[i] = rng.Int()
	}
	idx := NewIndex(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(idx, idx[:0:0]) // no-op to keep idx allocated
		for j := range idx {
			idx[j] = j
		}
		Nth(idx, n/2, lessOf(vals))
	}
}

func BenchmarkWeightedMedian(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	n := 1 << 16
	vals := make([]int, n)
	mults := make([]counting.Count, n)
	for i := range vals {
		vals[i] = rng.Int()
		mults[i] = counting.FromUint64(uint64(rng.Intn(1000) + 1))
	}
	mult := func(i int) counting.Count { return mults[i] }
	idx := NewIndex(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range idx {
			idx[j] = j
		}
		WeightedMedian(idx, lessOf(vals), mult)
	}
}

// adversarialShapes are the inputs introselect must agree with sorting on:
// the orders a cheap-pivot quickselect is known to degrade on.
func adversarialShapes(n int) map[string][]int {
	shapes := map[string][]int{
		"sorted":     make([]int, n),
		"reversed":   make([]int, n),
		"all-equal":  make([]int, n),
		"organ-pipe": make([]int, n),
		"mo3-killer": musserKiller(n),
	}
	for i := 0; i < n; i++ {
		shapes["sorted"][i] = i
		shapes["reversed"][i] = n - i
		shapes["all-equal"][i] = 7
		shapes["organ-pipe"][i] = min(i, n-1-i)
	}
	return shapes
}

// musserKiller is Musser's median-of-3 killer sequence [Introspective
// Sorting and Selection Algorithms, 1997]: 1, k+1, 3, k+3, …, k-1, 2k-1, then
// 2, 4, …, 2k for even k, so that first/middle/last medians keep landing on
// the two smallest items; lengths that are not 2k are padded with maxima.
func musserKiller(n int) []int {
	k := n / 4 * 2
	out := make([]int, 0, n)
	for i := 1; i < k; i += 2 {
		out = append(out, i, k+i)
	}
	for i := 2; i <= 2*k; i += 2 {
		out = append(out, i)
	}
	for len(out) < n {
		out = append(out, len(out)+1)
	}
	return out
}

func TestIntroselectMatchesSortOnAdversarialShapes(t *testing.T) {
	for _, n := range []int{6, 7, 100, nintherMin - 1, nintherMin, 1000, 4097} {
		for name, vals := range adversarialShapes(n) {
			sorted := append([]int(nil), vals...)
			sort.Ints(sorted)
			// Skewed multiplicities: a few items carry almost all the mass.
			mults := make([]uint64, n)
			var total uint64
			for i := range mults {
				mults[i] = 1
				if i%37 == 0 {
					mults[i] = uint64(n) * 1000
				}
				total += mults[i]
			}
			mult := func(i int) counting.Count { return counting.FromUint64(mults[i]) }
			stride := max(1, n/23)
			for k := 0; k < n; k += stride {
				if got := vals[Nth(NewIndex(n), k, lessOf(vals))]; got != sorted[k] {
					t.Fatalf("%s n=%d: Nth(%d) = %d, want %d", name, n, k, got, sorted[k])
				}
				pos := int(total / uint64(n) * uint64(k))
				got := vals[WeightedSelect(NewIndex(n), counting.FromInt(pos), lessOf(vals), mult)]
				if want := refWeightedSelect(vals, mults, pos); got != want {
					t.Fatalf("%s n=%d: WeightedSelect(%d) = %d, want %d", name, n, pos, got, want)
				}
			}
		}
	}
}

// killerFor builds, after McIlroy's "A Killer Adversary for Quicksort"
// (1999), the input on which fn's pivots are as bad as its comparisons
// allow: items stay undecided ("gas") until two of them are compared, then
// the one the algorithm seems to be using as a pivot is frozen at the
// smallest value not yet handed out. Replaying fn on the returned values
// repeats the same comparisons.
func killerFor(n int, fn func(idx []int, less func(a, b int) bool)) []int {
	gas := n
	vals := make([]int, n)
	for i := range vals {
		vals[i] = gas
	}
	solid, candidate := 0, 0
	fn(NewIndex(n), func(a, b int) bool {
		if vals[a] == gas && vals[b] == gas {
			if a == candidate {
				vals[a] = solid
			} else {
				vals[b] = solid
			}
			solid++
		}
		if vals[a] == gas {
			candidate = a
		} else if vals[b] == gas {
			candidate = b
		}
		return vals[a] < vals[b]
	})
	return vals
}

// The fallback is what keeps selection linear: on the input built to defeat
// its own pivots, Nth and WeightedSelect still answer like a sort, within a
// constant number of comparisons per item (measured 8.8; with the fallback
// rule taken out the same adversary drives it to n/8 per item).
func TestIntroselectLinearOnKiller(t *testing.T) {
	const perItem = 20
	for _, n := range []int{1 << 10, 1 << 13, 1 << 16} {
		unit := func(int) counting.Count { return counting.One }
		algos := map[string]func(idx []int, less func(a, b int) bool) int{
			"Nth": func(idx []int, less func(a, b int) bool) int { return Nth(idx, n/2, less) },
			"WeightedSelect": func(idx []int, less func(a, b int) bool) int {
				return WeightedSelect(idx, counting.FromInt(n/2), less, unit)
			},
		}
		for name, algo := range algos {
			vals := killerFor(n, func(idx []int, less func(a, b int) bool) { algo(idx, less) })
			sorted := append([]int(nil), vals...)
			sort.Ints(sorted)
			comparisons := 0
			got := vals[algo(NewIndex(n), func(a, b int) bool {
				comparisons++
				return vals[a] < vals[b]
			})]
			if got != sorted[n/2] {
				t.Fatalf("%s n=%d: median %d, want %d", name, n, got, sorted[n/2])
			}
			if comparisons > perItem*n {
				t.Fatalf("%s n=%d: %d comparisons on the killer input, want ≤ %d·n", name, n, comparisons, perItem)
			}
			t.Logf("%s n=%d: %.1f comparisons per item on the killer input", name, n, float64(comparisons)/float64(n))
		}
	}
}
