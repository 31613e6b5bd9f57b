package selection

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/ranking"
)

func lessOf(vals []int) func(a, b int) bool {
	return func(a, b int) bool { return vals[a] < vals[b] }
}

// unitEntries are vals as entries, item i holding vals[i]; without Vectors.Mult
// each counts once.
func unitEntries(vals []int) []Entry {
	es := make([]Entry, len(vals))
	for i, v := range vals {
		es[i] = Entry{Key: int64(v), Item: i}
	}
	return es
}

// nth is the k-th smallest of vals (0-indexed) as the kernel selects it.
func nth(vals []int, k int) int {
	es := unitEntries(vals)
	lo, _ := SelectClass(es, Vectors{}, counting.FromInt(k))
	return vals[es[lo].Item]
}

func TestNthSimple(t *testing.T) {
	vals := []int{5, 1, 4, 2, 3}
	for k := 0; k < 5; k++ {
		if got := nth(vals, k); got != k+1 {
			t.Fatalf("nth(%d) -> item %d", k, got)
		}
	}
}

func TestNthDuplicates(t *testing.T) {
	vals := []int{2, 2, 2, 1, 3}
	if got := nth(vals, 2); got != 2 {
		t.Fatalf("median of %v = %d", vals, got)
	}
	if got := nth(vals, 0); got != 1 {
		t.Fatal("min wrong")
	}
	if got := nth(vals, 4); got != 3 {
		t.Fatal("max wrong")
	}
}

func TestNthOutOfRangePanics(t *testing.T) {
	for _, n := range []int{0, 1, 3, 200} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("position %d of %d entries: expected panic", n, n)
				}
			}()
			vals := make([]int, n)
			for i := range vals {
				vals[i] = i * 7 % 5
			}
			SelectClass(unitEntries(vals), Vectors{}, counting.FromInt(n))
		}()
	}
}

// Property: the kernel agrees with sorting for every k on random inputs.
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
		sorted := append([]int(nil), vals...)
		sort.Ints(sorted)
		return nth(vals, k) == sorted[k]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The callback selection that Algorithm 2 and the driver's tail ran on before
// the typed kernel, kept as the reference the kernel is checked against item
// for item: the same introselect over an index slice, comparing and weighing
// through func values.

// NewIndex returns the identity permutation [0, n).
func NewIndex(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// refNth permutes idx and returns the element of idx holding the k-th smallest
// item (0-indexed) under less.
func refNth(idx []int, k int, less func(a, b int) bool) int {
	robust := false
	for len(idx) > 5 {
		n := len(idx)
		lt, eq := partition3(idx, pivotOf(idx, less, robust), less)
		switch {
		case k < lt:
			idx = idx[:lt]
		case k < lt+eq:
			return idx[lt]
		default:
			k -= lt + eq
			idx = idx[lt+eq:]
		}
		robust = robust || len(idx) > n-n/8
	}
	insertionSort(idx, less)
	return idx[k]
}

// pivotOf picks the pivot of one partition round: median-of-medians once the
// call has gone robust, else the median of the first, middle and last
// element (of three such medians, spread over the range, when it is large).
func pivotOf(idx []int, less func(a, b int) bool, robust bool) int {
	if robust {
		return medianOfMedians(idx, less)
	}
	n := len(idx)
	mid, hi := n/2, n-1
	if n < nintherMin {
		return median3(idx[0], idx[mid], idx[hi], less)
	}
	s := n / 8
	return median3(
		median3(idx[0], idx[s], idx[2*s], less),
		median3(idx[mid-s], idx[mid], idx[mid+s], less),
		median3(idx[hi-2*s], idx[hi-s], idx[hi], less), less)
}

// median3 returns the median of three items under less.
func median3(a, b, c int, less func(a, b int) bool) int {
	if less(b, a) {
		a, b = b, a
	}
	if !less(c, b) {
		return b
	}
	if less(c, a) {
		return a
	}
	return c
}

// insertionSort sorts idx in place by less.
func insertionSort(idx []int, less func(a, b int) bool) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && less(idx[j], idx[j-1]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// medianOfMedians returns a pivot element guaranteeing a 30/70 split.
func medianOfMedians(idx []int, less func(a, b int) bool) int {
	n := len(idx)
	nGroups := (n + 4) / 5
	medians := make([]int, 0, nGroups)
	for g := 0; g < nGroups; g++ {
		lo := g * 5
		hi := lo + 5
		if hi > n {
			hi = n
		}
		grp := idx[lo:hi]
		insertionSort(grp, less)
		medians = append(medians, grp[len(grp)/2])
	}
	return refNth(medians, len(medians)/2, less)
}

// partition3 performs a three-way partition of idx around the item denoted by
// pivot: [ < pivot | == pivot | > pivot ]. It returns the sizes of the first
// two segments.
func partition3(idx []int, pivot int, less func(a, b int) bool) (lt, eq int) {
	lo, mid, hi := 0, 0, len(idx)
	for mid < hi {
		e := idx[mid]
		switch {
		case less(e, pivot):
			idx[lo], idx[mid] = idx[mid], idx[lo]
			lo++
			mid++
		case less(pivot, e):
			hi--
			idx[mid], idx[hi] = idx[hi], idx[mid]
		default:
			mid++
		}
	}
	return lo, mid - lo
}

// TotalWeight sums mult over idx.
func TotalWeight(idx []int, mult func(i int) counting.Count) counting.Count {
	total := counting.Zero
	for _, i := range idx {
		total = total.Add(mult(i))
	}
	return total
}

// WeightedSelect permutes idx and returns the element at position target
// (0-indexed) of the multiset in which each item i of idx occurs mult(i)
// times, ordered by less. target must satisfy 0 ≤ target < Σ mult.
// Runs in worst-case linear time in len(idx).
func WeightedSelect(idx []int, target counting.Count, less func(a, b int) bool, mult func(i int) counting.Count) int {
	robust := false
	for len(idx) > 1 {
		n := len(idx)
		lt, eq := partition3(idx, pivotOf(idx, less, robust), less)
		wLess := TotalWeight(idx[:lt], mult)
		wEq := TotalWeight(idx[lt:lt+eq], mult)
		switch {
		case target.Less(wLess):
			idx = idx[:lt]
		case target.Less(wLess.Add(wEq)):
			return idx[lt]
		default:
			target = target.Sub(wLess.Add(wEq))
			idx = idx[lt+eq:]
		}
		robust = robust || len(idx) > n-n/8
	}
	return idx[0]
}

// WeightedMedian returns the weighted median per Section 4.1: the element at
// the lower-median position ⌊(|B|-1)/2⌋ of the multiset B = (Z, β) ordered by
// less, where item i has multiplicity mult(i). The lower median is the
// convention the paper's Figure 2 follows (e.g. it picks weight 8 from the
// two-element group {8, 9}); either median satisfies Lemma 4.5. idx must be
// non-empty and every multiplicity positive. idx is permuted.
func WeightedMedian(idx []int, less func(a, b int) bool, mult func(i int) counting.Count) int {
	if len(idx) == 0 {
		panic("selection: weighted median of empty set")
	}
	total := TotalWeight(idx, mult)
	if total.IsZero() {
		panic("selection: weighted median with zero total multiplicity")
	}
	return WeightedSelect(idx, total.Sub(counting.One).Half(), less, mult)
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
		got := nth(vals, k)
		if got != sorted[k] {
			t.Fatalf("k=%d got %d want %d", k, got, sorted[k])
		}
	}
}

// BenchmarkSelectClass is the tail's selection: the median of 65 536 distinct
// keys as unit-multiplicity entries, filling included.
func BenchmarkSelectClass(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	n := 1 << 16
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63()
	}
	es := make([]Entry, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range es {
			es[j] = Entry{Key: keys[j], Item: j}
		}
		SelectClass(es, Vectors{}, counting.FromInt(n/2))
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
				if got := nth(vals, k); got != sorted[k] {
					t.Fatalf("%s n=%d: nth(%d) = %d, want %d", name, n, k, got, sorted[k])
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
// its own pivots, the selection still answers like a sort, within a constant
// number of comparisons per item (measured 8.8; with the fallback rule taken
// out the same adversary drives it to n/8 per item). The adversary needs a
// comparison callback, so it is built against — and the comparisons are
// counted on — the callback reference; the kernel makes the same comparisons
// (checkKernel holds it to the reference's permutation on this very input).
func TestIntroselectLinearOnKiller(t *testing.T) {
	const perItem = 20
	for _, n := range []int{1 << 10, 1 << 13, 1 << 16} {
		unit := func(int) counting.Count { return counting.One }
		algo := func(idx []int, less func(a, b int) bool) int {
			return WeightedSelect(idx, counting.FromInt(n/2), less, unit)
		}
		vals := killerFor(n, func(idx []int, less func(a, b int) bool) { algo(idx, less) })
		sorted := append([]int(nil), vals...)
		sort.Ints(sorted)
		comparisons := 0
		got := vals[algo(NewIndex(n), func(a, b int) bool {
			comparisons++
			return vals[a] < vals[b]
		})]
		if got != sorted[n/2] {
			t.Fatalf("n=%d: reference median %d, want %d", n, got, sorted[n/2])
		}
		if got := nth(vals, n/2); got != sorted[n/2] {
			t.Fatalf("n=%d: kernel median %d, want %d", n, got, sorted[n/2])
		}
		if comparisons > perItem*n {
			t.Fatalf("n=%d: %d comparisons on the killer input, want ≤ %d·n", n, comparisons, perItem)
		}
		t.Logf("n=%d: %.1f comparisons per item on the killer input", n, float64(comparisons)/float64(n))
		at := make([]int64, n)
		for i, v := range vals {
			at[i] = int64(v)
		}
		checkKernel(t, fmt.Sprintf("killer n=%d", n), at, 1, unitMults(n))
	}
}

// checkKernel runs the callback reference and the typed kernel on the same
// multiset — item i has the vector at[i*r:(i+1)*r] and multiplicity mults[i] —
// at the lower median and at a few other positions, and requires the same
// item back and the same permutation left behind: the kernel makes the
// reference's comparisons and swaps, so tie members agree too.
func checkKernel(t *testing.T, name string, at []int64, r int, mults []counting.Count) {
	t.Helper()
	n := len(mults)
	less := func(a, b int) bool { return slices.Compare(at[a*r:(a+1)*r], at[b*r:(b+1)*r]) < 0 }
	mult := func(i int) counting.Count { return mults[i] }
	entries := func() []Entry {
		es := make([]Entry, n)
		for i := range es {
			es[i] = Entry{Key: at[i*r], Item: i}
		}
		return es
	}
	same := func(what string, idx []int, es []Entry, want, got int) {
		t.Helper()
		if got != want {
			t.Fatalf("%s: %s: kernel item %d, reference item %d", name, what, got, want)
		}
		for i := range idx {
			if es[i].Item != idx[i] {
				t.Fatalf("%s: %s: permutations differ at %d: kernel %d, reference %d", name, what, i, es[i].Item, idx[i])
			}
		}
	}
	vecs := Vectors{At: at, R: r, Mult: mults}
	idx, es := NewIndex(n), entries()
	same("median", idx, es, WeightedMedian(idx, less, mult), MedianItem(es, vecs))
	if r == 1 {
		idx, es = NewIndex(n), entries()
		same("median, no vectors", idx, es, WeightedMedian(idx, less, mult), MedianItem(es, Vectors{Mult: mults}))
	}
	total := TotalWeight(NewIndex(n), mult)
	last := total.Sub(counting.One)
	for _, target := range []counting.Count{counting.Zero, last.Half().Half(), last.Half().Add(last.Half().Half()), last} {
		idx, es = NewIndex(n), entries()
		lo, hi := SelectClass(es, vecs, target)
		same("position "+target.String(), idx, es, WeightedSelect(idx, target, less, mult), es[lo].Item)
		checkClass(t, name+": position "+target.String(), at, r, mults, es, target, lo, hi)
	}
}

// checkClass holds what SelectClass left behind to a sort: es is a permutation
// of the items, es[lo:hi] is exactly the class of equal vectors that holds
// position target of the sorted multiset, and what lies before it is smaller,
// what lies after it greater.
func checkClass(t *testing.T, name string, at []int64, r int, mults []counting.Count, es []Entry, target counting.Count, lo, hi int) {
	t.Helper()
	n := len(mults)
	vec := func(i int) []int64 { return at[i*r : (i+1)*r] }
	sorted := NewIndex(n)
	sort.SliceStable(sorted, func(a, b int) bool { return slices.Compare(vec(sorted[a]), vec(sorted[b])) < 0 })
	class, cum := -1, counting.Zero
	for _, i := range sorted {
		if cum = cum.Add(mults[i]); target.Less(cum) {
			class = i
			break
		}
	}
	if class < 0 {
		t.Fatalf("%s: position past the multiset", name)
	}
	seen := make([]bool, n)
	for p, e := range es {
		if e.Item < 0 || e.Item >= n || seen[e.Item] || e.Key != at[e.Item*r] {
			t.Fatalf("%s: entry %d (%+v) is not an item of the input, or is there twice", name, p, e)
		}
		seen[e.Item] = true
		want := 0
		if p < lo {
			want = -1
		} else if p >= hi {
			want = 1
		}
		if c := slices.Compare(vec(e.Item), vec(class)); c != want {
			t.Fatalf("%s: entry %d of class [%d,%d) compares %d with the class at the position, want %d", name, p, lo, hi, c, want)
		}
	}
	if lo >= hi {
		t.Fatalf("%s: empty class [%d,%d)", name, lo, hi)
	}
}

// unitMults are n multiplicities of 1; mixedMults are the benchmark's mix.
func unitMults(n int) []counting.Count {
	return slices.Repeat([]counting.Count{counting.One}, n)
}

func mixedMults(rng *rand.Rand, n int) []counting.Count {
	mults := make([]counting.Count, n)
	for i := range mults {
		switch rng.Intn(3) {
		case 0:
			mults[i] = counting.One
		case 1:
			mults[i] = counting.FromUint64(uint64(rng.Intn(1000) + 1))
		default:
			mults[i] = counting.Count{Hi: uint64(rng.Intn(4)), Lo: rng.Uint64()}
		}
	}
	return mults
}

func TestKernelMatchesReferenceOnRandomTies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(300)
		r := 1 + rng.Intn(3)
		at := make([]int64, n*r)
		dom := int64(1 + rng.Intn(6)) // few distinct values: ties on every position
		for i := range at {
			at[i] = rng.Int63n(dom) - dom/2
		}
		mults := unitMults(n)
		if trial%2 == 1 {
			mults = mixedMults(rng, n)
		}
		checkKernel(t, fmt.Sprintf("trial %d (n=%d r=%d dom=%d)", trial, n, r, dom), at, r, mults)
	}
}

func TestKernelMatchesReferenceOnHugeMultiplicities(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(64)
		at := make([]int64, n)
		mults := make([]counting.Count, n)
		// Every multiplicity is past 2⁶⁴ and the total lands just under 2¹²⁷.
		share := (uint64(1) << 63) / uint64(n)
		for i := range at {
			at[i] = rng.Int63n(8)
			mults[i] = counting.Count{Hi: share - uint64(rng.Intn(3)), Lo: rng.Uint64()}
		}
		checkKernel(t, fmt.Sprintf("trial %d (n=%d)", trial, n), at, 1, mults)
	}
}

func TestKernelMatchesReferenceOnAdversarialShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 100, nintherMin - 1, nintherMin, nintherMin + 1, 1000, 4097} {
		for name, vals := range adversarialShapes(n) {
			at := make([]int64, n)
			for i, v := range vals {
				at[i] = int64(v)
			}
			checkKernel(t, fmt.Sprintf("%s n=%d unit", name, n), at, 1, unitMults(n))
			checkKernel(t, fmt.Sprintf("%s n=%d mixed", name, n), at, 1, mixedMults(rng, n))
			// The same shape one position down: every comparison is decided by
			// the vectors' rest.
			lex := make([]int64, 2*n)
			for i, v := range vals {
				lex[2*i+1] = int64(v)
			}
			checkKernel(t, fmt.Sprintf("%s n=%d lex", name, n), lex, 2, mixedMults(rng, n))
		}
	}
}

// On the input built to defeat the reference's cheap pivots (so that it falls
// back to median-of-medians and stays there), the kernel still walks in step.
func TestKernelMatchesReferenceOnKiller(t *testing.T) {
	for _, n := range []int{1 << 10, 1 << 13} {
		unit := func(int) counting.Count { return counting.One }
		vals := killerFor(n, func(idx []int, less func(a, b int) bool) {
			WeightedSelect(idx, counting.FromInt(n/2), less, unit)
		})
		at := make([]int64, n)
		for i, v := range vals {
			at[i] = int64(v)
		}
		checkKernel(t, fmt.Sprintf("killer n=%d", n), at, 1, unitMults(n))
	}
}

// FuzzWeightedMedian decodes a multiset from bytes — r positions per item from
// a domain of eight values, then a multiplicity byte whose top bits pick a
// unit, a small or a past-2⁶⁴ count — and checks the kernel against the
// reference on it.
func FuzzWeightedMedian(f *testing.F) {
	f.Add([]byte{1, 1, 2, 1, 3, 1}, uint8(1))
	f.Add([]byte{0, 0, 0xff, 0, 1, 0x80, 0, 0, 0x41, 7, 7, 0xc3}, uint8(2))
	f.Add(bytes.Repeat([]byte{5, 0x40}, 200), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, rRaw uint8) {
		at, r, mults := decodeMultiset(data, rRaw)
		if len(mults) == 0 {
			return
		}
		checkKernel(t, "fuzz", at, r, mults)
	})
}

// decodeMultiset reads a fuzz input as a multiset: r ∈ {1, 2, 3} positions per
// item from a domain of eight values, then a multiplicity byte whose top bits
// pick a unit, a small or a past-2⁶⁴ count.
func decodeMultiset(data []byte, rRaw uint8) (at []int64, r int, mults []counting.Count) {
	r = 1 + int(rRaw%3)
	n := len(data) / (r + 1)
	at = make([]int64, n*r)
	mults = make([]counting.Count, n)
	for i := 0; i < n; i++ {
		item := data[i*(r+1) : (i+1)*(r+1)]
		for p := 0; p < r; p++ {
			at[i*r+p] = int64(item[p]%8) - 4
		}
		m := item[r]
		switch m >> 6 {
		case 0, 1:
			mults[i] = counting.One
		case 2:
			mults[i] = counting.FromUint64(uint64(m&0x3f) + 1)
		default:
			mults[i] = counting.Count{Hi: uint64(m&0x3f) + 1, Lo: uint64(m) << 56}
		}
	}
	return at, r, mults
}

// FuzzSelectClass decodes a multiset the way FuzzWeightedMedian does and a
// position from two more bytes, and holds the class SelectClass returns for it
// to a sort (checkClass).
func FuzzSelectClass(f *testing.F) {
	f.Add([]byte{1, 1, 2, 1, 3, 1}, uint8(1), uint16(2))
	f.Add(bytes.Repeat([]byte{5, 0x40}, 200), uint8(1), uint16(199))
	f.Fuzz(func(t *testing.T, data []byte, rRaw uint8, posRaw uint16) {
		at, r, mults := decodeMultiset(data, rRaw)
		if len(mults) == 0 {
			return
		}
		// The position as a fraction of the multiset, so that past-2⁶⁴
		// multiplicities are reached too.
		total := TotalWeight(NewIndex(len(mults)), func(i int) counting.Count { return mults[i] })
		target := counting.FloorMulFloat(total.Sub(counting.One), float64(posRaw)/65535)
		es := make([]Entry, len(mults))
		for i := range es {
			es[i] = Entry{Key: at[i*r], Item: i}
		}
		lo, hi := SelectClass(es, Vectors{At: at, R: r, Mult: mults}, target)
		checkClass(t, "fuzz", at, r, mults, es, target, lo, hi)
	})
}

// BenchmarkPivotKernel is one weighted median of 16 384 scalar keys with ties
// and mixed multiplicities, filling included (the pivot pass refills per
// group): the typed kernel against the callback reference it replaced.
func BenchmarkPivotKernel(b *testing.B) {
	const n = 1 << 14
	rng := rand.New(rand.NewSource(42))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(n / 4)
	}
	mults := mixedMults(rng, n)
	// Each side runs once before it is timed: CI gives a sub-benchmark three
	// iterations, and the first touch of a fresh buffer would be a third of it.
	b.Run("typed", func(b *testing.B) {
		es := make([]Entry, n)
		median := func() {
			for i := range es {
				es[i] = Entry{Key: keys[i], Item: i}
			}
			MedianItem(es, Vectors{Mult: mults})
		}
		median()
		for b.Loop() {
			median()
		}
	})
	b.Run("reference", func(b *testing.B) {
		// As the pivot pass called it: weights as ranking.Weightv, ordered by
		// the ranking's Compare.
		f := ranking.NewMax("x")
		ws := make([]ranking.Weightv, n)
		for i, k := range keys {
			ws[i] = ranking.Weightv{K: k}
		}
		idx := make([]int, n)
		less := func(a, b int) bool { return f.Compare(ws[a], ws[b]) < 0 }
		mult := func(i int) counting.Count { return mults[i] }
		median := func() {
			for i := range idx {
				idx[i] = i
			}
			WeightedMedian(idx, less, mult)
		}
		median()
		for b.Loop() {
			median()
		}
	})
}
