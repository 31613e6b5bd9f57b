// Package selection implements deterministic worst-case-linear selection by
// introselect: quickselect rounds over a cheap deterministic pivot
// (median-of-3, ninther on large ranges), falling back for the rest of the
// call to the classic BFPRT median-of-medians pivot [Blum et al. 1973] as
// soon as one round fails to shrink the range by at least 1/8. The cheap
// rounds before the fallback shrink geometrically, so they cost O(n) in
// total, and the fallback is worst-case linear — no input makes a call
// superlinear, and nothing is randomized. On top of it sits the weighted
// median over multiplicities [Johnson & Mizoguchi 1978] that Algorithm 2
// (pivot selection) uses inside every join group.
//
// Nth selects over a caller-owned index slice with a comparison callback, so
// it works over any indexed collection without copying data (the driver's
// tail orders answers by weight, then by value). The weighted median runs on
// a contiguous slice of (key, multiplicity, item) entries instead and compares
// keys inline: Algorithm 2 calls it for every join group of every round.
package selection

import (
	"slices"

	"github.com/quantilejoins/qjoin/internal/counting"
)

// Nth permutes idx and returns the element of idx holding the k-th smallest
// item (0-indexed) under less, where less compares the items denoted by two
// idx entries. It runs in worst-case linear time. Panics if k is out of
// range.
func Nth(idx []int, k int, less func(a, b int) bool) int {
	if k < 0 || k >= len(idx) {
		panic("selection: rank out of range")
	}
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

// nintherMin is the range size from which the cheap pivot is the median of
// three medians-of-3 instead of one.
const nintherMin = 128

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
	return Nth(medians, len(medians)/2, less)
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

// Entry is one item of a weighted multiset, stored by value so that a
// selection reads and swaps contiguous memory: its key in the order (a scalar
// weight, or the most significant position of a vector weight), how many times
// it occurs, and the caller's name for it.
type Entry struct {
	Key  int64
	Mult counting.Count
	Item int
}

// Vectors holds the LEX weights behind a multiset's entries: the vector of
// entry e is At[e.Item*R : (e.Item+1)*R], most significant position first, and
// its position 0 is e.Key. Entries with equal keys are ordered by the rest of
// their vectors. The zero value orders by Key alone.
type Vectors struct {
	At []int64
	R  int
}

// cmp orders two entries: by key, then by the rest of their vectors.
func (v Vectors) cmp(a, b *Entry) int {
	if a.Key < b.Key {
		return -1
	}
	if a.Key > b.Key {
		return 1
	}
	if v.R <= 1 {
		return 0
	}
	return v.cmpRest(a.Item, b.Item)
}

// cmpRest orders two items' vectors past position 0.
func (v Vectors) cmpRest(a, b int) int {
	return slices.Compare(v.At[a*v.R+1:(a+1)*v.R], v.At[b*v.R+1:(b+1)*v.R])
}

// MedianItem returns the weighted median per Section 4.1: the Item of the
// entry at the lower-median position ⌊(|B|-1)/2⌋ of the multiset B in which
// every entry occurs Mult times. The lower median is the convention the
// paper's Figure 2 follows (e.g. it picks weight 8 from the two-element group
// {8, 9}); either median satisfies Lemma 4.5. es must be non-empty and every
// multiplicity positive. es is permuted. Which member of a class of equal
// weights comes back is a function of the entries' order alone.
func MedianItem(es []Entry, vecs Vectors) int {
	if len(es) == 0 {
		panic("selection: weighted median of empty set")
	}
	total := counting.Zero
	for i := range es {
		total = total.Add(es[i].Mult)
	}
	if total.IsZero() {
		panic("selection: weighted median with zero total multiplicity")
	}
	return weightedSelect(es, vecs, total.Sub(counting.One).Half()).Item
}

// weightedSelect permutes es and returns the entry at position target
// (0-indexed) of the multiset, 0 ≤ target < Σ Mult, in worst-case linear time:
// the introselect of Nth, partitioning the entries themselves.
func weightedSelect(es []Entry, vecs Vectors, target counting.Count) Entry {
	robust := false
	for len(es) > 1 {
		n := len(es)
		lt, eq, wLess, wEq := partitionEntries(es, vecs, pivotEntry(es, vecs, robust))
		switch {
		case target.Less(wLess):
			es = es[:lt]
		case target.Less(wLess.Add(wEq)):
			return es[lt]
		default:
			target = target.Sub(wLess.Add(wEq))
			es = es[lt+eq:]
		}
		robust = robust || len(es) > n-n/8
	}
	return es[0]
}

// pivotEntry is pivotOf on entries; the pivot is a copy, since the partition
// moves the entries.
func pivotEntry(es []Entry, vecs Vectors, robust bool) Entry {
	n := len(es)
	if robust {
		// Median of the medians of five, the groups sorted in place. Only the
		// pivot's weight matters to the partition, so the medians are selected
		// among with unit multiplicities.
		medians := make([]Entry, 0, (n+4)/5)
		for lo := 0; lo < n; lo += 5 {
			grp := es[lo:min(lo+5, n)]
			for i := 1; i < len(grp); i++ {
				for j := i; j > 0 && vecs.cmp(&grp[j], &grp[j-1]) < 0; j-- {
					grp[j], grp[j-1] = grp[j-1], grp[j]
				}
			}
			m := grp[len(grp)/2]
			medians = append(medians, Entry{Key: m.Key, Mult: counting.One, Item: m.Item})
		}
		return weightedSelect(medians, vecs, counting.FromInt(len(medians)/2))
	}
	mid, hi := n/2, n-1
	if n < nintherMin {
		return *vecs.median3(&es[0], &es[mid], &es[hi])
	}
	s := n / 8
	return *vecs.median3(
		vecs.median3(&es[0], &es[s], &es[2*s]),
		vecs.median3(&es[mid-s], &es[mid], &es[mid+s]),
		vecs.median3(&es[hi-2*s], &es[hi-s], &es[hi]))
}

// median3 returns the median of three entries.
func (v Vectors) median3(a, b, c *Entry) *Entry {
	if v.cmp(b, a) < 0 {
		a, b = b, a
	}
	if v.cmp(c, b) >= 0 {
		return b
	}
	if v.cmp(c, a) < 0 {
		return a
	}
	return c
}

// partitionEntries is partition3 on entries — the same comparisons and the
// same swaps — and sums the multiplicities of the first two segments on the
// way.
func partitionEntries(es []Entry, vecs Vectors, pivot Entry) (lt, eq int, wLess, wEq counting.Count) {
	lo, mid, hi := 0, 0, len(es)
	for mid < hi {
		e := &es[mid]
		c := 0 // vecs.cmp(e, &pivot), which is past the inlining budget
		switch {
		case e.Key < pivot.Key:
			c = -1
		case e.Key > pivot.Key:
			c = 1
		case vecs.R > 1:
			c = vecs.cmpRest(e.Item, pivot.Item)
		}
		switch {
		case c < 0:
			wLess = wLess.Add(e.Mult)
			es[lo], es[mid] = es[mid], es[lo]
			lo++
			mid++
		case c > 0:
			hi--
			es[mid], es[hi] = es[hi], es[mid]
		default:
			wEq = wEq.Add(e.Mult)
			mid++
		}
	}
	return lo, mid - lo, wLess, wEq
}

// NewIndex returns the identity permutation [0, n).
func NewIndex(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
