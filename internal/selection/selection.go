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
// All functions operate on caller-owned index slices with comparison
// callbacks, so they work over rows of relations, weights, or any other
// indexed collection without copying data.
package selection

import (
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

// NewIndex returns the identity permutation [0, n).
func NewIndex(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
