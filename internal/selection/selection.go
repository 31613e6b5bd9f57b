// Package selection implements deterministic worst-case-linear selection by
// introselect: quickselect rounds over a cheap deterministic pivot
// (median-of-3, ninther on large ranges), falling back for the rest of the
// call to the classic BFPRT median-of-medians pivot [Blum et al. 1973] as
// soon as one round fails to shrink the range by at least 1/8. The cheap
// rounds before the fallback shrink geometrically, so they cost O(n) in
// total, and the fallback is worst-case linear — no input makes a call
// superlinear, and nothing is randomized.
//
// There is one kernel, and it has two entry points. It runs on a contiguous
// slice of (key, item) entries, 16 bytes each, and compares keys inline; what
// else an item carries — the rest of a LEX vector, a multiplicity — lies
// behind it in Vectors and is read when a comparison or a sum needs it.
// SelectClass returns the class of equal weights that holds a position of the
// multiset, partitioned into place; MedianItem is the weighted median over
// multiplicities [Johnson & Mizoguchi 1978] that Algorithm 2 (pivot selection)
// takes inside every join group — the class at the lower-median position. The
// driver's tail selects with the same kernel: candidates of multiplicity one by
// weight, then the members of the selected class by value.
package selection

import (
	"slices"

	"github.com/quantilejoins/qjoin/internal/counting"
)

// nintherMin is the range size from which the cheap pivot is the median of
// three medians-of-3 instead of one.
const nintherMin = 128

// Entry is one item of a weighted multiset, stored by value so that a
// selection reads and swaps contiguous memory: its key in the order (a scalar
// weight, or the most significant position of a vector weight) and the
// caller's name for it, a non-negative index into Vectors.
type Entry struct {
	Key  int64
	Item int
}

// Vectors holds what lies behind a multiset's entries. The LEX weight of entry
// e is At[e.Item*R : (e.Item+1)*R], most significant position first, and its
// position 0 is e.Key: entries with equal keys are ordered by the rest of their
// vectors. Entry e occurs Mult[e.Item] times. The zero value orders by Key
// alone and counts every entry once.
type Vectors struct {
	At   []int64
	R    int
	Mult []counting.Count
}

// mult is the multiplicity of an item.
func (v Vectors) mult(item int) counting.Count {
	if v.Mult == nil {
		return counting.One
	}
	return v.Mult[item]
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
// every entry occurs its multiplicity's times. The lower median is the convention the
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
		total = total.Add(vecs.mult(es[i].Item))
	}
	if total.IsZero() {
		panic("selection: weighted median with zero total multiplicity")
	}
	lo, _ := SelectClass(es, vecs, total.Sub(counting.One).Half())
	return es[lo].Item
}

// SelectClass permutes es and returns the bounds of the class of equal weights
// holding position k (0-indexed) of the multiset in which every entry occurs
// its multiplicity's times: the class is es[lo:hi], every entry of es[:lo] is smaller and
// every entry of es[hi:] greater. Worst-case linear: introselect, partitioning
// the entries themselves. It panics unless k is a position of the multiset.
func SelectClass(es []Entry, vecs Vectors, k counting.Count) (lo, hi int) {
	robust := false
	for len(es) > 1 {
		n := len(es)
		lt, eq, wLess, wEq := partitionEntries(es, vecs, pivotEntry(es, vecs, robust))
		switch {
		case k.Less(wLess):
			es = es[:lt]
		case k.Less(wLess.Add(wEq)):
			return lo + lt, lo + lt + eq
		default:
			k = k.Sub(wLess.Add(wEq))
			es = es[lt+eq:]
			lo += lt + eq
		}
		robust = robust || len(es) > n-n/8
	}
	if len(es) == 0 || !k.Less(vecs.mult(es[0].Item)) {
		panic("selection: position out of range")
	}
	return lo, lo + 1
}

// pivotEntry picks the pivot of one partition round: median-of-medians once
// the call has gone robust, else the median of the first, middle and last
// entry (of three such medians, spread over the range, when it is large). The
// pivot is a copy, since the partition moves the entries.
func pivotEntry(es []Entry, vecs Vectors, robust bool) Entry {
	n := len(es)
	if robust {
		// Median of the medians of five, the groups sorted in place. Only the
		// pivot's weight matters to the partition, so the medians are selected
		// among counting each once.
		medians := make([]Entry, 0, (n+4)/5)
		for lo := 0; lo < n; lo += 5 {
			grp := es[lo:min(lo+5, n)]
			for i := 1; i < len(grp); i++ {
				for j := i; j > 0 && vecs.cmp(&grp[j], &grp[j-1]) < 0; j-- {
					grp[j], grp[j-1] = grp[j-1], grp[j]
				}
			}
			medians = append(medians, grp[len(grp)/2])
		}
		lo, _ := SelectClass(medians, Vectors{At: vecs.At, R: vecs.R}, counting.FromInt(len(medians)/2))
		return medians[lo]
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

// partitionEntries performs a three-way partition of es around pivot,
// [ < pivot | == pivot | > pivot ]: it returns the sizes of the first two
// segments and the sums of their multiplicities.
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
			wLess = wLess.Add(vecs.mult(e.Item))
			es[lo], es[mid] = es[mid], es[lo]
			lo++
			mid++
		case c > 0:
			hi--
			es[mid], es[hi] = es[hi], es[mid]
		default:
			wEq = wEq.Add(vecs.mult(e.Item))
			mid++
		}
	}
	return lo, mid - lo, wLess, wEq
}
