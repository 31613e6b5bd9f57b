// Package sketch implements the ε-sketch of weighted multisets from
// Section 6 (Lemma 6.3, after Abo-Khamis et al.), including the paper's
// bucket adjustment that keeps equal values inside a single bucket.
//
// A sketch partitions the multiset, sorted ascending, into buckets whose mass
// grows geometrically: a bucket holding more than one distinct value has mass
// at most ε times the mass strictly below it. Every element is replaced by
// its bucket's maximum, so counts-below-λ are never overestimated and are
// underestimated by at most the straddling bucket's mass:
//
//	(1-ε)·↓λ(L) ≤ ↓λ(S_ε(L)) ≤ ↓λ(L)   for all λ.
//
// The same-value atomicity required by Algorithm 4 (all mass of one value in
// one bucket, so a child tuple copy joins exactly one parent copy) is
// obtained structurally: values are first coalesced into value groups and
// buckets are unions of value groups. A bucket holding a single value is
// exact regardless of its mass, so oversized atomic groups cost nothing.
package sketch

import "sort"

// Item is one (value, multiplicity) message entering the sketch.
type Item struct {
	Sum int64
	// Mult is σ_m. It only steers bucket boundaries, so float64 precision
	// suffices, even past 2^53: the answers a lossy trim keeps are recounted
	// exactly, in 128 bits, on the instance it emits.
	Mult float64
}

// Bucket is one sketch bucket.
type Bucket struct {
	// Rep is the representative: the maximum value in the bucket. Rounding
	// every member up to Rep makes below-λ counts one-sided.
	Rep int64
	// Mult is the total multiplicity of the bucket.
	Mult float64
}

// Sketch is an ε-sketch of a weighted multiset.
type Sketch struct {
	Buckets []Bucket
	// ItemBucket maps each input item index to its bucket.
	ItemBucket []int
}

// Build sketches the items with parameter eps ∈ (0, 1). With eps = 0 every
// value group becomes its own bucket and the sketch is exact.
func Build(items []Item, eps float64) *Sketch {
	n := len(items)
	s := &Sketch{ItemBucket: make([]int, n)}
	if n == 0 {
		return s
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return items[order[a]].Sum < items[order[b]].Sum })

	// Coalesce equal values into atomic groups.
	type group struct {
		sum  int64
		mult float64
		lo   int // range in order
		hi   int
	}
	var groups []group
	for i := 0; i < n; {
		j := i
		mass := 0.0
		v := items[order[i]].Sum
		for j < n && items[order[j]].Sum == v {
			mass += items[order[j]].Mult
			j++
		}
		groups = append(groups, group{sum: v, mult: mass, lo: i, hi: j})
		i = j
	}
	// Geometric bucketing over groups: a bucket may absorb further groups
	// only while its mass stays within eps times the mass below it.
	cumBefore := 0.0
	g := 0
	for g < len(groups) {
		h := g
		mass := 0.0
		for h < len(groups) {
			m := groups[h].mult
			if h > g && mass+m > eps*cumBefore {
				break
			}
			mass += m
			h++
		}
		b := len(s.Buckets)
		for k := g; k < h; k++ {
			for p := groups[k].lo; p < groups[k].hi; p++ {
				s.ItemBucket[order[p]] = b
			}
		}
		s.Buckets = append(s.Buckets, Bucket{Rep: groups[h-1].sum, Mult: mass})
		cumBefore += mass
		g = h
	}
	return s
}
