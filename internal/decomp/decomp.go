package decomp

import (
	"fmt"
	"strconv"

	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/query"
)

// MaxDecompWidth caps how many atoms a single decomposition bag may cover.
// Materializing a bag joins all of its atoms, so cost grows multiplicatively
// with width; queries that need wider bags fail with a *WidthError instead of
// silently exploding.
const MaxDecompWidth = 4

// searchBudget bounds the canonical partition search per width so that
// pathological shapes fail deterministically instead of hanging. Bell(9) =
// 21147, so every partition of a query with up to nine atoms is examined
// before the budget can bite.
const searchBudget = 1 << 16

// WidthError reports that no acyclic bag cover of width ≤ MaxWidth exists for
// the query (or that the canonical search budget was exhausted first). It is
// the typed decomposition-failure surface: the public layer converts it into
// an ArgError so the wire maps it to a 400 naming the query shape.
type WidthError struct {
	Shape    string // rendering of the query, e.g. R(x,y),S(y,z),T(z,x)
	Atoms    int
	MaxWidth int
}

func (e *WidthError) Error() string {
	return fmt.Sprintf("qjoin: no hypertree decomposition of width ≤ %d for cyclic query %s (%d atoms)",
		e.MaxWidth, e.Shape, e.Atoms)
}

// Stats describes one decomposition and its most recent materialization. It
// is comparable (no slice fields) so it can ride inside RunStats without
// breaking == on the stats struct.
type Stats struct {
	// Width is the decomposition width: the largest number of atoms any
	// single bag covers.
	Width int
	// Bags is the number of bags (atoms of the rewritten acyclic query).
	Bags int
	// MaxBagRows and TotalBagRows size the materialized bag relations.
	MaxBagRows   int
	TotalBagRows int
	// MaterializeNanos is the wall time spent joining bags. It is the one
	// non-deterministic field; determinism tests zero it before comparing.
	MaterializeNanos int64
	// RematerializedBags counts bags rebuilt by the last incremental
	// update (equal to Bags on a fresh materialization).
	RematerializedBags int
	// Redecomposed is set when an update touched every bag and the
	// incremental path degenerated into a full re-materialization.
	Redecomposed bool
}

// Decomposition is a generalized hypertree decomposition of a cyclic query:
// a partition of the atom list into bags whose join — one relation per bag,
// over the bag's full variable set — forms an acyclic query with the same
// answers. It is a pure function of the query shape (see Decompose).
type Decomposition struct {
	// Width is the largest bag size, in atoms.
	Width int
	// Bags holds, per bag, the covered atom indexes in join order: the
	// first atom is the bag's smallest index, each later atom shares a
	// variable with the atoms before it when possible.
	Bags [][]int
	// BagVars holds, per bag, the distinct variables in first-appearance
	// order over the join order. Each bag carries all of its variables.
	BagVars [][]query.Var
	// BagNames holds the deterministic bag relation names.
	BagNames []string

	bagQuery *query.Query
}

// Query returns the rewritten acyclic query: one atom per bag, named
// BagNames[i] over BagVars[i]. Its variable set equals the source query's.
func (d *Decomposition) Query() *query.Query { return d.bagQuery }

// Decompose computes a hypertree decomposition of q, trying widths 2, 3, ...
// up to maxWidth and accepting the first canonical partition whose bag query
// admits a join tree. q must be in normal form (query.Normalize): bags are
// joined from their atoms' relations as they are. The result depends only on
// the query shape, so repeated calls — including on a different process
// restoring a snapshot — produce the identical plan. It fails with *WidthError
// when no acyclic cover within maxWidth exists.
func Decompose(q *query.Query, maxWidth int) (*Decomposition, error) {
	if !q.IsNormalized() {
		return nil, fmt.Errorf("decomp: query %s has a self-join or a repeated variable; rewrite it with query.Normalize first", q)
	}
	n := len(q.Atoms)
	for w := 2; w <= maxWidth && w <= n; w++ {
		if bags := searchWidth(q, w); bags != nil {
			d := assemble(q, bags)
			// Belt and braces: the engine rebuilds this join tree, so
			// refuse any partition it would not accept.
			if _, err := jointree.Build(d.Query()); err == nil {
				return d, nil
			}
		}
	}
	return nil, &WidthError{Shape: q.String(), Atoms: n, MaxWidth: maxWidth}
}

// searchWidth enumerates the canonical set-partitions of the atom indexes
// whose largest block has exactly w atoms — restricted-growth strings in
// lexicographic order, so heavily merged partitions come first — and returns
// the first one whose bag hypergraph passes GYO ear removal, or nil.
func searchWidth(q *query.Query, w int) [][]int {
	n := len(q.Atoms)
	atomMask, ok := atomMasks(q)
	if !ok {
		// More than 64 distinct variables; bag acyclicity falls back to
		// the join-tree builder itself.
		atomMask = nil
	}
	assign := make([]int, n)
	sizes := make([]int, 0, n)
	budget := searchBudget
	var found [][]int
	var rec func(i, maxSize int) bool
	rec = func(i, maxSize int) bool {
		if budget <= 0 {
			return false
		}
		budget--
		if i == n {
			if maxSize != w {
				// Covered by a smaller width that already failed.
				return false
			}
			bags := blocksOf(assign, len(sizes))
			if acyclicBags(q, bags, atomMask) {
				found = bags
				return true
			}
			return false
		}
		for b := 0; b < len(sizes); b++ {
			if sizes[b] >= w {
				continue
			}
			assign[i] = b
			sizes[b]++
			s := sizes[b]
			ok := rec(i+1, max(maxSize, s))
			sizes[b]--
			if ok {
				return true
			}
		}
		assign[i] = len(sizes)
		sizes = append(sizes, 1)
		ok := rec(i+1, max(maxSize, 1))
		sizes = sizes[:len(sizes)-1]
		return ok
	}
	if !rec(0, 0) {
		return nil
	}
	return found
}

// blocksOf converts a restricted-growth assignment into bag atom lists,
// ordered by each block's first member (ascending within blocks, too).
func blocksOf(assign []int, blocks int) [][]int {
	bags := make([][]int, blocks)
	for i, b := range assign {
		bags[b] = append(bags[b], i)
	}
	return bags
}

// atomMasks maps each atom to a bitmask over the query's distinct variables.
// It fails (ok = false) when the query has more than 64 variables.
func atomMasks(q *query.Query) ([]uint64, bool) {
	idx := q.VarIndex()
	if len(idx) > 64 {
		return nil, false
	}
	masks := make([]uint64, len(q.Atoms))
	for i, a := range q.Atoms {
		for _, v := range a.Vars {
			masks[i] |= 1 << idx[v]
		}
	}
	return masks, true
}

// acyclicBags reports whether the bag hypergraph induced by the partition is
// α-acyclic. With atom masks available it runs GYO on bitmasks (the hot path
// of the search); otherwise it builds the bag query and asks the join-tree
// builder, which implements the identical reduction.
func acyclicBags(q *query.Query, bags [][]int, atomMask []uint64) bool {
	if atomMask == nil {
		_, err := jointree.Build(bagQueryFor(q, bags))
		return err == nil
	}
	masks := make([]uint64, len(bags))
	for b, bag := range bags {
		for _, ai := range bag {
			masks[b] |= atomMask[ai]
		}
	}
	return gyoAcyclic(masks)
}

// gyoAcyclic runs GYO ear removal over variable bitmasks: repeatedly drop
// variables that appear in a single remaining edge, then drop edges whose
// remaining variables are covered by another edge. Acyclic iff it reduces to
// one edge. This mirrors hypergraph.JoinTree, including its acceptance of
// disconnected hypergraphs (an isolated component reduces to the empty mask,
// which every edge covers).
func gyoAcyclic(masks []uint64) bool {
	n := len(masks)
	if n <= 1 {
		return true
	}
	red := append([]uint64(nil), masks...)
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	count := n
	for {
		var once, twice uint64
		for i, m := range red {
			if active[i] {
				twice |= once & m
				once |= m
			}
		}
		changed := false
		for i, m := range red {
			if active[i] && m&twice != m {
				red[i] = m & twice
				changed = true
			}
		}
		for e := 0; e < n && count > 1; e++ {
			if !active[e] {
				continue
			}
			for f := 0; f < n; f++ {
				if f == e || !active[f] {
					continue
				}
				if red[e]&^red[f] == 0 {
					active[e] = false
					count--
					changed = true
					break
				}
			}
		}
		if count == 1 {
			return true
		}
		if !changed {
			return false
		}
	}
}

// bagQueryFor builds the rewritten query: one atom per bag over the bag's
// full variable set, in the bag's join order.
func bagQueryFor(q *query.Query, bags [][]int) *query.Query {
	atoms := make([]query.Atom, len(bags))
	for i, bag := range bags {
		order := joinOrder(q, bag)
		atoms[i] = query.Atom{Rel: bagName(i), Vars: bagVars(q, order)}
	}
	return query.New(atoms...)
}

// bagName returns the deterministic relation name of bag i. The ⋈ prefix
// keeps bag names visually distinct from source relations; the bag database
// contains only bags, so clashes with source names cannot arise.
func bagName(i int) string { return "⋈bag" + strconv.Itoa(i) }

// joinOrder orders a bag's atoms for materialization: start from the lowest
// atom index, then repeatedly take the lowest-index remaining atom that
// shares a variable with what has been joined so far (falling back to the
// lowest remaining atom when the bag is internally disconnected).
func joinOrder(q *query.Query, bag []int) []int {
	order := make([]int, 0, len(bag))
	used := make([]bool, len(bag))
	have := make(map[query.Var]bool)
	take := func(j int) {
		used[j] = true
		order = append(order, bag[j])
		for _, v := range q.Atoms[bag[j]].Vars {
			have[v] = true
		}
	}
	take(0)
	for len(order) < len(bag) {
		pick := -1
		for j, ai := range bag {
			if used[j] {
				continue
			}
			for _, v := range q.Atoms[ai].Vars {
				if have[v] {
					pick = j
					break
				}
			}
			if pick >= 0 {
				break
			}
		}
		if pick < 0 {
			for j := range bag {
				if !used[j] {
					pick = j
					break
				}
			}
		}
		take(pick)
	}
	return order
}

// bagVars returns the distinct variables of the atoms in order, by first
// appearance — the column order of the materialized bag relation.
func bagVars(q *query.Query, order []int) []query.Var {
	seen := make(map[query.Var]bool)
	var out []query.Var
	for _, ai := range order {
		for _, v := range q.Atoms[ai].Vars {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// assemble freezes an accepted partition into a Decomposition.
func assemble(q *query.Query, bags [][]int) *Decomposition {
	d := &Decomposition{
		Bags:     make([][]int, len(bags)),
		BagVars:  make([][]query.Var, len(bags)),
		BagNames: make([]string, len(bags)),
	}
	atoms := make([]query.Atom, len(bags))
	for i, bag := range bags {
		order := joinOrder(q, bag)
		d.Bags[i] = order
		d.BagVars[i] = bagVars(q, order)
		d.BagNames[i] = bagName(i)
		if len(bag) > d.Width {
			d.Width = len(bag)
		}
		atoms[i] = query.Atom{Rel: d.BagNames[i], Vars: d.BagVars[i]}
	}
	d.bagQuery = query.New(atoms...)
	return d
}
