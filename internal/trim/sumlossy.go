package trim

import (
	"fmt"

	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/parallel"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/sketch"
)

// LossyOpts tunes the ε-lossy SUM trimming.
type LossyOpts struct {
	// PaperBudget uses the paper's conservative per-sketch error
	// ε' = ε/4^h (proof of Lemma 6.1, h = binary-tree height). The default
	// divides ε by the number of sketch applications instead, which the
	// paper's own composition lemmas justify: union takes the max of errors,
	// re-sketching and pairwise summation add them, so the total loss is at
	// most the sum of the per-application ε' along the tree.
	PaperBudget bool
	// DisableAtomicity drops the same-value bucket adjustment (ablation
	// only). Without it a tuple's mass can straddle two buckets and the
	// output loses the injection property — answers get duplicated, exactly
	// the failure mode Section 6 describes.
	DisableAtomicity bool
}

// LossyStats reports size information about one lossy trim.
type LossyStats struct {
	// EpsPrime is the per-sketch error actually used.
	EpsPrime float64
	// OutputTuples is the total tuple count of the produced database.
	OutputTuples int
	// MaxRelation is the largest produced relation.
	MaxRelation int
	// Buckets is the total number of sketch buckets created.
	Buckets int
}

// copyRec is one tuple copy of Algorithm 4: a database row plus its
// (σ_s, σ_m) message and the bucket-identifier column values.
type copyRec struct {
	rowIdx  int
	sum     int64   // σ_s, negated for Greater so both directions are "<"
	mult    float64 // σ_m
	vChild  []relation.Value
	vParent relation.Value
}

// SumLossy is Algorithm 4: an ε-lossy trimming of Σ w_x(x) ≺ λ (or ≻ λ) for
// an arbitrary acyclic join query (Lemma 6.1). The produced instance's
// answers inject into the satisfying answers (drop helper variables), every
// produced answer truly satisfies the inequality (sketch representatives
// round toward the kept side), and at least a (1-ε) fraction of satisfying
// answers is retained.
func SumLossy(inst Instance, f *ranking.Func, lambda int64, dir Dir, eps float64, opts LossyOpts) (Instance, *LossyStats, error) {
	if f.Agg != ranking.Sum {
		return Instance{}, nil, fmt.Errorf("trim: SumLossy requires SUM, got %s", f.Agg)
	}
	if eps <= 0 || eps >= 1 {
		return Instance{}, nil, fmt.Errorf("trim: ε must be in (0,1), got %v", eps)
	}
	if err := requireNormalized(inst.Q); err != nil {
		return Instance{}, nil, err
	}
	workers := inst.workers()
	// Tiny instances take the sequential path outright: the per-group
	// sketch dispatch below would cost more than the work it distributes.
	if inst.DB.Size() < parallel.SeqThreshold {
		workers = 1
	}
	tree, err := jointree.Build(inst.Q)
	if err != nil {
		return Instance{}, nil, err
	}
	tree, q, db := jointree.Binarize(tree, inst.Q, inst.DB)
	e, err := jointree.NewExecWorkers(q, db, tree, workers)
	if err != nil {
		return Instance{}, nil, err
	}
	e.FullReduceWorkers(workers)
	mu, err := f.AssignVars(q)
	if err != nil {
		return Instance{}, nil, err
	}

	sign := int64(1)
	lam := lambda
	if dir == Greater {
		sign = -1
		lam = -lambda
	}

	edges := len(tree.Nodes) - 1
	epsPrime := eps
	if edges > 0 {
		if opts.PaperBudget {
			h := tree.Height()
			denom := 1.0
			for i := 0; i < h; i++ {
				denom *= 4
			}
			epsPrime = eps / denom
		} else {
			epsPrime = eps / float64(edges)
		}
	}
	stats := &LossyStats{EpsPrime: epsPrime}

	copies := make([][]copyRec, len(tree.Nodes))
	for _, id := range tree.BottomUp {
		n := tree.Nodes[id]
		rel := e.Rels[id]
		relCols := rel.Cols()
		tw := ranking.NewTupleWeigher(f, mu, n.Atom, n.Vars)
		cur := make([]copyRec, rel.Len())
		parallel.For(workers, rel.Len(), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				cur[i] = copyRec{rowIdx: i, sum: sign * tw.ScalarSumAt(relCols, i), mult: 1}
			}
		})
		for _, ch := range n.Children {
			// Bucket the child's copies per join group, indexed by the dense
			// group ids of the child's index (no per-key hashing: RowGid is
			// materialized by the build).
			childCopies := copies[ch]
			rowGid := e.Groups[ch].RowGid
			ng := e.Groups[ch].NumGroups()
			groupItems := make([][]int, ng) // gid -> indexes into childCopies
			var gidOrder []int              // first-appearance order: bucket ids must not depend on visit order
			for ci := range childCopies {
				gid := int(rowGid[childCopies[ci].rowIdx])
				if groupItems[gid] == nil {
					gidOrder = append(gidOrder, gid)
				}
				groupItems[gid] = append(groupItems[gid], ci)
			}
			// Join groups sketch independently, so the builds run on the
			// worker pool; bucket-id bases are then assigned by a prefix
			// sum in gidOrder, reproducing the sequential allocation.
			sketches := make([]*sketch.Sketch, len(gidOrder))
			parallel.Do(workers, len(gidOrder), func(k int) {
				idxs := groupItems[gidOrder[k]]
				items := make([]sketch.Item, len(idxs))
				for j, ci := range idxs {
					items[j] = sketch.Item{Sum: childCopies[ci].sum, Mult: childCopies[ci].mult}
				}
				sketches[k] = sketch.Build(items, epsPrime, opts.DisableAtomicity)
			})
			type bucketRef struct {
				id   relation.Value
				rep  int64
				mult float64
			}
			groupBuckets := make([][]bucketRef, ng)
			nextBucket := relation.Value(1)
			for k, gid := range gidOrder {
				sk := sketches[k]
				stats.Buckets += len(sk.Buckets)
				refs := make([]bucketRef, len(sk.Buckets))
				base := nextBucket
				for bi, b := range sk.Buckets {
					refs[bi] = bucketRef{id: base + relation.Value(bi), rep: b.Rep, mult: b.Mult}
				}
				nextBucket += relation.Value(len(sk.Buckets))
				groupBuckets[gid] = refs
			}
			parallel.Do(workers, len(gidOrder), func(k int) {
				idxs := groupItems[gidOrder[k]]
				refs := groupBuckets[gidOrder[k]]
				sk := sketches[k]
				for j, ci := range idxs {
					childCopies[ci].vParent = refs[sk.ItemBucket[j]].id
				}
			})
			// Expand this node's copies: one per (copy, matching bucket).
			// Chunks concatenate in chunk order — the sequential order.
			parts := parallel.MapRanges(workers, len(cur), func(lo, hi int) []copyRec {
				var expanded []copyRec
				for x := lo; x < hi; x++ {
					c := cur[x]
					gid, ok := e.ParentGroup(ch, c.rowIdx)
					if !ok {
						continue // dead after reduction; defensive
					}
					for _, b := range groupBuckets[gid] {
						nc := c
						nc.sum = c.sum + b.rep
						nc.mult = c.mult * b.mult
						nc.vChild = append(append([]relation.Value(nil), c.vChild...), b.id)
						expanded = append(expanded, nc)
					}
				}
				return expanded
			})
			total := 0
			for _, p := range parts {
				total += len(p)
			}
			expanded := make([]copyRec, 0, total)
			for _, p := range parts {
				expanded = append(expanded, p...)
			}
			cur = expanded
		}
		copies[id] = cur
	}

	// Root filter: keep only copies whose (rounded) sum satisfies the
	// inequality. Rounding is toward the kept side, so every surviving
	// answer truly satisfies it.
	root := tree.Root
	kept := copies[root][:0]
	for _, c := range copies[root] {
		if c.sum < lam {
			kept = append(kept, c)
		}
	}
	copies[root] = kept

	// Emit the output query and database. Every node becomes a fresh atom
	// over its variables plus one helper variable per tree edge.
	q2 := &query.Query{}
	db2 := relation.NewDatabase()
	edgeVar := make([]query.Var, len(tree.Nodes)) // child id -> var shared with parent
	// Edge variables must not collide with the input's variables — in
	// particular with helper variables of an earlier trim (Algorithm 1
	// composes two lossy trims per partition).
	existing := make(map[query.Var]bool)
	for _, v := range q.Vars() {
		existing[v] = true
	}
	nameSeq := 0
	nextEdgeVar := func() query.Var {
		for {
			cand := query.Var(fmt.Sprintf("%sv%d", helperPrefix, nameSeq))
			nameSeq++
			if !existing[cand] {
				existing[cand] = true
				return cand
			}
		}
	}
	for _, id := range tree.TopDown {
		if tree.Nodes[id].Parent >= 0 {
			edgeVar[id] = nextEdgeVar()
		}
	}
	for _, id := range tree.TopDown {
		n := tree.Nodes[id]
		vars := append([]query.Var(nil), n.Vars...)
		for _, ch := range n.Children {
			vars = append(vars, edgeVar[ch])
		}
		if n.Parent >= 0 {
			vars = append(vars, edgeVar[id])
		}
		relName := fmt.Sprintf("%s%st%d", q.Atoms[n.Atom].Rel, helperPrefix, id)
		src := e.Rels[id]
		nodeCopies := copies[id]
		hasParent := n.Parent >= 0
		width := len(vars)
		srcArity := src.Arity()
		parts := parallel.MapRanges(workers, len(nodeCopies), func(lo, hi int) *relation.Relation {
			out := relation.NewWithCapacity(relName, width, hi-lo)
			row := make([]relation.Value, width)
			for _, c := range nodeCopies[lo:hi] {
				src.CopyRow(row, c.rowIdx)
				k := srcArity
				for _, v := range c.vChild {
					row[k] = v
					k++
				}
				if hasParent {
					row[k] = c.vParent
				}
				out.AppendRow(row)
			}
			return out
		})
		// Every copy of a node row carries a distinct bucket-id combination.
		out := relation.Concat(relName, width, true, parts)
		db2.Add(out)
		q2.Atoms = append(q2.Atoms, query.Atom{Rel: relName, Vars: vars})
		stats.OutputTuples += out.Len()
		if out.Len() > stats.MaxRelation {
			stats.MaxRelation = out.Len()
		}
	}
	return Instance{Q: q2, DB: db2, Workers: inst.Workers}, stats, nil
}
