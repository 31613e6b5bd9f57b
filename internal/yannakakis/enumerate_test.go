package yannakakis

import (
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/testutil"
	"github.com/quantilejoins/qjoin/internal/workload"
)

// plainWalk is the reference enumeration: the natural recursion over the
// tree's pre-order, reading every join group as it stands and knowing nothing
// of counts — a dangling tuple is a dead end it backs out of.
func plainWalk(e *jointree.Exec) [][]relation.Value {
	varIdx := e.Q.VarIndex()
	asn := make([]relation.Value, len(e.Q.Vars()))
	var pre []int
	var push func(id int)
	push = func(id int) {
		pre = append(pre, id)
		for _, ch := range e.T.Nodes[id].Children {
			push(ch)
		}
	}
	push(e.T.Root)
	cur := make([]int, len(e.T.Nodes))
	var out [][]relation.Value
	var rec func(d int)
	rec = func(d int) {
		if d == len(pre) {
			out = append(out, append([]relation.Value(nil), asn...))
			return
		}
		n := e.T.Nodes[pre[d]]
		var cands []int32
		if n.Parent < 0 {
			for i := 0; i < e.Rels[n.ID].Len(); i++ {
				cands = append(cands, int32(i))
			}
		} else if gid, ok := e.ParentGroup(n.ID, cur[n.Parent]); ok {
			cands = e.Groups[n.ID].Tuples[gid]
		}
		for _, ti := range cands {
			for j, v := range n.Vars {
				asn[varIdx[v]] = e.Rels[n.ID].Get(int(ti), j)
			}
			cur[n.ID] = int(ti)
			rec(d + 1)
		}
	}
	rec(0)
	return out
}

func guided(e *jointree.Exec, c *Counts) [][]relation.Value {
	var out [][]relation.Value
	Enumerate(e, c, func(asn []relation.Value) bool {
		out = append(out, append([]relation.Value(nil), asn...))
		return true
	})
	return out
}

// checkGuided holds the count-guided walk of (e, c) to its three references:
// the plain walk of the same tree and the plain walk of its full reduction,
// answer for answer in the same order, and brute force as a set; then the
// positional walk to it.
func checkGuided(t *testing.T, name string, e *jointree.Exec, c *Counts) int {
	t.Helper()
	got := guided(e, c)
	if total, _ := c.Total.Uint64(); uint64(len(got)) != total {
		t.Fatalf("%s: walk emitted %d answers, the counts say %d", name, len(got), total)
	}
	if want := plainWalk(e); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: guided walk differs from the plain walk (%d vs %d answers)", name, len(got), len(want))
	}
	if want := plainWalk(testutil.FullReduction(e)); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: guided walk differs from the walk over the full reduction (%d vs %d answers)", name, len(got), len(want))
	}
	if want := testutil.BruteForce(e.Q, e.DB); !testutil.SameAnswerSet(got, want) {
		t.Fatalf("%s: guided walk has %d answers, brute force %d", name, len(got), len(want))
	}
	checkAnswersAt(t, name, e, c, got)
	return len(got)
}

// checkAnswersAt holds the positional walk of (e, c) to the enumeration it
// indexes: every position, one call for all of them; each position alone
// (nothing before it to resume from); and random ascending lists with
// repeats, which skip and resume at every depth.
func checkAnswersAt(t *testing.T, name string, e *jointree.Exec, c *Counts, all [][]relation.Value) {
	t.Helper()
	n := len(all)
	ask := func(what string, ords []int) {
		t.Helper()
		calls := 0
		AnswersAt(e, c, ords, func(i int, asn []relation.Value) {
			if i != calls {
				t.Fatalf("%s: %s: call %d reports position %d of the list", name, what, calls, i)
			}
			if !reflect.DeepEqual(asn, all[ords[i]]) {
				t.Fatalf("%s: %s: answer at %d is %v, Enumerate's is %v", name, what, ords[i], asn, all[ords[i]])
			}
			calls++
		})
		if calls != len(ords) {
			t.Fatalf("%s: %s: %d of %d positions answered", name, what, calls, len(ords))
		}
	}
	ask("no position", nil)
	every := make([]int, n)
	for i := range every {
		every[i] = i
		if n <= 64 || i%(n/64) == 0 || i == n-1 {
			ask(fmt.Sprintf("position %d alone", i), []int{i})
		}
	}
	ask("every position", every)
	if n == 0 {
		return
	}
	rng := rand.New(rand.NewSource(int64(n)))
	for trial := 0; trial < 8; trial++ {
		ords := make([]int, 1+rng.Intn(2*n))
		for i := range ords {
			ords[i] = rng.Intn(n)
			if i > 0 && rng.Intn(4) == 0 {
				ords[i] = ords[i-1]
			}
		}
		slices.Sort(ords)
		ask(fmt.Sprintf("random list %d", trial), ords)
	}
}

// corpusExec compiles a corpus instance the way the engine does: self-joins
// rewritten away, relations deduplicated.
func corpusExec(t *testing.T, inst testutil.FuzzInstance) *jointree.Exec {
	t.Helper()
	q, raw := query.EliminateSelfJoins(inst.Q, inst.DB)
	db := relation.NewDatabase()
	for _, name := range raw.Names() {
		db.Add(raw.Get(name).Deduped())
	}
	return execOf(t, q, db)
}

func TestEnumerateGuidedMatchesReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, inst := range testutil.FuzzCorpus(rng) {
		e := corpusExec(t, inst)
		checkGuided(t, inst.Name, e, Count(e))
	}
	for trial := 0; trial < 40; trial++ {
		q, db := testutil.RandomTreeInstance(rng, 2+rng.Intn(4), 1+rng.Intn(12), 4)
		e := execOf(t, q, db)
		checkGuided(t, fmt.Sprintf("tree %d (%s)", trial, q), e, Count(e))
	}
}

// Dangling that propagates across levels (jointree's TestFullReduceDeepDangling
// instance): C has no partner for z=200, so B's (20,200) and with it A's
// (2,20) carry no answer although each has a join partner.
func TestEnumerateGuidedDeepDangling(t *testing.T) {
	q := query.New(
		query.Atom{Rel: "A", Vars: []query.Var{"x", "y"}},
		query.Atom{Rel: "B", Vars: []query.Var{"y", "z"}},
		query.Atom{Rel: "C", Vars: []query.Var{"z", "w"}},
	)
	db := relation.NewDatabase()
	db.Add(relation.FromRows("A", 2, [][]relation.Value{{1, 10}, {2, 20}}))
	db.Add(relation.FromRows("B", 2, [][]relation.Value{{10, 100}, {20, 200}}))
	db.Add(relation.FromRows("C", 2, [][]relation.Value{{100, 7}}))
	// Every rooting of the chain: the dead tuples sit above, at and below the
	// node whose groups are read through live lists.
	for root := 0; root < 3; root++ {
		parent := []int{-1, 0, 1}
		if root == 1 {
			parent = []int{1, -1, 1}
		} else if root == 2 {
			parent = []int{1, 2, -1}
		}
		e, err := jointree.NewExec(q, db, jointree.FromParent(q, parent, root))
		if err != nil {
			t.Fatal(err)
		}
		if n := checkGuided(t, fmt.Sprintf("root %d", root), e, Count(e)); n != 1 {
			t.Fatalf("root %d: %d answers, want 1", root, n)
		}
	}
}

// Counts kept current by UpdateCounts over chained deltas guide the walk of
// the derived tree exactly as a fresh count would.
func TestEnumerateGuidedByMaintainedCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	changed := 0
	for _, inst := range testutil.FuzzCorpus(rng) {
		e := corpusExec(t, inst)
		counts := Count(e)
		for gen := 0; gen < 4; gen++ {
			deltas := make(map[string]jointree.RelDelta)
			for _, name := range e.DB.Names() {
				if d := relDeltaFor(rng, e.DB.Get(name), rng.Intn(6), rng.Intn(6), 30); !d.Empty() {
					deltas[name] = d
				}
			}
			derived, changes, err := e.ApplyDelta(deltas)
			if err != nil {
				t.Fatal(err)
			}
			changed += len(changes)
			e, counts = derived, UpdateCounts(counts, derived, changes)
			checkGuided(t, fmt.Sprintf("%s gen %d", inst.Name, gen), e, counts)
		}
	}
	if changed == 0 {
		t.Fatal("no delta changed a node: nothing was maintained")
	}
}

// Row-subset instances counted into a reused scratch, as the pivot loop's
// descended partitions are; the derived indexes keep groups that lost every
// tuple.
func TestEnumerateGuidedOnSubsets(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	var scratch Scratch
	for _, inst := range testutil.FuzzCorpus(rng) {
		e := corpusExec(t, inst)
		for _, keepOneIn := range []int{1, 2, 5} {
			// Node relations are plain projections of the deduplicated source
			// relations here, so one mask filters both.
			keep := make([][]bool, len(e.T.Nodes))
			db := relation.NewDatabase()
			for _, n := range e.T.Nodes {
				mask := make([]bool, e.Rels[n.ID].Len())
				for i := range mask {
					mask[i] = rng.Intn(keepOneIn) != 0 || keepOneIn == 1
				}
				keep[n.ID] = mask
				src := e.DB.Get(e.Q.Atoms[n.Atom].Rel)
				db.Add(src.Filter(func(i int) bool { return mask[i] }))
			}
			sub := e.DeriveSubsetIn(e.Q.Clone(), db, keep, nil)
			checkGuided(t, fmt.Sprintf("%s keep≈1−1/%d", inst.Name, keepOneIn), sub, CountScratch(sub, &scratch))
		}
	}
}

// The walk's work bound. H live root tuples share one join group of the
// internal node, which holds one live tuple and M dead ones (no leaf partner):
// scanning the group as it stands would cost H·M, the live lists make it
// |D| + ℓ·|Q(D)|.
func TestEnumerateWorkBound(t *testing.T) {
	const H, M = 500, 500
	q := query.New(
		query.Atom{Rel: "P", Vars: []query.Var{"a", "g"}},
		query.Atom{Rel: "N", Vars: []query.Var{"g", "b"}},
		query.Atom{Rel: "L", Vars: []query.Var{"b", "c"}},
	)
	p, n := relation.New("P", 2), relation.New("N", 2)
	for i := 0; i < H; i++ {
		p.Append(relation.Value(i), 1)
	}
	for i := 0; i < M/2; i++ {
		n.Append(1, relation.Value(1000+i))
	}
	n.Append(1, 7) // the live one, in the middle of its group
	for i := M / 2; i < M; i++ {
		n.Append(1, relation.Value(1000+i))
	}
	db := relation.NewDatabase()
	db.Add(p.MarkDistinct())
	db.Add(n.MarkDistinct())
	db.Add(relation.FromRows("L", 2, [][]relation.Value{{7, 70}}).MarkDistinct())
	e, err := jointree.NewExec(q, db, jointree.FromParent(q, []int{-1, 0, 1}, 0))
	if err != nil {
		t.Fatal(err)
	}
	answers := 0
	steps := EnumerateSteps(e, Count(e), func(asn []relation.Value) bool {
		if asn[1] != 1 || asn[2] != 7 || asn[3] != 70 {
			t.Fatalf("answer %v", asn)
		}
		answers++
		return true
	})
	if answers != H {
		t.Fatalf("%d answers, want %d", answers, H)
	}
	if bound := db.Size() + len(q.Atoms)*answers; steps > bound {
		t.Fatalf("walk took %d steps; |D| + ℓ·|Q(D)| = %d (scanning the group per parent: %d)", steps, bound, H*M)
	}
	// The positional walk on the same instance: m positions cost |D| + ℓ·m,
	// not the ℓ·|Q(D)| of walking up to the last of them, nor M per position.
	ords := []int{3, 3, 77, 200, 201, H - 1}
	asked := 0
	steps = AnswersAt(e, Count(e), ords, func(i int, asn []relation.Value) {
		if asn[0] != relation.Value(ords[i]) || asn[2] != 7 {
			t.Fatalf("answer at %d: %v", ords[i], asn)
		}
		asked++
	})
	if asked != len(ords) {
		t.Fatalf("%d of %d positions answered", asked, len(ords))
	}
	if bound := db.Size() + len(q.Atoms)*len(ords); steps > bound {
		t.Fatalf("positional walk took %d steps for %d positions; |D| + ℓ·m = %d", steps, len(ords), bound)
	}
}

// What the positional walk steps over below the root is answers it skips: in
// a chain whose one root tuple joins K middle tuples of J leaves each, every
// position in one ascending list costs |D| + ℓ·m + K steps at the worst — the
// middle group is scanned once, not once per position — and a list that asks
// only for the last answer steps over the K−1 middle tuples before it.
func TestAnswersAtResumesItsScans(t *testing.T) {
	const K, J = 300, 40
	q := query.New(
		query.Atom{Rel: "P", Vars: []query.Var{"a", "g"}},
		query.Atom{Rel: "N", Vars: []query.Var{"g", "b"}},
		query.Atom{Rel: "L", Vars: []query.Var{"b", "c"}},
	)
	n, l := relation.New("N", 2), relation.New("L", 2)
	for b := 0; b < K; b++ {
		n.Append(1, relation.Value(b))
		for c := 0; c < J; c++ {
			l.Append(relation.Value(b), relation.Value(c))
		}
	}
	db := relation.NewDatabase()
	db.Add(relation.FromRows("P", 2, [][]relation.Value{{0, 1}}).MarkDistinct())
	db.Add(n.MarkDistinct())
	db.Add(l.MarkDistinct())
	e, err := jointree.NewExec(q, db, jointree.FromParent(q, []int{-1, 0, 1}, 0))
	if err != nil {
		t.Fatal(err)
	}
	c := Count(e)
	every := make([]int, K*J)
	for i := range every {
		every[i] = i
	}
	for _, ords := range [][]int{every, {K*J - 1}} {
		steps := AnswersAt(e, c, ords, func(i int, asn []relation.Value) {
			if want := []relation.Value{0, 1, relation.Value(ords[i] / J), relation.Value(ords[i] % J)}; !reflect.DeepEqual(asn, want) {
				t.Fatalf("answer at %d: %v, want %v", ords[i], asn, want)
			}
		})
		if bound := db.Size() + len(q.Atoms)*len(ords) + K; steps > bound {
			t.Fatalf("%d positions took %d steps; |D| + ℓ·m + K = %d", len(ords), steps, bound)
		}
	}
}

// Sparse positions on a star, whose atoms GYO chains on the shared column, so
// that every group below the root is re-entered each time the tuple above it
// changes: m = 416 sorted random positions (a sampling round at ε = 0.05) cost
// at most |D| + 2·ℓ·m·⌈log₂|D|⌉ steps — a rescan of the groups per position
// took ten times that — and decode to the answers refAt gives. On a 3-path
// the middle node's groups are re-entered too, on a 6-atom star with more than
// 2⁶⁴ answers the positions reach past any int, and a lone atom is its
// relation.
func TestAnswersAtJumpsOnSparsePositions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	star4, db4 := workload.Star(rng, 4, 4096, 8, 1<<30)
	star6, db6 := workload.Star(rng, 6, 2048, 1, 1<<30)
	path3, dbp := workload.Path(rng, 3, 4096, 64)
	for _, tc := range []struct {
		name string
		q    *query.Query
		db   *relation.Database
	}{{"4-atom star", star4, db4}, {"6-atom star", star6, db6}, {"3-path", path3, dbp}} {
		e := execOf(t, tc.q, tc.db)
		c := Count(e)
		if tc.name == "6-atom star" && c.Total.Hi == 0 {
			t.Fatalf("%s: %s answers fit 64 bits", tc.name, c.Total)
		}
		ords := make([]counting.Count, 416)
		for i := range ords {
			ords[i], _ = counting.FromBig(new(big.Int).Rand(rng, c.Total.Big()))
		}
		slices.SortFunc(ords, counting.Count.Cmp)
		asked := 0
		steps := AnswersAt(e, c, ords, func(i int, asn []relation.Value) {
			want := assignmentLayout(e)
			if refAt(e, c, &want, e.T.Root, nil, ords[i]); !slices.Equal(asn, want.asn) {
				t.Fatalf("%s: answer at %s is %v, the reference's %v", tc.name, ords[i], asn, want.asn)
			}
			asked++
		})
		if asked != len(ords) {
			t.Fatalf("%s: %d of %d positions answered", tc.name, asked, len(ords))
		}
		d := tc.db.Size()
		if bound := d + 2*len(tc.q.Atoms)*len(ords)*bits.Len(uint(d-1)); steps > bound {
			t.Fatalf("%s: %d sparse positions took %d steps; |D| + 2·ℓ·m·⌈log₂|D|⌉ = %d", tc.name, len(ords), steps, bound)
		}
	}
	q := query.New(query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}})
	db := relation.NewDatabase()
	db.Add(relation.FromRows("R", 2, [][]relation.Value{{1, 2}, {3, 4}, {5, 6}}).MarkDistinct())
	e := execOf(t, q, db)
	checkGuided(t, "lone atom", e, Count(e))
}

// refAt binds into l the answer at position o of the partial answers under
// node's candidates rows (nil: every row), in Enumerate's order, the slow
// way: the tuple by a scan of the counts, then what remains split over its
// children's groups as a mixed-radix number, child 0 most significant.
func refAt(e *jointree.Exec, c *Counts, l *layout, node int, rows []int32, o counting.Count) {
	cnt, ti := c.Tuple[node], 0
	for p := 0; ; p++ {
		if ti = rowAt(rows, p); o.Less(cnt[ti]) {
			break
		}
		o = o.Sub(cnt[ti])
	}
	l.set(node, ti)
	children := e.T.Nodes[node].Children
	for k := len(children) - 1; k >= 0; k-- {
		ch := children[k]
		gid := e.ParentGids(ch)[ti]
		q, r := o.DivMod(c.Group[ch][gid])
		refAt(e, c, l, ch, e.Groups[ch].Tuples[gid], r)
		o = q
	}
}

// BenchmarkAnswersAt decodes m sorted uniform positions — a sampling round at
// ε = 0.05 (416) and a whole call's draws at ε = 0.05, δ = 0.05 (10 400) — in
// one call: on a dense 2-path (the tail's shape) and on two stars, whose
// atoms GYO chains on the shared column, so every group below the root is
// re-entered whenever the tuple above it changes.
func BenchmarkAnswersAt(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	path2, dbp := workload.Path(rng, 2, 1<<14, 1<<11)
	star4, db4 := workload.Star(rng, 4, 4096, 8, 1<<30)
	star3, db3 := workload.Star(rng, 3, 8192, 64, 1<<30)
	for _, in := range []struct {
		name string
		q    *query.Query
		db   *relation.Database
	}{{"path2", path2, dbp}, {"star4", star4, db4}, {"star3", star3, db3}} {
		e := execOf(b, in.q, in.db)
		c := Count(e)
		for _, m := range []int{416, 10400} {
			ords := make([]counting.Count, m)
			for i := range ords {
				ords[i], _ = counting.FromBig(new(big.Int).Rand(rng, c.Total.Big()))
			}
			slices.SortFunc(ords, counting.Count.Cmp)
			b.Run(fmt.Sprintf("%s/m=%d", in.name, m), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					AnswersAt(e, c, ords, func(int, []relation.Value) {})
				}
			})
		}
	}
}
