package yannakakis

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/testutil"
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
		var cands []int
		if n.Parent < 0 {
			for i := 0; i < e.Rels[n.ID].Len(); i++ {
				cands = append(cands, i)
			}
		} else if gid, ok := e.ParentGroup(n.ID, cur[n.Parent]); ok {
			cands = e.Groups[n.ID].Tuples[gid]
		}
		for _, ti := range cands {
			for j, v := range n.Vars {
				asn[varIdx[v]] = e.Rels[n.ID].Get(ti, j)
			}
			cur[n.ID] = ti
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
// positional walk and the direct-access index to it.
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
	checkDirect(t, name, e, c)
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
		db.Add(raw.Get(name).DedupedWorkers(1))
	}
	return execOf(t, q, db)
}

func TestEnumerateGuidedMatchesReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, inst := range testutil.FuzzCorpus(rng) {
		e := corpusExec(t, inst)
		checkGuided(t, inst.Name, e, CountWorkers(e, 1))
	}
	for trial := 0; trial < 40; trial++ {
		q, db := testutil.RandomTreeInstance(rng, 2+rng.Intn(4), 1+rng.Intn(12), 4)
		e := execOf(t, q, db)
		checkGuided(t, fmt.Sprintf("tree %d (%s)", trial, q), e, CountWorkers(e, 1))
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
		e, err := jointree.NewExecWorkers(q, db, jointree.FromParent(q, parent, root), 1)
		if err != nil {
			t.Fatal(err)
		}
		if n := checkGuided(t, fmt.Sprintf("root %d", root), e, CountWorkers(e, 1)); n != 1 {
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
		counts := CountWorkers(e, 1)
		for gen := 0; gen < 4; gen++ {
			deltas := make(map[string]jointree.RelDelta)
			for _, name := range e.DB.Names() {
				if d := relDeltaFor(rng, e.DB.Get(name), rng.Intn(6), rng.Intn(6), 30); !d.Empty() {
					deltas[name] = d
				}
			}
			derived, changes, err := e.ApplyDelta(deltas, 1)
			if err != nil {
				t.Fatal(err)
			}
			changed += len(changes)
			e, counts = derived, UpdateCounts(counts, derived, changes, 1)
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
				db.Add(src.FilterWorkers(1, func(i int) bool { return mask[i] }))
			}
			sub := e.DeriveSubset(e.Q.Clone(), db, keep, 1)
			checkGuided(t, fmt.Sprintf("%s keep≈1−1/%d", inst.Name, keepOneIn), sub, CountScratch(sub, 1, &scratch))
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
	e, err := jointree.NewExecWorkers(q, db, jointree.FromParent(q, []int{-1, 0, 1}, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	answers := 0
	steps := EnumerateSteps(e, CountWorkers(e, 1), func(asn []relation.Value) bool {
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
	steps = AnswersAt(e, CountWorkers(e, 1), ords, func(i int, asn []relation.Value) {
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
	e, err := jointree.NewExecWorkers(q, db, jointree.FromParent(q, []int{-1, 0, 1}, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	c := CountWorkers(e, 1)
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
