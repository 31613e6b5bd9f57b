package decomp

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/testutil"
)

func triangle() *query.Query {
	return query.New(
		query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}},
		query.Atom{Rel: "S", Vars: []query.Var{"y", "z"}},
		query.Atom{Rel: "T", Vars: []query.Var{"z", "x"}},
	)
}

func fourCycle() *query.Query {
	return query.New(
		query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}},
		query.Atom{Rel: "S", Vars: []query.Var{"y", "z"}},
		query.Atom{Rel: "T", Vars: []query.Var{"z", "w"}},
		query.Atom{Rel: "U", Vars: []query.Var{"w", "x"}},
	)
}

// ring returns the n-cycle query R0(x0,x1), R1(x1,x2), ..., Rn-1(xn-1,x0).
func ring(n int) *query.Query {
	atoms := make([]query.Atom, n)
	for i := 0; i < n; i++ {
		atoms[i] = query.Atom{
			Rel:  "R" + string(rune('A'+i)),
			Vars: []query.Var{query.Var("x" + string(rune('a'+i))), query.Var("x" + string(rune('a'+(i+1)%n)))},
		}
	}
	return query.New(atoms...)
}

func TestDecomposeTriangle(t *testing.T) {
	d, err := Decompose(triangle(), MaxDecompWidth)
	if err != nil {
		t.Fatal(err)
	}
	if d.Width != 2 {
		t.Fatalf("width = %d, want 2", d.Width)
	}
	if len(d.Bags) != 2 {
		t.Fatalf("bags = %d, want 2", len(d.Bags))
	}
	if _, err := jointree.Build(d.Query()); err != nil {
		t.Fatalf("bag query %s not acyclic: %v", d.Query(), err)
	}
	// Same var set as the source, and the bag query carries every bag var.
	if got, want := d.Query().Vars(), triangle().Vars(); !sameVarSet(got, want) {
		t.Fatalf("bag query vars %v, want the set %v", got, want)
	}
}

func TestDecomposeFourCycle(t *testing.T) {
	d, err := Decompose(fourCycle(), MaxDecompWidth)
	if err != nil {
		t.Fatal(err)
	}
	if d.Width != 2 || len(d.Bags) != 2 {
		t.Fatalf("width=%d bags=%d, want 2/2", d.Width, len(d.Bags))
	}
}

func TestDecomposeK4(t *testing.T) {
	// All six edges of the complete graph on {x,y,z,w}.
	k4 := query.New(
		query.Atom{Rel: "E1", Vars: []query.Var{"x", "y"}},
		query.Atom{Rel: "E2", Vars: []query.Var{"x", "z"}},
		query.Atom{Rel: "E3", Vars: []query.Var{"x", "w"}},
		query.Atom{Rel: "E4", Vars: []query.Var{"y", "z"}},
		query.Atom{Rel: "E5", Vars: []query.Var{"y", "w"}},
		query.Atom{Rel: "E6", Vars: []query.Var{"z", "w"}},
	)
	d, err := Decompose(k4, MaxDecompWidth)
	if err != nil {
		t.Fatal(err)
	}
	if d.Width > 3 {
		t.Fatalf("K4 width = %d, want ≤ 3", d.Width)
	}
	if _, err := jointree.Build(d.Query()); err != nil {
		t.Fatalf("bag query not acyclic: %v", err)
	}
}

// TestDecomposePastSixtyFourVariables hangs a 64-atom path off the triangle:
// 67 variables, so every candidate's bag sets span two words. The path
// decomposes along with the triangle at width 2, and the triangle keeps the
// bag it has alone.
func TestDecomposePastSixtyFourVariables(t *testing.T) {
	atoms := triangle().Atoms
	prev := query.Var("x")
	for i := range 64 {
		next := query.Var("p" + strconv.Itoa(i))
		atoms = append(atoms, query.Atom{Rel: "P" + strconv.Itoa(i), Vars: []query.Var{prev, next}})
		prev = next
	}
	q := query.New(atoms...)
	if got := len(q.Vars()); got != 67 {
		t.Fatalf("%d variables, want 67", got)
	}
	d, err := Decompose(q, MaxDecompWidth)
	if err != nil {
		t.Fatal(err)
	}
	if d.Width != 2 {
		t.Fatalf("width %d, want 2", d.Width)
	}
	alone, err := Decompose(triangle(), MaxDecompWidth)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Bags[0], alone.Bags[0]) || !reflect.DeepEqual(d.BagVars[0], alone.BagVars[0]) {
		t.Fatalf("triangle bag %v over %v, want %v over %v", d.Bags[0], d.BagVars[0], alone.Bags[0], alone.BagVars[0])
	}
	if _, err := jointree.Build(d.Query()); err != nil {
		t.Fatalf("bag query not acyclic: %v", err)
	}
}

func TestDecomposeDeterministic(t *testing.T) {
	a, err := Decompose(fourCycle(), MaxDecompWidth)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decompose(fourCycle(), MaxDecompWidth)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Bags, b.Bags) || !reflect.DeepEqual(a.BagVars, b.BagVars) || !reflect.DeepEqual(a.BagNames, b.BagNames) {
		t.Fatalf("decomposition not deterministic:\n%+v\n%+v", a, b)
	}
}

// Petersen returns the join query over the 15 edges of the Petersen graph:
// girth 5 and 3-regular, so no small bag dominates and no bag cover of width
// ≤ MaxDecompWidth is acyclic.
func Petersen() *query.Query {
	edges := [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, // outer cycle
		{5, 7}, {7, 9}, {9, 6}, {6, 8}, {8, 5}, // inner pentagram
		{0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9}, // spokes
	}
	atoms := make([]query.Atom, len(edges))
	for i, e := range edges {
		atoms[i] = query.Atom{
			Rel:  "E" + string(rune('A'+i)),
			Vars: []query.Var{query.Var("v" + string(rune('a'+e[0]))), query.Var("v" + string(rune('a'+e[1])))},
		}
	}
	return query.New(atoms...)
}

func TestDecomposeWidthCap(t *testing.T) {
	_, err := Decompose(Petersen(), MaxDecompWidth)
	var we *WidthError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want *WidthError", err)
	}
	if we.MaxWidth != MaxDecompWidth || we.Atoms != 15 {
		t.Fatalf("WidthError fields = %+v", we)
	}
	// Rings stay cheap: a 12-ring pairs opposite edges into a width-2
	// caterpillar of bags.
	if d, err := Decompose(ring(12), MaxDecompWidth); err != nil || d.Width != 2 {
		t.Fatalf("12-ring: d=%+v err=%v, want width 2", d, err)
	}
	// An explicit cap below any usable width fails immediately.
	if _, err := Decompose(triangle(), 1); !errors.As(err, &we) {
		t.Fatalf("maxWidth=1 err = %v, want *WidthError", err)
	}
}

func TestMaterializeTriangle(t *testing.T) {
	q := triangle()
	db := relation.NewDatabase()
	db.Add(relation.FromRows("R", 2, [][]relation.Value{{1, 2}, {2, 3}, {1, 5}}).MarkDistinct())
	db.Add(relation.FromRows("S", 2, [][]relation.Value{{2, 3}, {3, 1}, {5, 6}}).MarkDistinct())
	db.Add(relation.FromRows("T", 2, [][]relation.Value{{3, 1}, {1, 2}, {6, 1}}).MarkDistinct())

	d, err := Decompose(q, MaxDecompWidth)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		bagDB, st := d.MaterializeBags(q, db)
		if st.Width != 2 || st.Bags != len(d.Bags) || st.RematerializedBags != len(d.Bags) || st.Redecomposed {
			t.Fatalf("stats = %+v", st)
		}
		got := testutil.BruteForce(d.Query(), bagDB)
		want := testutil.BruteForce(q, db)
		sortRows(got)
		sortRows(want)
		if !reflect.DeepEqual(projectTo(d.Query().Vars(), q.Vars(), got), want) {
			t.Fatalf("workers=%d: bag join %v, want %v", workers, got, want)
		}
	}
}

func TestMaterializeOrderIndependentOfWorkers(t *testing.T) {
	q := fourCycle()
	db := relation.NewDatabase()
	rows := [][]relation.Value{}
	for i := relation.Value(0); i < 40; i++ {
		rows = append(rows, []relation.Value{i % 7, i % 5})
	}
	for _, name := range []string{"R", "S", "T", "U"} {
		db.Add(relation.FromRows(name, 2, rows).Deduped())
	}
	d, err := Decompose(q, MaxDecompWidth)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := d.MaterializeBags(q, db)
	for _, workers := range []int{2, 8} {
		got, _ := d.MaterializeBags(q, db)
		for _, name := range d.BagNames {
			if !base.Get(name).Equal(got.Get(name)) {
				t.Fatalf("workers=%d: bag %s row order differs", workers, name)
			}
		}
	}
}

func TestRematerializeSharesUntouchedBags(t *testing.T) {
	q := fourCycle()
	db := relation.NewDatabase()
	for _, name := range []string{"R", "S", "T", "U"} {
		db.Add(relation.FromRows(name, 2, [][]relation.Value{{1, 2}, {2, 1}}).MarkDistinct())
	}
	d, err := Decompose(q, MaxDecompWidth)
	if err != nil {
		t.Fatal(err)
	}
	prev, _ := d.MaterializeBags(q, db)

	db2 := relation.NewDatabase()
	for _, name := range []string{"R", "S", "T", "U"} {
		r := db.Get(name).Clone()
		if name == "R" {
			r.AppendRow([]relation.Value{2, 2})
		}
		db2.Add(r.MarkDistinct())
	}
	next, st := d.Rematerialize(q, db2, prev, map[string]bool{"R": true})
	if st.RematerializedBags >= st.Bags || st.Redecomposed {
		t.Fatalf("expected partial rematerialization, got %+v", st)
	}
	shared, rebuilt := 0, 0
	for i, name := range d.BagNames {
		if d.bagTouched(q, i, map[string]bool{"R": true}) {
			rebuilt++
			if next.Get(name) == prev.Get(name) {
				t.Fatalf("touched bag %s not rebuilt", name)
			}
		} else {
			shared++
			if next.Get(name) != prev.Get(name) {
				t.Fatalf("untouched bag %s not shared by pointer", name)
			}
		}
	}
	if shared == 0 || rebuilt == 0 {
		t.Fatalf("want both shared and rebuilt bags, got shared=%d rebuilt=%d", shared, rebuilt)
	}
	// Touching every relation degenerates into a full rebuild.
	_, st = d.Rematerialize(q, db2, prev, map[string]bool{"R": true, "S": true, "T": true, "U": true})
	if st.RematerializedBags != st.Bags || !st.Redecomposed {
		t.Fatalf("full touch stats = %+v", st)
	}
}

func TestMaterializeRepeatedVars(t *testing.T) {
	// Self-loop atom inside a bag: L(x,x) keeps only rows with equal columns.
	// That equality is query.Normalize's to apply; the un-normalized query is
	// refused, and the bags of the normalized one join to the source's answers.
	src := query.New(
		query.Atom{Rel: "L", Vars: []query.Var{"x", "x"}},
		query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}},
		query.Atom{Rel: "S", Vars: []query.Var{"y", "z"}},
		query.Atom{Rel: "T", Vars: []query.Var{"z", "x"}},
	)
	db := relation.NewDatabase()
	db.Add(relation.FromRows("L", 2, [][]relation.Value{{1, 1}, {1, 2}, {2, 2}}).MarkDistinct())
	db.Add(relation.FromRows("R", 2, [][]relation.Value{{1, 2}, {2, 3}}).MarkDistinct())
	db.Add(relation.FromRows("S", 2, [][]relation.Value{{2, 3}, {3, 1}}).MarkDistinct())
	db.Add(relation.FromRows("T", 2, [][]relation.Value{{3, 1}, {1, 2}}).MarkDistinct())
	if _, err := Decompose(src, MaxDecompWidth); err == nil {
		t.Fatal("Decompose accepted an atom that repeats a variable")
	}
	q, ndb := query.Normalize(src, db)
	d, err := Decompose(q, MaxDecompWidth)
	if err != nil {
		t.Fatal(err)
	}
	bagDB, _ := d.MaterializeBags(q, ndb)
	got := testutil.BruteForce(d.Query(), bagDB)
	want := testutil.BruteForce(src, db)
	sortRows(got)
	sortRows(want)
	if !reflect.DeepEqual(projectTo(d.Query().Vars(), q.Vars(), got), want) {
		t.Fatalf("bag join %v, want %v", got, want)
	}
}

// projectTo reorders rows over vars `from` into the column order `to`.
func projectTo(from, to []query.Var, rows [][]relation.Value) [][]relation.Value {
	idx := make(map[query.Var]int, len(from))
	for i, v := range from {
		idx[v] = i
	}
	out := make([][]relation.Value, len(rows))
	for i, r := range rows {
		p := make([]relation.Value, len(to))
		for j, v := range to {
			p[j] = r[idx[v]]
		}
		out[i] = p
	}
	sortRows(out)
	return out
}

func sortRows(rows [][]relation.Value) {
	sort.Slice(rows, func(i, j int) bool {
		for k := range rows[i] {
			if rows[i][k] != rows[j][k] {
				return rows[i][k] < rows[j][k]
			}
		}
		return false
	})
}

func sameVarSet(a, b []query.Var) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[query.Var]bool, len(a))
	for _, v := range a {
		set[v] = true
	}
	for _, v := range b {
		if !set[v] {
			return false
		}
	}
	return true
}

// nestedLoopBag is the reference for one bag: a left-deep nested-loop join of
// its atoms in join order, rows in the order the loops meet them, columns in
// BagVars order, keeping a row only if each atom the bag covers holds its
// projection (a linear scan of the atom's relation).
func nestedLoopBag(d *Decomposition, q *query.Query, db *relation.Database, i int) *relation.Relation {
	vars := d.BagVars[i]
	col := make(map[query.Var]int, len(vars))
	for j, v := range vars {
		col[v] = j
	}
	out := relation.New(d.BagNames[i], len(vars))
	row := make([]relation.Value, len(vars))
	bound := make(map[query.Var]bool)
	var rec func(s int)
	rec = func(s int) {
		if s == len(d.Bags[i]) {
			for _, ci := range d.Covered[i] {
				if !holds(q.Atoms[ci], db, row, col) {
					return
				}
			}
			out.AppendRow(row)
			return
		}
		a := q.Atoms[d.Bags[i][s]]
		rel := db.Get(a.Rel)
	rows:
		for r := 0; r < rel.Len(); r++ {
			var fresh []query.Var
			for j, v := range a.Vars {
				switch val := rel.Get(r, j); {
				case !bound[v]:
					bound[v], row[col[v]] = true, val
					fresh = append(fresh, v)
				case row[col[v]] != val:
					for _, f := range fresh {
						bound[f] = false
					}
					continue rows
				}
			}
			rec(s + 1)
			for _, f := range fresh {
				bound[f] = false
			}
		}
	}
	rec(0)
	return out
}

// holds reports whether atom a's relation has the row's projection onto a.
func holds(a query.Atom, db *relation.Database, row []relation.Value, col map[query.Var]int) bool {
	rel := db.Get(a.Rel)
rows:
	for r := 0; r < rel.Len(); r++ {
		for j, v := range a.Vars {
			if rel.Get(r, j) != row[col[v]] {
				continue rows
			}
		}
		return true
	}
	return false
}

// The interner join writes each bag exactly as the reference does — the same
// rows in the same order — for every bag shape the join handles differently:
// plain chains, closing edges (every variable shared, alone and several in a
// row), atoms without a shared variable, rewritten repeated variables on
// either side, a rewritten self-join, covered atoms checked at a later step
// than the one that binds them, and one-atom bags that cover atoms, at worker
// counts that chunk both the build and the probe side.
func TestMaterializeMatchesNestedLoopJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	edges := func(name string, n int, dom int64) *relation.Relation {
		r := relation.New(name, 2)
		for i := 0; i < n; i++ {
			r.Append(rng.Int63n(dom), rng.Int63n(dom))
		}
		return r.Deduped()
	}
	binary := func(names string, n int, dom int64) *relation.Database {
		db := relation.NewDatabase()
		for _, c := range names {
			db.Add(edges(string(c), n, dom))
		}
		return db
	}
	atom := func(rel string, vars ...query.Var) query.Atom { return query.Atom{Rel: rel, Vars: vars} }
	// A self-join and repeated variables, rewritten as the engine rewrites
	// them before decomposing.
	selfQ, selfDB := query.Normalize(
		query.New(atom("R", "x", "y"), atom("R", "y", "z"), atom("R", "z", "x")), binary("R", 700, 30))
	repQ, repDB := query.Normalize(
		query.New(atom("L", "x", "x"), atom("R", "x", "y"), atom("S", "y", "y"), atom("T", "y", "x")), binary("LRST", 700, 25))

	twoClosing := query.New(atom("R", "x", "y"), atom("S", "y", "z"), atom("T", "z", "x"), atom("U", "x", "z"))

	cases := []struct {
		name string
		q    *query.Query
		db   *relation.Database
		bags [][]int // nil: the decomposition Decompose picks
	}{
		{"path", query.New(atom("R", "x", "y"), atom("S", "y", "z"), atom("T", "z", "w")), binary("RST", 700, 90), nil},
		{"triangle", triangle(), binary("RST", 700, 30), nil},
		{"triangle in one bag", triangle(), binary("RST", 700, 30), [][]int{{0, 1, 2}}},
		{"4-cycle", fourCycle(), binary("RSTU", 700, 40), nil},
		{"4-cycle in one bag", fourCycle(), binary("RSTU", 600, 25), [][]int{{0, 1, 2, 3}}},
		{"5-cycle", ring(5), func() *relation.Database {
			db := relation.NewDatabase()
			for i := 0; i < 5; i++ {
				db.Add(edges("R"+string(rune('A'+i)), 60, 12))
			}
			return db
		}(), nil},
		{"repeated variables", repQ, repDB, [][]int{{0, 1, 2, 3}}},
		{"two closing edges", twoClosing, binary("RSTU", 700, 20), [][]int{{0, 1, 2, 3}}},
		{"self-join", selfQ, selfDB, [][]int{{0, 1, 2}}},
		{"covered atom bound by the first atom", twoClosing, binary("RSTU", 700, 20), [][]int{{2, 1}, {0}, {3}}},
		{"one-atom bags covering each other", twoClosing, binary("RSTU", 700, 20), [][]int{{0, 1}, {2}, {3}}},
	}
	for _, c := range cases {
		var d *Decomposition
		if c.bags != nil {
			d = assemble(c.q, c.bags)
		} else {
			var err error
			if d, err = Decompose(c.q, MaxDecompWidth); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		rows := 0
		for _, workers := range []int{1, 2, 8} {
			got, _ := d.MaterializeBags(c.q, c.db)
			for i, name := range d.BagNames {
				want := nestedLoopBag(d, c.q, c.db, i)
				if !got.Get(name).Equal(want) {
					t.Fatalf("%s workers=%d: bag %d (%d rows) is not the nested-loop join (%d rows) row for row",
						c.name, workers, i, got.Get(name).Len(), want.Len())
				}
				rows += want.Len()
			}
		}
		if rows == 0 {
			t.Fatalf("%s: every bag is empty; nothing was compared", c.name)
		}
	}
}

// The triangle's bag over all three variables joins two atoms and covers the
// third, so it holds exactly the query's answers — not the pairwise join.
func TestTriangleBagHoldsItsAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	q := triangle()
	db := relation.NewDatabase()
	for _, name := range []string{"R", "S", "T"} {
		r := relation.New(name, 2)
		for i := 0; i < 600; i++ {
			r.Append(rng.Int63n(40), rng.Int63n(40))
		}
		db.Add(r.Deduped())
	}
	want := testutil.BruteForce(q, db)
	if len(want) == 0 {
		t.Fatal("no triangles: nothing is compared")
	}
	d, err := Decompose(q, MaxDecompWidth)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		bagDB, st := d.MaterializeBags(q, db)
		for i, vars := range d.BagVars {
			if len(vars) != 3 {
				continue
			}
			bag := bagDB.Get(d.BagNames[i])
			if bag.Len() != len(want) || st.MaxBagRows != len(want) {
				t.Fatalf("workers=%d: bag %d holds %d rows (largest bag %d), |Q(D)| = %d", workers, i, bag.Len(), st.MaxBagRows, len(want))
			}
			rows := make([][]relation.Value, bag.Len())
			for r := range rows {
				rows[r] = bag.RowValues(r)
			}
			sortRows(want)
			if got := projectTo(vars, q.Vars(), rows); !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d: bag %d is not Q(D)", workers, i)
			}
		}
	}
}

// A delta to an atom a bag covers rebuilds that bag as well as the one
// holding the atom; a delta to an atom nothing covers rebuilds its own bag
// only. Either way the result is a fresh materialization's, bag for bag.
func TestRematerializeRebuildsCoveringBags(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	atom := func(rel string, vars ...query.Var) query.Atom { return query.Atom{Rel: rel, Vars: vars} }
	// A triangle with an ear: {R,S} covers T, {T,D} covers nothing.
	q := query.New(atom("R", "x", "y"), atom("S", "y", "z"), atom("T", "z", "x"), atom("D", "x", "w"))
	edges := func(name string) *relation.Relation {
		r := relation.New(name, 2)
		for i := 0; i < 300; i++ {
			r.Append(rng.Int63n(20), rng.Int63n(20))
		}
		return r.Deduped()
	}
	db := relation.NewDatabase()
	for _, name := range []string{"R", "S", "T", "D"} {
		db.Add(edges(name))
	}
	d, err := Decompose(q, MaxDecompWidth)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Covered, [][]int{{2}, nil}) {
		t.Fatalf("covered atoms %v, want [[2] []]", d.Covered)
	}
	prev, _ := d.MaterializeBags(q, db)
	for _, tc := range []struct {
		rel     string
		rebuilt []bool // per bag
	}{
		{"T", []bool{true, true}},
		{"D", []bool{false, true}},
		{"R", []bool{true, false}},
	} {
		db2 := db.View()
		db2.Add(edges(tc.rel))
		next, st := d.Rematerialize(q, db2, prev, map[string]bool{tc.rel: true})
		fresh, _ := d.MaterializeBags(q, db2)
		for i, name := range d.BagNames {
			if rebuilt := next.Get(name) != prev.Get(name); rebuilt != tc.rebuilt[i] {
				t.Fatalf("delta to %s: bag %d rebuilt=%v, want %v", tc.rel, i, rebuilt, tc.rebuilt[i])
			}
			if !next.Get(name).Equal(fresh.Get(name)) {
				t.Fatalf("delta to %s: bag %d differs from a fresh materialization", tc.rel, i)
			}
		}
		if want := tc.rebuilt[0] && tc.rebuilt[1]; st.Redecomposed != want {
			t.Fatalf("delta to %s: Redecomposed=%v, want %v", tc.rel, st.Redecomposed, want)
		}
	}
}

// BenchmarkDecompose times the partition search alone: the shapes accept at
// their first width-2 candidate (triangle, four-cycle), after a long width-2
// search (ring(12)), or never (Petersen, every width up to the cap).
func BenchmarkDecompose(b *testing.B) {
	for _, c := range []struct {
		name string
		q    *query.Query
	}{
		{"triangle", triangle()},
		{"fourCycle", fourCycle()},
		{"ring12", ring(12)},
		{"Petersen", Petersen()},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				_, err := Decompose(c.q, MaxDecompWidth)
				var we *WidthError
				if (c.name == "Petersen") != errors.As(err, &we) {
					b.Fatalf("%s: err = %v", c.name, err)
				}
			}
		})
	}
}
