package relation

import (
	"math/rand"
	"sync"
	"testing"
)

func TestAppendRowGet(t *testing.T) {
	r := New("R", 2)
	r.Append(1, 2)
	r.Append(3, 4)
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	if r.Get(0, 0) != 1 || r.Get(0, 1) != 2 || r.Get(1, 0) != 3 || r.Get(1, 1) != 4 {
		t.Fatal("values wrong")
	}
	row := r.RowValues(1)
	if len(row) != 2 || row[0] != 3 {
		t.Fatal("row copy wrong")
	}
}

func TestAppendWrongArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("R", 2).Append(1)
}

func TestZeroArity(t *testing.T) {
	r := New("Root", 0)
	if r.Len() != 0 {
		t.Fatal("empty zero-arity relation should have 0 tuples")
	}
	r.AppendRow(nil)
	if r.Len() != 1 {
		t.Fatal("zero-arity relation with the empty tuple should have 1 tuple")
	}
	if got := r.RowValues(0); len(got) != 0 {
		t.Fatal("zero-arity row must be empty")
	}
}

func TestFromRowsAndEqual(t *testing.T) {
	a := FromRows("R", 2, [][]Value{{1, 2}, {3, 4}})
	b := New("R", 2)
	b.Append(1, 2)
	b.Append(3, 4)
	if !a.Equal(b) {
		t.Fatal("equal relations reported unequal")
	}
	b.Set(1, 1, 99)
	if a.Equal(b) {
		t.Fatal("unequal relations reported equal")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromRows("R", 1, [][]Value{{1}, {2}})
	b := a.Clone()
	b.Set(0, 0, 42)
	if a.Get(0, 0) != 1 {
		t.Fatal("clone shares storage")
	}
}

func TestRenameSharesData(t *testing.T) {
	a := FromRows("R", 1, [][]Value{{7}})
	b := a.Rename("S")
	if b.Name() != "S" || b.Get(0, 0) != 7 {
		t.Fatal("rename wrong")
	}
}

func TestFilter(t *testing.T) {
	a := FromRows("R", 1, [][]Value{{1}, {2}, {3}, {4}})
	col := a.Col(0)
	ev := a.FilterWorkers(1, func(i int) bool { return col[i]%2 == 0 })
	if ev.Len() != 2 || ev.Get(0, 0) != 2 || ev.Get(1, 0) != 4 {
		t.Fatalf("filter = %v", ev)
	}
}

func TestProject(t *testing.T) {
	a := FromRows("R", 3, [][]Value{{1, 2, 3}, {7, 8, 9}, {4, 5, 6}})
	p := a.GatherRowsCols("P", []int{0, 2}, []int{2, 0})
	if p.Name() != "P" || p.Arity() != 2 || p.Len() != 2 || p.Get(0, 0) != 3 || p.Get(0, 1) != 1 || p.Get(1, 0) != 6 || p.Get(1, 1) != 4 {
		t.Fatal("projection wrong")
	}
}

func TestDatabase(t *testing.T) {
	db := NewDatabase()
	db.Add(FromRows("R", 1, [][]Value{{1}, {2}}))
	db.Add(FromRows("S", 2, [][]Value{{1, 2}}))
	if db.Size() != 3 {
		t.Fatalf("Size = %d", db.Size())
	}
	if !db.Has("R") || db.Has("T") {
		t.Fatal("Has wrong")
	}
	if got := db.Names(); len(got) != 2 || got[0] != "R" || got[1] != "S" {
		t.Fatalf("Names = %v", got)
	}
	// Replacing keeps order stable.
	db.Add(FromRows("R", 1, [][]Value{{9}}))
	if got := db.Names(); got[0] != "R" || db.Get("R").Get(0, 0) != 9 {
		t.Fatal("replace broke order or content")
	}
	c := db.Clone()
	c.Get("R").Set(0, 0, 100)
	if db.Get("R").Get(0, 0) != 9 {
		t.Fatal("database clone shares storage")
	}
}

func TestStringForms(t *testing.T) {
	db := NewDatabase()
	db.Add(FromRows("R", 1, [][]Value{{1}}))
	if db.String() == "" || db.Get("R").String() == "" {
		t.Fatal("debug strings empty")
	}
}

func TestDeduped(t *testing.T) {
	a := FromRows("R", 2, [][]Value{{1, 2}, {1, 2}, {3, 4}, {1, 2}})
	d := a.DedupedWorkers(1)
	if d.Len() != 2 || !d.IsDistinct() {
		t.Fatalf("deduped: len=%d distinct=%v", d.Len(), d.IsDistinct())
	}
	if d.Get(0, 0) != 1 || d.Get(1, 0) != 3 {
		t.Fatal("dedup changed order of first occurrences")
	}
	// Already-distinct relations are returned as-is.
	if d.DedupedWorkers(1) != d {
		t.Fatal("distinct relation must not be copied")
	}
}

// A relation found duplicate-free is not copied: the result is a header of its
// own over the receiver's columns, and the receiver is left unmarked — two
// compiles may be deduplicating it at once.
func TestDedupedSharesColumnsWhenNothingIsDropped(t *testing.T) {
	for _, workers := range []int{1, 4} {
		a := New("R", 2)
		for i := Value(0); i < 3000; i++ {
			a.Append(i, i%7)
		}
		d := a.DedupedWorkers(workers)
		if d == a || a.IsDistinct() {
			t.Fatalf("workers=%d: the receiver itself was marked or returned", workers)
		}
		if !d.IsDistinct() || d.Name() != "R" || !d.Equal(a) || &d.Col(0)[0] != &a.Col(0)[0] || &d.Col(1)[0] != &a.Col(1)[0] {
			t.Fatalf("workers=%d: want a distinct-marked view of the receiver's columns", workers)
		}
		// Rows the caller appends afterwards stay the caller's.
		a.Append(9, 9)
		if d.Len() != 3000 || a.Len() != 3001 {
			t.Fatalf("workers=%d: an append to the receiver reached the view", workers)
		}
		a.Append(0, 0) // a duplicate: now the rows are gathered
		if c := a.DedupedWorkers(workers); c.Len() != 3001 || &c.Col(0)[0] == &a.Col(0)[0] {
			t.Fatalf("workers=%d: dropped rows must give a copy, got %v sharing=%v", workers, c, &c.Col(0)[0] == &a.Col(0)[0])
		}
	}
}

// A relation with duplicate rows remembers the copy gathered of it, so every
// compile over one input holds the same one — however many plans read it and
// whichever of them came first — until the relation is written to.
func TestDedupedIsRememberedUntilWritten(t *testing.T) {
	a := New("R", 2)
	for i := Value(0); i < 3000; i++ {
		a.Append(i%2900, i%2900%7) // the last hundred rows repeat the first
	}
	var wg sync.WaitGroup
	sets := make([]*Relation, 8)
	for g := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sets[g] = a.DedupedWorkers(1 + g%4)
		}()
	}
	wg.Wait()
	for g, d := range sets {
		if d != sets[0] || d.Len() != 2900 || !d.IsDistinct() || a.IsDistinct() {
			t.Fatalf("caller %d: got %p (%d rows), caller 0 got %p", g, d, d.Len(), sets[0])
		}
	}
	if a.Rename("R").DedupedWorkers(1) == sets[0] {
		t.Fatal("another header over the same columns was handed this one's set")
	}
	for what, write := range map[string]func(){
		"AppendRow":  func() { a.Append(5000, 1) },
		"AppendRows": func() { a.AppendRows(FromRows("R", 2, [][]Value{{5001, 1}}), 0, 1) },
		"Set":        func() { a.Set(0, 0, 5002) },
	} {
		before := a.DedupedWorkers(1)
		write()
		after := a.DedupedWorkers(1)
		if after == before || after.Len() != before.Len()+1 {
			t.Fatalf("%s: the set from before the write was served again (%d rows, then %d)", what, before.Len(), after.Len())
		}
	}
}

func TestDistinctPropagation(t *testing.T) {
	a := FromRows("R", 2, [][]Value{{1, 2}, {3, 4}}).MarkDistinct()
	if !a.Clone().IsDistinct() {
		t.Fatal("Clone dropped distinct")
	}
	if !a.Rename("S").IsDistinct() {
		t.Fatal("Rename dropped distinct")
	}
	ac := a.Col(0)
	if !a.FilterWorkers(1, func(i int) bool { return ac[i] == 1 }).IsDistinct() {
		t.Fatal("FilterWorkers dropped distinct")
	}
	// Fresh relations are not distinct by default.
	if New("X", 1).IsDistinct() {
		t.Fatal("fresh relation marked distinct")
	}
}

func TestNewWithCapacity(t *testing.T) {
	r := NewWithCapacity("R", 3, 100)
	if r.Len() != 0 {
		t.Fatal("capacity must not add rows")
	}
	r.Append(1, 2, 3)
	if r.Len() != 1 || r.Get(0, 2) != 3 {
		t.Fatal("append after prealloc broken")
	}
}

func BenchmarkAppendScan(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < b.N; i++ {
		r := New("R", 3)
		for j := 0; j < 1000; j++ {
			r.Append(rng.Int63n(100), rng.Int63n(100), rng.Int63n(100))
		}
		var sum Value
		for j := 0; j < r.Len(); j++ {
			sum += r.Get(j, 0)
		}
		_ = sum
	}
}
