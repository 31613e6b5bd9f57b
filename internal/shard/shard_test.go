package shard

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/yannakakis"
)

func atom(rel string, vars ...query.Var) query.Atom { return query.Atom{Rel: rel, Vars: vars} }

// pathInstance is R(x,y),S(y,z),T(z,w): the key is y (two atoms, first
// appearance), so R routes by column 1, S by column 0, and T is keyless.
func pathInstance() (*query.Query, *relation.Database) {
	q := query.New(atom("R", "x", "y"), atom("S", "y", "z"), atom("T", "z", "w"))
	var r, s, t [][]relation.Value
	for i := relation.Value(0); i < 40; i++ {
		r = append(r, []relation.Value{i, i % 9})
		s = append(s, []relation.Value{i % 9, (i * 5) % 7})
		t = append(t, []relation.Value{i % 7, 100 + i})
	}
	db := relation.NewDatabase()
	db.Add(relation.FromRows("R", 2, r))
	db.Add(relation.FromRows("S", 2, s))
	db.Add(relation.FromRows("T", 2, t))
	return q, db
}

// answers dumps an engine's answer set, sorted, in the source variable layout.
func answers(eng *engine.Engine) []string {
	var out []string
	buf := make([]relation.Value, len(eng.Vars()))
	yannakakis.Enumerate(eng.Exec(), eng.Counts(), func(asn []relation.Value) bool {
		eng.Project(asn, buf)
		out = append(out, fmt.Sprint(buf))
		return true
	})
	sort.Strings(out)
	return out
}

func mustNew(t *testing.T, q *query.Query, db *relation.Database, shards int) *Sharded {
	t.Helper()
	s, err := New(q, db, shards, 2)
	if err != nil {
		t.Fatalf("New(shards=%d): %v", shards, err)
	}
	return s
}

func TestPartitionIsDisjointAndComplete(t *testing.T) {
	q, db := pathInstance()
	flat, err := engine.NewWorkers(q, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, 7} {
		s := mustNew(t, q, db, n)
		if s.Shards() != n || s.Key() != "y" || !s.Routed() {
			t.Fatalf("shards=%d: Shards()=%d Key()=%q Routed()=%v", n, s.Shards(), s.Key(), s.Routed())
		}
		if got := s.Total(); got.Cmp(flat.Total()) != 0 {
			t.Errorf("shards=%d: shard totals sum to %s, unsharded |Q(D)| = %s", n, got, flat.Total())
		}
		var union []string
		for i, eng := range s.Engines() {
			union = append(union, answers(eng)...)
			// Every routed row sits in the shard its key column hashes to,
			// and the routed relations' rows are split, not copied.
			for rel, col := range map[string]int{"R": 1, "S": 0} {
				for _, v := range eng.DB().Get(rel).Col(col) {
					if Of(v, n) != i {
						t.Fatalf("shards=%d: %s row with key %d sits in shard %d, Of says %d", n, rel, v, i, Of(v, n))
					}
				}
			}
		}
		sort.Strings(union)
		if !reflect.DeepEqual(union, answers(flat)) {
			t.Errorf("shards=%d: the union of the shards' answers is not Q(D)", n)
		}
		for _, rel := range []string{"R", "S"} {
			rows := 0
			for _, eng := range s.Engines() {
				rows += eng.DB().Get(rel).Len()
			}
			if rows != db.Get(rel).Len() {
				t.Errorf("shards=%d: %s has %d rows across shards, %d in the input", n, rel, rows, db.Get(rel).Len())
			}
		}
		// The keyless relation's columns are the input's, never copied.
		for i, eng := range s.Engines() {
			if &eng.DB().Get("T").Col(0)[0] != &db.Get("T").Col(0)[0] {
				t.Errorf("shards=%d: shard %d holds its own copy of the keyless relation T", n, i)
			}
		}
	}
}

func TestSelfJoinOccurrencesRouteByTheirOwnColumn(t *testing.T) {
	// E(a,b),E(b,c): the key b is column 1 of the first occurrence and
	// column 0 of the second, so each occurrence needs its own partition of E.
	q := query.New(atom("E", "a", "b"), atom("E", "b", "c"))
	var rows [][]relation.Value
	for i := relation.Value(0); i < 30; i++ {
		rows = append(rows, []relation.Value{i % 6, (i * 7) % 11})
	}
	db := relation.NewDatabase()
	db.Add(relation.FromRows("E", 2, rows))
	flat, err := engine.NewWorkers(q, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	s := mustNew(t, q, db, n)
	first, second := s.Query().Atoms[0].Rel, s.Query().Atoms[1].Rel
	if first == second {
		t.Fatalf("self-join survived the rewrite: %s", s.Query())
	}
	var union []string
	for i, eng := range s.Engines() {
		for _, v := range eng.DB().Get(first).Col(1) {
			if Of(v, n) != i {
				t.Fatalf("first occurrence: b=%d in shard %d, want %d", v, i, Of(v, n))
			}
		}
		for _, v := range eng.DB().Get(second).Col(0) {
			if Of(v, n) != i {
				t.Fatalf("second occurrence: b=%d in shard %d, want %d", v, i, Of(v, n))
			}
		}
		union = append(union, answers(eng)...)
	}
	sort.Strings(union)
	if !reflect.DeepEqual(union, answers(flat)) {
		t.Error("the union of the shards' answers is not Q(D): an occurrence was routed by the wrong column")
	}

	// A delta op on E fans out to both occurrences, each by its own column.
	d := engine.NewDelta().Insert("E", []relation.Value{3, 8})
	want := []int{Of(8, n), Of(3, n)}
	sort.Ints(want)
	if want[0] == want[1] {
		want = want[:1]
	}
	if got := s.Touched(d); !reflect.DeepEqual(got, want) {
		t.Errorf("Touched = %v, want %v", got, want)
	}
}

func TestUpdateRebuildsOnlyTouchedShards(t *testing.T) {
	q, db := pathInstance()
	const n = 5
	s := mustNew(t, q, db, n)

	// Two routed ops on the same key: one shard.
	d := engine.NewDelta().
		Insert("R", []relation.Value{900, 4}).
		Insert("S", []relation.Value{4, 6})
	touched := s.Touched(d)
	if !reflect.DeepEqual(touched, []int{Of(4, n)}) {
		t.Fatalf("Touched = %v, want [%d]", touched, Of(4, n))
	}
	up, _, err := s.Update(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Engines() {
		same := up.Engines()[i] == s.Engines()[i]
		if hit := i == touched[0]; same == hit {
			t.Errorf("shard %d: rebuilt=%v, touched=%v", i, !same, hit)
		}
	}
	db2, err := engine.ApplyDelta(db, d)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := engine.NewWorkers(q, db2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if up.Total().Cmp(fresh.Total()) != 0 {
		t.Errorf("updated total %s, fresh compile %s", up.Total(), fresh.Total())
	}

	// An op on the keyless relation goes to every shard.
	all := s.Touched(engine.NewDelta().Insert("T", []relation.Value{1, 555}))
	if len(all) != n {
		t.Errorf("keyless op touched %v, want all %d shards", all, n)
	}

	// Empty deltas derive nothing.
	if same, _, err := s.Update(engine.NewDelta()); err != nil || same != s {
		t.Errorf("empty delta: %v, %v; want the receiver back", same, err)
	}

	// Atomic failure: a valid insert in one shard plus a delete of an absent
	// row in another rejects the whole delta and leaves the receiver usable.
	before := append([]*engine.Engine(nil), s.Engines()...)
	other := relation.Value(0)
	for Of(other, n) == Of(4, n) {
		other++
	}
	bad := engine.NewDelta().
		Insert("R", []relation.Value{901, 4}).
		Delete("S", []relation.Value{other, 99})
	if _, _, err := s.Update(bad); !errors.Is(err, engine.ErrDeleteAbsent) {
		t.Fatalf("delete of an absent row: err = %v, want ErrDeleteAbsent", err)
	}
	if !reflect.DeepEqual(before, s.Engines()) {
		t.Error("a failed update changed the receiver's engine vector")
	}
	if again, _, err := s.Update(d); err != nil || again.Total().Cmp(up.Total()) != 0 {
		t.Errorf("update after a failed one: %v, total %v want %v", err, again.Total(), up.Total())
	}
}

func TestSingleForwardsToItsEngine(t *testing.T) {
	q, db := pathInstance()
	tri := query.New(atom("A", "x", "y"), atom("B", "y", "z"), atom("C", "z", "x"))
	tdb := relation.NewDatabase()
	tdb.Add(relation.FromRows("A", 2, [][]relation.Value{{1, 2}, {4, 5}}))
	tdb.Add(relation.FromRows("B", 2, [][]relation.Value{{2, 3}, {5, 6}}))
	tdb.Add(relation.FromRows("C", 2, [][]relation.Value{{3, 1}}))
	for _, c := range []struct {
		name string
		q    *query.Query
		db   *relation.Database
		d    *engine.Delta
	}{
		{"acyclic", q, db, engine.NewDelta().Insert("R", []relation.Value{900, 4}).Delete("T", []relation.Value{0, 100})},
		// A decomposed-cyclic engine runs a bag query no partition could
		// route; Single must not look at it.
		{"cyclic", tri, tdb, engine.NewDelta().Insert("C", []relation.Value{6, 4})},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng, err := engine.NewWorkers(c.q, c.db, 0)
			if err != nil {
				t.Fatal(err)
			}
			s := Single(eng)
			if s.Routed() || s.Key() != "" || s.Shards() != 1 || s.Engines()[0] != eng {
				t.Fatalf("Single: Routed()=%v Key()=%q Shards()=%d", s.Routed(), s.Key(), s.Shards())
			}
			if s.Total().Cmp(eng.Total()) != 0 || !reflect.DeepEqual(s.Vars(), eng.Vars()) {
				t.Errorf("Single: total %s vars %v, engine %s %v", s.Total(), s.Vars(), eng.Total(), eng.Vars())
			}
			if got := s.Touched(c.d); !reflect.DeepEqual(got, []int{0}) {
				t.Errorf("Touched = %v, want [0]", got)
			}
			if got := s.Touched(engine.NewDelta()); len(got) != 0 {
				t.Errorf("Touched(empty) = %v, want none", got)
			}
			if same, _, err := s.Update(engine.NewDelta()); err != nil || same != s {
				t.Errorf("empty delta: %v, %v; want the receiver back", same, err)
			}
			up, _, err := s.Update(c.d)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := eng.Update(c.d)
			if err != nil {
				t.Fatal(err)
			}
			if up.Routed() || up.Shards() != 1 || s.Engines()[0] != eng {
				t.Error("Update changed the set's shape or its receiver")
			}
			if got := up.Engines()[0]; got.Total().Cmp(want.Total()) != 0 || !reflect.DeepEqual(answers(got), answers(want)) {
				t.Errorf("Single.Update: total %s, engine.Update: %s (or answers differ)", got.Total(), want.Total())
			}
			if _, _, err := s.Update(engine.NewDelta().Delete(c.q.Atoms[0].Rel, []relation.Value{77, 77})); !errors.Is(err, engine.ErrDeleteAbsent) {
				t.Errorf("delete of an absent row: err = %v, want ErrDeleteAbsent", err)
			}
		})
	}
}

func TestNewRejectsTyped(t *testing.T) {
	q, db := pathInstance()
	for _, n := range []int{0, -3} {
		if _, err := New(q, db, n, 1); !errors.Is(err, ErrShardCount) {
			t.Errorf("New(shards=%d): err = %v, want ErrShardCount", n, err)
		}
	}
	// A Boolean query has no variable to partition on.
	bq := query.New(atom("P"))
	bdb := relation.NewDatabase()
	bdb.Add(relation.FromRows("P", 0, [][]relation.Value{{}}))
	if _, err := New(bq, bdb, 2, 1); !errors.Is(err, ErrNoKey) {
		t.Errorf("Boolean query: err = %v, want ErrNoKey", err)
	}
	if _, err := Restore(bq, bdb, 2, 1, nil); !errors.Is(err, ErrNoKey) {
		t.Errorf("Boolean query through Restore: err = %v, want ErrNoKey", err)
	}
	// A query that does not fit the database still fails, untyped.
	if _, err := New(query.New(atom("Missing", "x")), db, 2, 1); err == nil || errors.Is(err, ErrNoKey) {
		t.Errorf("unknown relation: err = %v", err)
	}
}
