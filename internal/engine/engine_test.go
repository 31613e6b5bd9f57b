package engine

import (
	"slices"
	"sync"
	"testing"

	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/testutil"
	"github.com/quantilejoins/qjoin/internal/yannakakis"
)

func fig1Engine(t *testing.T) *Engine {
	t.Helper()
	q, db := testutil.Fig1Instance()
	e, err := New(q, db)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewCountsAnswers(t *testing.T) {
	e := fig1Engine(t)
	if n, _ := e.Total().Uint64(); n != 13 {
		t.Fatalf("Figure 1 count = %d, want 13", n)
	}
	if got := len(e.Vars()); got != len(e.Source().Vars()) {
		t.Fatalf("vars = %d", got)
	}
}

func TestNewDecomposesCyclic(t *testing.T) {
	q := query.New(
		query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}},
		query.Atom{Rel: "S", Vars: []query.Var{"y", "z"}},
		query.Atom{Rel: "T", Vars: []query.Var{"z", "x"}},
	)
	db := relation.NewDatabase()
	db.Add(relation.FromRows("R", 2, [][]relation.Value{{1, 2}, {1, 1}}))
	db.Add(relation.FromRows("S", 2, [][]relation.Value{{2, 3}, {1, 1}}))
	db.Add(relation.FromRows("T", 2, [][]relation.Value{{3, 1}, {1, 1}}))
	e, err := New(q, db)
	if err != nil {
		t.Fatalf("cyclic query failed to decompose: %v", err)
	}
	if n, _ := e.Total().Uint64(); n != 2 {
		t.Fatalf("triangle count = %d, want 2", n)
	}
	st := e.DecompStats()
	if st == nil || st.Width != 2 || st.Bags != 2 {
		t.Fatalf("DecompStats = %+v, want width 2 over 2 bags", st)
	}
	// The compiled query is the acyclic bag rewrite; the answer layout is
	// still the source query's.
	if len(e.Query().Atoms) != 2 || len(e.Vars()) != 3 {
		t.Fatalf("bag query %s, vars %v", e.Query(), e.Vars())
	}
	if fig := fig1Engine(t); fig.DecompStats() != nil {
		t.Fatal("acyclic engine reports decomposition stats")
	}
}

func TestNewRejectsSchemaMismatch(t *testing.T) {
	q := query.New(query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}})
	db := relation.NewDatabase()
	if _, err := New(q, db); err == nil {
		t.Fatal("missing relation accepted")
	}
	db.Add(relation.FromRows("R", 1, [][]relation.Value{{1}}))
	if _, err := New(q, db); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestSelfJoinRewrite(t *testing.T) {
	// R(x,y), R(y,z): the second occurrence must be rewritten away while the
	// answer count matches the brute force over the original query.
	q := query.New(
		query.Atom{Rel: "R", Vars: []query.Var{"x", "y"}},
		query.Atom{Rel: "R", Vars: []query.Var{"y", "z"}},
	)
	db := relation.NewDatabase()
	db.Add(relation.FromRows("R", 2, [][]relation.Value{{1, 2}, {2, 3}, {2, 4}, {3, 1}}))
	e, err := New(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if e.Query().HasSelfJoins() {
		t.Fatal("rewrite still has self-joins")
	}
	want := len(testutil.BruteForce(q, db))
	if n, _ := e.Total().Uint64(); int(n) != want {
		t.Fatalf("count = %d, want %d", n, want)
	}
	// Projection positions must cover the original variables.
	if len(e.Pos()) != len(q.Vars()) {
		t.Fatalf("pos = %v", e.Pos())
	}
}

func TestDuplicateInputRows(t *testing.T) {
	q := testutil.PathQuery(2)
	db := relation.NewDatabase()
	db.Add(relation.FromRows("R1", 2, [][]relation.Value{{1, 2}, {1, 2}, {3, 4}}))
	db.Add(relation.FromRows("R2", 2, [][]relation.Value{{2, 7}, {2, 7}, {4, 1}}))
	e, err := New(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := e.Total().Uint64(); n != 2 {
		t.Fatalf("count with duplicates = %d, want 2", n)
	}
	if e.DB().Get("R1").Len() != 2 {
		t.Fatalf("R1 not deduplicated: %d rows", e.DB().Get("R1").Len())
	}
}

// Positional access preserves the answers without reducing anything: it
// reads the shared tree by the engine's counts, decodes at every position the
// answer Enumerate gives there, and leaves the tree as it found it.
func TestReducedPreservesAnswers(t *testing.T) {
	e := fig1Engine(t)
	var all [][]relation.Value
	yannakakis.Enumerate(e.Exec(), e.Counts(), func(asn []relation.Value) bool {
		all = append(all, slices.Clone(asn))
		return true
	})
	every := make([]counting.Count, len(all))
	for i := range every {
		every[i] = counting.FromInt(i)
	}
	yannakakis.AnswersAt(e.Exec(), e.Counts(), every, func(i int, asn []relation.Value) {
		if !slices.Equal(asn, all[i]) {
			t.Fatalf("position %d: AnswersAt %v, Enumerate %v", i, asn, all[i])
		}
	})
	if got := yannakakis.Count(e.Exec()).Total; got.Cmp(e.Total()) != 0 || len(all) != 13 {
		t.Fatalf("shared exec count = %s after %d positions, want %s", got, len(all), e.Total())
	}
}

func TestLazyStructuresConcurrent(t *testing.T) {
	e := fig1Engine(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Counts()
			yannakakis.Count(e.Exec())
		}()
	}
	wg.Wait()
}
