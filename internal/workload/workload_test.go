package workload

import (
	"math/rand"
	"testing"

	"github.com/quantilejoins/qjoin/internal/hypergraph"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/relation"
)

func checkInstance(t *testing.T, q *query.Query, db *relation.Database, wantAtoms int) {
	t.Helper()
	if len(q.Atoms) != wantAtoms {
		t.Fatalf("atoms = %d, want %d", len(q.Atoms), wantAtoms)
	}
	if err := q.Validate(db); err != nil {
		t.Fatal(err)
	}
	h, _ := hypergraph.FromQuery(q)
	if !h.IsAcyclic() {
		t.Fatalf("generator produced a cyclic query: %s", q)
	}
	if db.Size() == 0 {
		t.Fatal("empty database")
	}
}

func TestSocialNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sn := NewSocialNetwork(rng, 100, 10, 50)
	checkInstance(t, sn.Q, sn.DB, 3)
	if sn.DB.Size() != 300 {
		t.Fatalf("size = %d", sn.DB.Size())
	}
	// Likes must be within range.
	share := sn.DB.Get("Share")
	for i := 0; i < share.Len(); i++ {
		if l := share.Get(i, 2); l < 0 || l >= 50 {
			t.Fatalf("like count %d out of range", l)
		}
	}
}

func TestPathStarHierarchy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	q, db := Path(rng, 3, 50, 8)
	checkInstance(t, q, db, 3)
	q, db = Star(rng, 4, 50, 5, 100)
	checkInstance(t, q, db, 4)
	q, db = Hierarchy(rng, 50, 8)
	checkInstance(t, q, db, 4)
	q, db = ProductCatalog(rng, 50, 10, 100)
	checkInstance(t, q, db, 3)
}

func TestDeterminism(t *testing.T) {
	a1, db1 := Path(rand.New(rand.NewSource(7)), 2, 20, 5)
	a2, db2 := Path(rand.New(rand.NewSource(7)), 2, 20, 5)
	if a1.String() != a2.String() {
		t.Fatal("queries differ across identical seeds")
	}
	for _, name := range db1.Names() {
		if !db1.Get(name).Equal(db2.Get(name)) {
			t.Fatal("databases differ across identical seeds")
		}
	}
}
