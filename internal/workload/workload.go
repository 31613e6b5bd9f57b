// Package workload generates the synthetic instances used by the examples,
// tests and benchmark harness.
//
// The paper has no experimental section, so these generators realize the
// workloads its text motivates: the social-network star join of the
// introduction, k-path queries (the dichotomy's running example), the
// hierarchical schema of Figure 1, and parameterized joins whose output size
// |Q(D)| can be swept independently of |D| (the headline "don't materialize"
// claim is about exactly this gap).
package workload

import (
	"fmt"
	"math/rand"

	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/relation"
)

// SocialNetwork is the introduction's schema and query:
// Admin(u1,e), Share(u2,e,l2), Attend(u3,e,l3), ranked by l2 + l3.
type SocialNetwork struct {
	Q  *query.Query
	DB *relation.Database
}

// NewSocialNetwork generates a social network with nEvents events, and about
// n tuples per relation. Fanout of shares/attendances per event is
// geometric-ish via random assignment; like counts are uniform in
// [0, likeMax).
func NewSocialNetwork(rng *rand.Rand, n, nEvents int, likeMax int64) *SocialNetwork {
	q := query.New(
		query.Atom{Rel: "Admin", Vars: []query.Var{"u1", "e"}},
		query.Atom{Rel: "Share", Vars: []query.Var{"u2", "e", "l2"}},
		query.Atom{Rel: "Attend", Vars: []query.Var{"u3", "e", "l3"}},
	)
	admin := relation.New("Admin", 2)
	share := relation.New("Share", 3)
	attend := relation.New("Attend", 3)
	users := int64(n)
	for i := 0; i < n; i++ {
		e := relation.Value(rng.Intn(nEvents))
		admin.Append(rng.Int63n(users), e)
		e2 := relation.Value(rng.Intn(nEvents))
		share.Append(rng.Int63n(users), e2, rng.Int63n(likeMax))
		e3 := relation.Value(rng.Intn(nEvents))
		attend.Append(rng.Int63n(users), e3, rng.Int63n(likeMax))
	}
	db := relation.NewDatabase()
	db.Add(admin)
	db.Add(share)
	db.Add(attend)
	return &SocialNetwork{Q: q, DB: db}
}

// Path builds the k-atom path query R1(x1,x2), ..., Rk(xk,xk+1) with n
// tuples per relation and join attributes drawn from [0, dom). Smaller dom
// means larger fanout and a larger answer set.
func Path(rng *rand.Rand, k, n int, dom int64) (*query.Query, *relation.Database) {
	var atoms []query.Atom
	db := relation.NewDatabase()
	for i := 1; i <= k; i++ {
		name := fmt.Sprintf("R%d", i)
		atoms = append(atoms, query.Atom{
			Rel:  name,
			Vars: []query.Var{query.Var(fmt.Sprintf("x%d", i)), query.Var(fmt.Sprintf("x%d", i+1))},
		})
		rel := relation.New(name, 2)
		for j := 0; j < n; j++ {
			rel.Append(rng.Int63n(dom), rng.Int63n(dom))
		}
		db.Add(rel)
	}
	return query.New(atoms...), db
}

// Cycle builds the k-cycle query E1(c1,c2), ..., Ek(ck,c1) with n tuples per
// relation over [0, dom): the triangle at k=3.
func Cycle(rng *rand.Rand, k, n int, dom int64) (*query.Query, *relation.Database) {
	var atoms []query.Atom
	db := relation.NewDatabase()
	for i := 1; i <= k; i++ {
		name := fmt.Sprintf("E%d", i)
		atoms = append(atoms, query.Atom{
			Rel:  name,
			Vars: []query.Var{query.Var(fmt.Sprintf("c%d", i)), query.Var(fmt.Sprintf("c%d", i%k+1))},
		})
		rel := relation.New(name, 2)
		for j := 0; j < n; j++ {
			rel.Append(rng.Int63n(dom), rng.Int63n(dom))
		}
		db.Add(rel)
	}
	return query.New(atoms...), db
}

// Star builds a k-leaf star A1(e,y1), ..., Ak(e,yk) with n tuples per
// relation, events drawn from [0, nEvents), and leaf values from [0, dom).
// |Q(D)| ≈ nEvents · (n/nEvents)^k, so nEvents directly controls the
// output-size blowup at fixed input size.
func Star(rng *rand.Rand, k, n, nEvents int, dom int64) (*query.Query, *relation.Database) {
	var atoms []query.Atom
	db := relation.NewDatabase()
	for i := 1; i <= k; i++ {
		name := fmt.Sprintf("A%d", i)
		atoms = append(atoms, query.Atom{
			Rel:  name,
			Vars: []query.Var{"e", query.Var(fmt.Sprintf("y%d", i))},
		})
		rel := relation.New(name, 2)
		for j := 0; j < n; j++ {
			rel.Append(relation.Value(rng.Intn(nEvents)), rng.Int63n(dom))
		}
		db.Add(rel)
	}
	return query.New(atoms...), db
}

// Hierarchy builds the Figure 1 schema R(x1,x2), S(x1,x3), T(x2,x4),
// U(x4,x5) with n tuples per relation and join keys from [0, dom).
func Hierarchy(rng *rand.Rand, n int, dom int64) (*query.Query, *relation.Database) {
	q := query.New(
		query.Atom{Rel: "R", Vars: []query.Var{"x1", "x2"}},
		query.Atom{Rel: "S", Vars: []query.Var{"x1", "x3"}},
		query.Atom{Rel: "T", Vars: []query.Var{"x2", "x4"}},
		query.Atom{Rel: "U", Vars: []query.Var{"x4", "x5"}},
	)
	db := relation.NewDatabase()
	for _, name := range []string{"R", "S", "T", "U"} {
		rel := relation.New(name, 2)
		for j := 0; j < n; j++ {
			rel.Append(rng.Int63n(dom), rng.Int63n(dom))
		}
		db.Add(rel)
	}
	return q, db
}

// ProductCatalog models the MIN/MAX motivation (MAX(width, height, depth)):
// Product(p, w), Dim2(p, h), Dim3(p, d) over nProducts products.
func ProductCatalog(rng *rand.Rand, n, nProducts int, dimMax int64) (*query.Query, *relation.Database) {
	q := query.New(
		query.Atom{Rel: "Width", Vars: []query.Var{"p", "w"}},
		query.Atom{Rel: "Height", Vars: []query.Var{"p", "h"}},
		query.Atom{Rel: "Depth", Vars: []query.Var{"p", "d"}},
	)
	db := relation.NewDatabase()
	for _, name := range []string{"Width", "Height", "Depth"} {
		rel := relation.New(name, 2)
		for j := 0; j < n; j++ {
			rel.Append(relation.Value(rng.Intn(nProducts)), 1+rng.Int63n(dimMax))
		}
		db.Add(rel)
	}
	return q, db
}
