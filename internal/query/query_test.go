package query

import (
	"testing"

	"github.com/quantilejoins/qjoin/internal/relation"
)

func path3() *Query {
	return New(
		Atom{Rel: "R1", Vars: []Var{"x1", "x2"}},
		Atom{Rel: "R2", Vars: []Var{"x2", "x3"}},
		Atom{Rel: "R3", Vars: []Var{"x3", "x4"}},
	)
}

func TestVarsOrder(t *testing.T) {
	q := path3()
	vs := q.Vars()
	want := []Var{"x1", "x2", "x3", "x4"}
	if len(vs) != len(want) {
		t.Fatalf("Vars = %v", vs)
	}
	for i := range want {
		if vs[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", vs, want)
		}
	}
	idx := q.VarIndex()
	if idx["x3"] != 2 {
		t.Fatalf("VarIndex = %v", idx)
	}
}

func TestUniqueVars(t *testing.T) {
	a := Atom{Rel: "R", Vars: []Var{"x", "y", "x"}}
	u := a.UniqueVars()
	if len(u) != 2 || u[0] != "x" || u[1] != "y" {
		t.Fatalf("UniqueVars = %v", u)
	}
}

func TestHasVarAndAtomsWithVar(t *testing.T) {
	q := path3()
	if !q.HasVar("x2") || q.HasVar("z") {
		t.Fatal("HasVar wrong")
	}
	got := q.AtomsWithVar("x3")
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("AtomsWithVar = %v", got)
	}
}

func TestSelfJoins(t *testing.T) {
	q := New(
		Atom{Rel: "R", Vars: []Var{"x", "y"}},
		Atom{Rel: "R", Vars: []Var{"y", "z"}},
	)
	if !q.HasSelfJoins() {
		t.Fatal("self join not detected")
	}
	if path3().HasSelfJoins() {
		t.Fatal("false self join")
	}
	db := relation.NewDatabase()
	db.Add(relation.FromRows("R", 2, [][]relation.Value{{1, 2}, {2, 3}}))
	q2, db2 := EliminateSelfJoins(q, db)
	if q2.HasSelfJoins() {
		t.Fatal("self join survived elimination")
	}
	if q2.Atoms[0].Rel != "R" {
		t.Fatal("first occurrence must keep its name")
	}
	fresh := q2.Atoms[1].Rel
	if fresh == "R" || db2.Get(fresh) == nil {
		t.Fatalf("fresh relation %q missing", fresh)
	}
	if db2.Get(fresh).Len() != 2 {
		t.Fatal("fresh relation contents wrong")
	}
	// Original query untouched.
	if q.Atoms[1].Rel != "R" {
		t.Fatal("input query mutated")
	}
}

func TestEliminateSelfJoinsNoop(t *testing.T) {
	q := path3()
	db := relation.NewDatabase()
	q2, db2 := EliminateSelfJoins(q, db)
	if q2 != q || db2 != db {
		t.Fatal("self-join-free input must pass through unchanged")
	}
}

func TestValidate(t *testing.T) {
	db := relation.NewDatabase()
	db.Add(relation.FromRows("R1", 2, nil))
	db.Add(relation.FromRows("R2", 2, nil))
	db.Add(relation.FromRows("R3", 2, nil))
	if err := path3().Validate(db); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	if err := New().Validate(db); err == nil {
		t.Fatal("empty query accepted")
	}
	bad := New(Atom{Rel: "Missing", Vars: []Var{"x"}})
	if err := bad.Validate(db); err == nil {
		t.Fatal("missing relation accepted")
	}
	wrong := New(Atom{Rel: "R1", Vars: []Var{"x"}})
	if err := wrong.Validate(db); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestFreshVar(t *testing.T) {
	q := path3()
	if FreshVar(q, "v") != "v" {
		t.Fatal("unused base must be returned as-is")
	}
	if got := FreshVar(q, "x1"); got == "x1" || q.HasVar(got) {
		t.Fatalf("FreshVar = %v", got)
	}
}

func TestFreshRelName(t *testing.T) {
	db := relation.NewDatabase()
	db.Add(relation.New("R", 1))
	n1 := FreshRelName(db, "R")
	if db.Has(n1) || n1 == "R" {
		t.Fatalf("FreshRelName = %q", n1)
	}
}

func TestCloneIndependence(t *testing.T) {
	q := path3()
	c := q.Clone()
	c.Atoms[0].Vars[0] = "zz"
	if q.Atoms[0].Vars[0] != "x1" {
		t.Fatal("clone shares variable slices")
	}
}

func TestString(t *testing.T) {
	if path3().String() != "R1(x1,x2), R2(x2,x3), R3(x3,x4)" {
		t.Fatalf("String = %q", path3().String())
	}
}
