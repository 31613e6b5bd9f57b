// Package query models Join Queries (JQs): conjunctions of relational atoms
// over shared variables, per Section 2.1 of the paper.
//
// A query answer is a homomorphism from the query to the database. Repeated
// variables within an atom (e.g. R(x,x)) and self-joins (a relation symbol
// used by several atoms) are both supported; the quantile algorithms first
// eliminate self-joins by materializing a fresh relation per occurrence
// (Section 2.2, "tuple weights"), which this package implements.
package query

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/quantilejoins/qjoin/internal/relation"
)

// Var is a query variable.
type Var string

// Atom is a single relational atom R(x1, ..., xk). Vars may repeat, which
// constrains the corresponding tuple positions to be equal.
type Atom struct {
	Rel  string
	Vars []Var
}

// UniqueVars returns the distinct variables of the atom in first-appearance
// order.
func (a Atom) UniqueVars() []Var {
	seen := make(map[Var]bool, len(a.Vars))
	out := make([]Var, 0, len(a.Vars))
	for _, v := range a.Vars {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// HasVar reports whether the atom mentions v.
func (a Atom) HasVar(v Var) bool {
	for _, x := range a.Vars {
		if x == v {
			return true
		}
	}
	return false
}

// String renders the atom as R(x,y).
func (a Atom) String() string {
	parts := make([]string, len(a.Vars))
	for i, v := range a.Vars {
		parts[i] = string(v)
	}
	return a.Rel + "(" + strings.Join(parts, ",") + ")"
}

// Query is a Join Query: a non-empty list of atoms.
type Query struct {
	Atoms []Atom
}

// New builds a query from atoms.
func New(atoms ...Atom) *Query { return &Query{Atoms: atoms} }

// Vars returns the distinct variables of the query in first-appearance order.
// This order is the canonical answer layout used throughout the library.
func (q *Query) Vars() []Var {
	seen := make(map[Var]bool)
	var out []Var
	for _, a := range q.Atoms {
		for _, v := range a.Vars {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// VarIndex returns a map from variable to its position in Vars().
func (q *Query) VarIndex() map[Var]int {
	vs := q.Vars()
	m := make(map[Var]int, len(vs))
	for i, v := range vs {
		m[v] = i
	}
	return m
}

// HasVar reports whether any atom mentions v.
func (q *Query) HasVar(v Var) bool {
	for _, a := range q.Atoms {
		if a.HasVar(v) {
			return true
		}
	}
	return false
}

// AtomsWithVar returns the indexes of atoms mentioning v.
func (q *Query) AtomsWithVar(v Var) []int {
	var out []int
	for i, a := range q.Atoms {
		if a.HasVar(v) {
			out = append(out, i)
		}
	}
	return out
}

// HasSelfJoins reports whether some relation symbol occurs in two atoms.
func (q *Query) HasSelfJoins() bool {
	seen := make(map[string]bool)
	for _, a := range q.Atoms {
		if seen[a.Rel] {
			return true
		}
		seen[a.Rel] = true
	}
	return false
}

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	out := &Query{Atoms: make([]Atom, len(q.Atoms))}
	for i, a := range q.Atoms {
		out.Atoms[i] = Atom{Rel: a.Rel, Vars: append([]Var(nil), a.Vars...)}
	}
	return out
}

// String renders the query as a comma-separated atom list.
func (q *Query) String() string {
	parts := make([]string, len(q.Atoms))
	for i, a := range q.Atoms {
		parts[i] = a.String()
	}
	return strings.Join(parts, ", ")
}

// Validate checks the query against a database: every atom's relation must
// exist and have the atom's arity, and the query must have at least one atom.
func (q *Query) Validate(db *relation.Database) error {
	if len(q.Atoms) == 0 {
		return fmt.Errorf("query: no atoms")
	}
	for _, a := range q.Atoms {
		r := db.Get(a.Rel)
		if r == nil {
			return fmt.Errorf("query: relation %q not in database", a.Rel)
		}
		if r.Arity() != len(a.Vars) {
			return fmt.Errorf("query: atom %s has %d variables but relation has arity %d",
				a, len(a.Vars), r.Arity())
		}
		if len(a.Vars) == 0 {
			return fmt.Errorf("query: zero-arity atom %s not allowed in user queries", a)
		}
	}
	return nil
}

// EliminateSelfJoins returns an equivalent self-join-free query and database.
// Every repeated relation symbol occurrence after the first is rewritten to a
// fresh symbol bound to a clone of the relation (Section 2.2 of the paper).
// If the query is already self-join free, the inputs are returned unchanged.
func EliminateSelfJoins(q *Query, db *relation.Database) (*Query, *relation.Database) {
	if !q.HasSelfJoins() {
		return q, db
	}
	q2 := q.Clone()
	db2 := relation.NewDatabase()
	for _, name := range db.Names() {
		db2.Add(db.Get(name))
	}
	seen := make(map[string]int)
	for i := range q2.Atoms {
		rel := q2.Atoms[i].Rel
		seen[rel]++
		if seen[rel] == 1 {
			continue
		}
		fresh := FreshRelName(db2, rel)
		db2.Add(db.Get(rel).Clone().Rename(fresh))
		q2.Atoms[i].Rel = fresh
	}
	return q2, db2
}

// FreshRelName returns a relation name derived from base that is unused in db.
func FreshRelName(db *relation.Database, base string) string {
	for i := 2; ; i++ {
		cand := base + "·" + strconv.Itoa(i)
		if !db.Has(cand) {
			return cand
		}
	}
}

// FreshVar returns a variable name derived from base that is unused in q.
func FreshVar(q *Query, base string) Var {
	if !q.HasVar(Var(base)) {
		return Var(base)
	}
	for i := 2; ; i++ {
		cand := Var(base + strconv.Itoa(i))
		if !q.HasVar(cand) {
			return cand
		}
	}
}
