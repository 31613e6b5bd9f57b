// Package query models Join Queries (JQs): conjunctions of relational atoms
// over shared variables, per Section 2.1 of the paper.
//
// A query answer is a homomorphism from the query to the database. Repeated
// variables within an atom (e.g. R(x,x)) and self-joins (a relation symbol
// used by several atoms) are both supported in source queries; everything
// below the engine runs on the form Normalize rewrites them to — one relation
// per atom, no variable twice in an atom (Section 2.2's linear-time
// preprocessing). This package is the one owner of that rewrite and of the
// row rule behind it (RowMap).
package query

import (
	"fmt"
	"slices"
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

// RepeatsVar reports whether some variable occurs at two positions of the
// atom.
func (a Atom) RepeatsVar() bool {
	for j, v := range a.Vars {
		if slices.Contains(a.Vars[:j], v) {
			return true
		}
	}
	return false
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
	n := 0
	for _, a := range q.Atoms {
		n += len(a.Vars)
	}
	out := make([]Var, 0, n) // one allocation: the drivers ask per run
	for _, a := range q.Atoms {
		for _, v := range a.Vars {
			if !slices.Contains(out, v) {
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

// IsNormalized reports whether q is in the form Normalize produces: no
// relation symbol in two atoms and no variable twice in one atom.
func (q *Query) IsNormalized() bool {
	return !q.HasSelfJoins() && !slices.ContainsFunc(q.Atoms, Atom.RepeatsVar)
}

// RowMap is the rule by which an atom's rows derive from the rows of the
// relation it names: a row whose repeated-variable positions disagree matches
// nothing and is dropped, and every other row is projected onto the first
// occurrence of each variable — injective on the rows kept, so distinct rows
// stay distinct. The map of an atom without a repeated variable is the
// identity.
type RowMap struct {
	cols []int    // the columns kept: each variable's first occurrence, in order
	eq   [][2]int // (later, first) occurrences a row must agree on
}

// RowMapOf returns the row map of an atom.
func RowMapOf(a Atom) RowMap {
	var m RowMap
	for j, v := range a.Vars {
		if f := slices.Index(a.Vars, v); f == j {
			m.cols = append(m.cols, j)
		} else {
			m.eq = append(m.eq, [2]int{j, f})
		}
	}
	return m
}

// Identity reports whether the map keeps every row as it is.
func (m RowMap) Identity() bool { return len(m.eq) == 0 }

// Rows maps a list of rows; the identity returns the list itself.
func (m RowMap) Rows(rows [][]relation.Value) [][]relation.Value {
	if m.Identity() {
		return rows
	}
	var out [][]relation.Value
	for _, row := range rows {
		if !slices.ContainsFunc(m.eq, func(p [2]int) bool { return row[p[0]] != row[p[1]] }) {
			out = append(out, relation.Gather(nil, row, m.cols))
		}
	}
	return out
}

// Relation maps a whole relation under a new name: a view sharing r's columns
// for the identity, one pass over r otherwise.
func (m RowMap) Relation(name string, r *relation.Relation) *relation.Relation {
	if m.Identity() {
		return r.Rename(name)
	}
	cols := r.Cols()
	var keep []int
	for i := 0; i < r.Len(); i++ {
		if !slices.ContainsFunc(m.eq, func(p [2]int) bool { return cols[p[0]][i] != cols[p[1]][i] }) {
			keep = append(keep, i)
		}
	}
	out := r.GatherRowsCols(name, keep, m.cols)
	if r.IsDistinct() {
		out.MarkDistinct()
	}
	return out
}

// Normalize returns an equivalent query and database in normal form
// (IsNormalized). An atom keeps its relation when it repeats no variable and
// no earlier atom kept the same one; every other atom is bound to a fresh
// symbol (FreshRelName) holding its RowMapOf of the relation — a view for a
// plain self-join occurrence — and lists each of its variables once. Atom i of the
// result answers for atom i of q, the variables keep their first-appearance
// order, and every relation of db stays in the result under its own name, so a
// change to a source relation reaches atom i as RowMapOf(q.Atoms[i]).Rows of
// the changed rows. A query already in normal form comes back with db, both
// unchanged.
func Normalize(q *Query, db *relation.Database) (*Query, *relation.Database) {
	return rewrite(q, db, RowMapOf)
}

// EliminateSelfJoins is Normalize for self-joins alone (Section 2.2 of the
// paper): atoms keep their variable lists, repeated or not.
func EliminateSelfJoins(q *Query, db *relation.Database) (*Query, *relation.Database) {
	return rewrite(q, db, func(Atom) RowMap { return RowMap{} })
}

func rewrite(q *Query, db *relation.Database, mapOf func(Atom) RowMap) (*Query, *relation.Database) {
	q2, db2 := q, db
	seen := make(map[string]bool, len(q.Atoms))
	for i, a := range q.Atoms {
		m := mapOf(a)
		if !seen[a.Rel] && m.Identity() {
			seen[a.Rel] = true // a keeps its relation
			continue
		}
		if q2 == q {
			q2, db2 = q.Clone(), db.View()
		}
		fresh := FreshRelName(db2, a.Rel)
		db2.Add(m.Relation(fresh, db.Get(a.Rel)))
		q2.Atoms[i].Rel = fresh
		if !m.Identity() {
			q2.Atoms[i].Vars = a.UniqueVars()
		}
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
