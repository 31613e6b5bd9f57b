// Package relation implements the in-memory relational substrate: typed
// values, relations with flat column-major storage, and databases.
//
// The paper's model of computation is the RAM model over finite relations;
// every algorithm in this repository operates on these structures. Storage is
// one flat []Value per column (column-major): the counting, pivoting and
// trimming passes read a handful of columns per relation, and a columnar
// layout turns each of those passes into branch-free sequential scans over
// contiguous int64 arrays. Row-oriented construction goes through bulk
// primitives (GatherRows, Concat) that copy whole column
// segments, so building trimmed copies of the database — which the quantile
// algorithms do constantly — costs a few memmoves per column rather than one
// append per row.
//
// Values are int64. String data enters through a per-database Dict that
// interns strings to dense ids in first-appearance order; a "string column"
// is an ordinary int64 column holding dict ids, so the execution layers never
// see a string.
package relation

import (
	"fmt"
	"sync/atomic"
)

// Value is a database constant. The weight functions of ranking packages map
// Values to int64 weights; by default the value is its own weight. String
// constants are represented as dense Dict ids (see Database.Dict).
type Value = int64

// Relation is a finite relation with a fixed arity.
type Relation struct {
	name  string
	arity int
	n     int
	cols  [][]Value // arity column vectors, each of length n
	// distinct marks relations known to be duplicate-free. Relations are
	// sets (Section 2.1); the marker lets the execution layer skip
	// re-deduplication of relations produced by its own constructions.
	distinct bool
	// set is the result of Deduped — a distinct-marked header over these
	// columns when no row was dropped, the gathered copy of a relation with
	// duplicate rows otherwise — kept so that every plan compiled over this
	// relation holds the same one and no later compile hashes its rows again:
	// what the plans of one input retain does not depend on whether it held a
	// duplicate. A write to the relation (AppendRow, Set) forgets it.
	set atomic.Pointer[Relation]
}

// New returns an empty relation with the given name and arity.
// Arity 0 is allowed (used for artificial join-tree roots).
func New(name string, arity int) *Relation {
	if arity < 0 {
		panic("relation: negative arity")
	}
	return &Relation{name: name, arity: arity, cols: make([][]Value, arity)}
}

// NewWithCapacity returns an empty relation preallocated for rows tuples.
func NewWithCapacity(name string, arity, rows int) *Relation {
	r := New(name, arity)
	if rows > 0 {
		for j := range r.cols {
			r.cols[j] = make([]Value, 0, rows)
		}
	}
	return r
}

// MarkDistinct records that the relation holds no duplicate rows.
// The caller is responsible for the claim being true.
func (r *Relation) MarkDistinct() *Relation { r.distinct = true; return r }

// IsDistinct reports whether the relation is known duplicate-free.
func (r *Relation) IsDistinct() bool { return r.distinct }

// Deduped returns the relation itself when known distinct, otherwise its
// first occurrences in order, marked distinct. When no row is dropped the
// result is a view — a header of its own over the receiver's columns — so a
// duplicate-free input is never copied; the marker goes on the view, never on
// the receiver. When rows are dropped the result is a gathered copy. Either
// result is remembered by the receiver until it is next written to:
// concurrent and later compiles over one input share it, whichever of them
// made it, and only the first hashes the rows. Either way the receiver's
// columns must be treated as read-only from here on.
func (r *Relation) Deduped() *Relation {
	if r.distinct {
		return r
	}
	if set := r.set.Load(); set != nil {
		return set
	}
	seen := NewInterner(r.arity, r.n)
	keep := make([]int, 0, r.n)
	all := make([]int, r.arity)
	for j := range all {
		all[j] = j
	}
	for i, h := range HashRows(nil, r.cols, all, r.n) {
		if _, fresh := seen.InternAt(r.cols, all, i, h); fresh {
			keep = append(keep, i)
		}
	}
	return r.distinctRows(keep)
}

// DedupedWorkers is Deduped; workers is unread. Kept for the bench module's
// probes, which call it by this name.
func (r *Relation) DedupedWorkers(_ int) *Relation { return r.Deduped() }

// distinctRows returns the rows at keep — ascending first occurrences — marked
// distinct: a view of r when that is every row, otherwise a gathered copy.
// Either way r remembers it.
func (r *Relation) distinctRows(keep []int) *Relation {
	var out *Relation
	if len(keep) == r.n {
		out = r.Rename(r.name)
	} else {
		out = r.GatherRows(r.name, keep)
	}
	out.distinct = true
	if !r.set.CompareAndSwap(nil, out) {
		if won := r.set.Load(); won != nil {
			return won // a concurrent compile got there first: take its result
		}
	}
	return out
}

// FromRows builds a relation from explicit rows. Every row must have the
// declared arity.
func FromRows(name string, arity int, rows [][]Value) *Relation {
	r := NewWithCapacity(name, arity, len(rows))
	for _, row := range rows {
		r.AppendRow(row)
	}
	return r
}

// FromColumns builds a relation directly from column vectors, taking
// ownership of the slices (no copy). Every column must have the same length.
// This is the snapshot-restore constructor: decoded column data becomes a
// relation in O(arity) without a row loop, and the distinct marker is
// restored exactly as recorded — the caller vouches for it, the same contract
// as MarkDistinct.
func FromColumns(name string, cols [][]Value, distinct bool) *Relation {
	n := 0
	if len(cols) > 0 {
		n = len(cols[0])
	}
	for j, col := range cols {
		if len(col) != n {
			panic(fmt.Sprintf("relation %s: column %d has %d values, want %d", name, j, len(col), n))
		}
	}
	return &Relation{name: name, arity: len(cols), n: n, cols: cols, distinct: distinct}
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Rename returns the same relation data under a different name. The column
// vectors are shared; use Clone first if independent mutation is needed.
func (r *Relation) Rename(name string) *Relation {
	return &Relation{name: name, arity: r.arity, n: r.n, cols: r.cols, distinct: r.distinct}
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.n }

// Col returns column j as a view into the backing store. Callers must treat
// it as read-only and must not retain it across mutations. This is the hot
// accessor: scans read the few columns they need as contiguous arrays.
func (r *Relation) Col(j int) []Value { return r.cols[j] }

// Cols returns all column vectors. Same aliasing contract as Col.
func (r *Relation) Cols() [][]Value { return r.cols }

// AppendRow appends one tuple. The row slice is copied.
func (r *Relation) AppendRow(row []Value) {
	if len(row) != r.arity {
		panic(fmt.Sprintf("relation %s: row arity %d, want %d", r.name, len(row), r.arity))
	}
	for j, v := range row {
		r.cols[j] = append(r.cols[j], v)
	}
	r.n++
	r.written()
}

// written forgets the remembered copy of a relation whose rows just changed.
// The load keeps a row-by-row build off the atomic store.
func (r *Relation) written() {
	if r.set.Load() != nil {
		r.set.Store(nil)
	}
}

// Append appends one tuple given as variadic values.
func (r *Relation) Append(vals ...Value) { r.AppendRow(vals) }

// CopyRow gathers tuple i into dst and returns dst[:arity], growing dst when
// it is too small. For per-row access on cold paths; hot loops read columns.
func (r *Relation) CopyRow(dst []Value, i int) []Value {
	if cap(dst) < r.arity {
		dst = make([]Value, r.arity)
	}
	dst = dst[:r.arity]
	for j, col := range r.cols {
		dst[j] = col[i]
	}
	return dst
}

// RowValues returns tuple i as a freshly allocated slice. Debug/test helper.
func (r *Relation) RowValues(i int) []Value {
	return r.CopyRow(make([]Value, r.arity), i)
}

// Get returns column j of tuple i.
func (r *Relation) Get(i, j int) Value { return r.cols[j][i] }

// Set assigns column j of tuple i.
func (r *Relation) Set(i, j int, v Value) {
	r.cols[j][i] = v
	r.written()
}

// Clone returns a deep copy.
func (r *Relation) Clone() *Relation { return r.CloneCap(0) }

// CloneCap is Clone with spare capacity for extra more rows — one bulk copy
// per column instead of per-row appends, for the append-only incremental
// paths.
func (r *Relation) CloneCap(extra int) *Relation {
	out := New(r.name, r.arity)
	for j, col := range r.cols {
		c := make([]Value, len(col), len(col)+extra)
		copy(c, col)
		out.cols[j] = c
	}
	out.n = r.n
	out.distinct = r.distinct
	return out
}

// GatherRows returns a new relation holding src's rows at the given indexes,
// in order. Indexes may repeat; the result is not marked distinct unless the
// receiver is and the caller knows the indexes are strictly ascending (use
// MarkDistinct then). One gather loop per column — the bulk primitive behind
// filters, dedup and the trim emissions.
func (r *Relation) GatherRows(name string, rows []int) *Relation {
	out := New(name, r.arity)
	for j, col := range r.cols {
		dst := make([]Value, len(rows))
		for k, i := range rows {
			dst[k] = col[i]
		}
		out.cols[j] = dst
	}
	out.n = len(rows)
	return out
}

// GatherRowsCols returns a new relation holding the selected columns of
// src's rows at the given indexes, in order: a row selection and a column
// projection in one pass (query.Normalize binds repeated-variable atoms to
// such relations).
func (r *Relation) GatherRowsCols(name string, rows []int, pos []int) *Relation {
	out := New(name, len(pos))
	for j, c := range pos {
		col := r.cols[c]
		dst := make([]Value, len(rows))
		for k, i := range rows {
			dst[k] = col[i]
		}
		out.cols[j] = dst
	}
	out.n = len(rows)
	return out
}

// GatherRowsPlus is GatherRows with one extra trailing column — the shape of
// every partition/segment construction: copy selected rows, tag each with an
// identifier — over a partitioned plan: the rows are r's at the indexes of
// rowParts, part after part, as if the lists were concatenated first, and the
// last column is extra itself, which the result takes over (it must hold one
// value per row). The gathered columns are carved from a (nil: allocated), so
// the result lives as long as a's carve.
func (r *Relation) GatherRowsPlus(name string, rowParts [][]int, extra []Value, a *Arena) *Relation {
	total := 0
	for _, rows := range rowParts {
		total += len(rows)
	}
	if len(extra) != total {
		panic(fmt.Sprintf("relation %s: GatherRowsPlus extra column of %d values for %d rows", name, len(extra), total))
	}
	out := New(name, r.arity+1)
	for j, col := range r.cols {
		dst := a.Values(total)
		k := 0
		for _, rows := range rowParts {
			for _, i := range rows {
				dst[k] = col[i]
				k++
			}
		}
		out.cols[j] = dst
	}
	out.cols[r.arity] = extra
	out.n = total
	return out
}

// WithoutRows returns a copy of r minus the rows at the given strictly
// ascending indexes, with spare capacity for extra more rows. The surviving
// rows keep their relative order; the copy runs segment-wise per column, so
// the cost is a handful of bulk copies rather than one hash or append per
// row.
func (r *Relation) WithoutRows(sortedIdx []int, extra int) *Relation {
	out := New(r.name, r.arity)
	n := r.n - len(sortedIdx)
	for j, col := range r.cols {
		dst := make([]Value, 0, n+extra)
		prev := 0
		for _, i := range sortedIdx {
			dst = append(dst, col[prev:i]...)
			prev = i + 1
		}
		dst = append(dst, col[prev:]...)
		out.cols[j] = dst
	}
	out.n = n
	out.distinct = r.distinct
	return out
}

// Filter returns a new relation containing the tuples for which keep returns
// true, preserving order. The predicate receives the row index; callers read
// the columns they test directly (see Col). A subset of a distinct relation
// stays distinct.
func (r *Relation) Filter(keep func(i int) bool) *Relation {
	var rows []int
	for i := range r.n {
		if keep(i) {
			rows = append(rows, i)
		}
	}
	out := r.GatherRows(r.name, rows)
	out.distinct = r.distinct
	return out
}

// Equal reports whether two relations have identical name, arity and tuple
// sequence.
func (r *Relation) Equal(o *Relation) bool {
	if r.name != o.name || r.arity != o.arity || r.n != o.n {
		return false
	}
	for j, col := range r.cols {
		ocol := o.cols[j]
		for i, v := range col {
			if ocol[i] != v {
				return false
			}
		}
	}
	return true
}

// String renders a compact debug form.
func (r *Relation) String() string {
	return fmt.Sprintf("%s/%d[%d tuples]", r.name, r.arity, r.Len())
}

// Database is a named collection of relations with stable iteration order.
type Database struct {
	rels  map[string]*Relation
	order []string
	dict  *Dict
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{rels: make(map[string]*Relation)}
}

// Add inserts or replaces a relation under its name.
func (db *Database) Add(r *Relation) {
	if _, ok := db.rels[r.Name()]; !ok {
		db.order = append(db.order, r.Name())
	}
	db.rels[r.Name()] = r
}

// Get returns the relation with the given name, or nil.
func (db *Database) Get(name string) *Relation { return db.rels[name] }

// Has reports whether a relation with the given name exists.
func (db *Database) Has(name string) bool { _, ok := db.rels[name]; return ok }

// Names returns relation names in insertion order.
func (db *Database) Names() []string { return append([]string(nil), db.order...) }

// Size returns the total number of tuples across all relations — the paper's
// n = |D|.
func (db *Database) Size() int {
	n := 0
	for _, name := range db.order {
		n += db.rels[name].Len()
	}
	return n
}

// Dict returns the database's string dictionary, creating it on first use.
// The dictionary is append-only: ids are dense and assigned in
// first-appearance order, and an id once assigned never changes — so derived
// databases (Clone, trims, incremental updates) share it safely.
func (db *Database) Dict() *Dict {
	if db.dict == nil {
		db.dict = NewDict()
	}
	return db.dict
}

// SetDict attaches an existing dictionary (loader wiring). A nil d is
// ignored.
func (db *Database) SetDict(d *Dict) {
	if d != nil {
		db.dict = d
	}
}

// Clone returns a deep copy of the database's relations. The string
// dictionary is shared, not copied: it is append-only, so ids remain valid
// in every derived database.
func (db *Database) Clone() *Database {
	out := NewDatabase()
	for _, name := range db.order {
		out.Add(db.rels[name].Clone())
	}
	out.dict = db.dict
	return out
}

// View returns a new database over the same relations and dictionary, shared
// rather than copied: the base of every derivation that replaces or adds a
// few relations and leaves the receiver as it was.
func (db *Database) View() *Database {
	out := NewDatabase()
	for _, name := range db.order {
		out.Add(db.rels[name])
	}
	out.dict = db.dict
	return out
}

// String renders a compact debug form.
func (db *Database) String() string {
	s := "db{"
	for i, name := range db.order {
		if i > 0 {
			s += ", "
		}
		s += db.rels[name].String()
	}
	return s + "}"
}
