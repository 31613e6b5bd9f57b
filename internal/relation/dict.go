package relation

// Dict interns strings to dense int64 ids so string data can live in
// ordinary columns: a "string column" is an int64 column of dict ids, and
// every execution-layer pass (hashing, grouping, trimming, counting) treats
// it exactly like integer data. Ids are assigned in first-appearance order
// starting at 0, which makes loads deterministic and keeps id comparisons
// meaningful as equality (not ordering) tests.
//
// A Dict is append-only: an id once assigned never changes and is never
// reused, so a dictionary may be shared by every database derived from a
// load (Clone, trims, incremental updates) without copying. It is not safe
// for concurrent mutation; concurrent read-only access (Lookup, Strings)
// is safe once loading is done.
type Dict struct {
	ids  map[string]Value
	strs []string
}

// NewDict returns an empty string dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]Value)}
}

// Intern returns the id of s, assigning the next dense id on first sight.
func (d *Dict) Intern(s string) Value {
	if id, ok := d.ids[s]; ok {
		return id
	}
	id := Value(len(d.strs))
	d.ids[s] = id
	d.strs = append(d.strs, s)
	return id
}

// Lookup returns the id of s if it was interned before.
func (d *Dict) Lookup(s string) (Value, bool) {
	id, ok := d.ids[s]
	return id, ok
}

// Len returns the number of interned strings; ids are exactly [0, Len()).
func (d *Dict) Len() int { return len(d.strs) }

// Strings returns the interned strings in id order (string i has id i). The
// slice is the dictionary's own storage and must be treated as read-only —
// it exists so a snapshot can serialize the dictionary, and re-interning the
// strings in this order reproduces every id exactly.
func (d *Dict) Strings() []string { return d.strs }
