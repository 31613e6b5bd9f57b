package jointree

import "github.com/quantilejoins/qjoin/internal/query"

// ShapeOf returns an Exec of q over t that holds no data: enough for the
// shape decision of DeriveGathered.
func ShapeOf(q *query.Query, t *Tree) *Exec {
	return &Exec{Q: q, T: t, shapes: newShapes(q)}
}

// KeepsShape is DeriveGathered's decision on e for q, e.Q with an identifier
// on the atoms of ids; when it keeps the tree, the returned Exec of q over
// e.T carries the record a derived tree would.
func (e *Exec) KeepsShape(q *query.Query, ids uint64) (*Exec, bool) {
	rec, ok := e.shapes.keeps(q, e.T, ids)
	return &Exec{Q: q, T: e.T, shapes: rec}, ok
}
