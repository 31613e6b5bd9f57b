package relation

// Arena is storage that the arrays of one short-lived instance are carved
// from, and that is recycled whole: Reset hands every array back at once, and
// the next instance is carved from the same memory. A carve that does not fit
// is allocated on its own, and the next Reset grows the arena to everything
// carved since the last one, so an arena that serves instances of a steady
// size stops allocating after its first. Carved arrays hold whatever was there
// before — a caller writes every element it reads — and are capped at their
// length, so an append never runs into a neighbour. An arena is not safe for
// concurrent carving. The nil *Arena allocates every array fresh.
type Arena struct {
	vals    pile[Value]
	ints    pile[int]
	int32s  pile[int32]
	lists   pile[[]int]
	lists32 pile[[]int32]
}

// pile is an arena of one element type.
type pile[T any] struct {
	buf  []T
	used int
	want int // carved since the last reset
}

func (p *pile[T]) carve(n int) []T {
	p.want += n
	if n > len(p.buf)-p.used {
		return make([]T, n)
	}
	s := p.buf[p.used : p.used+n : p.used+n]
	p.used += n
	return s
}

func (p *pile[T]) reset() {
	if p.want > len(p.buf) {
		p.buf = make([]T, p.want)
	}
	p.used, p.want = 0, 0
}

// Reset recycles every array carved from the arena since the last Reset: none
// of them may be read or written after it.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.vals.reset()
	a.ints.reset()
	a.int32s.reset()
	a.lists.reset()
	a.lists32.reset()
}

// Values carves n values.
func (a *Arena) Values(n int) []Value {
	if a == nil {
		return make([]Value, n)
	}
	return a.vals.carve(n)
}

// Ints carves n ints.
func (a *Arena) Ints(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	return a.ints.carve(n)
}

// Int32s carves n int32s.
func (a *Arena) Int32s(n int) []int32 {
	if a == nil {
		return make([]int32, n)
	}
	return a.int32s.carve(n)
}

// Lists carves n int-list headers.
func (a *Arena) Lists(n int) [][]int {
	if a == nil {
		return make([][]int, n)
	}
	return a.lists.carve(n)
}

// Int32Lists carves n int32-list headers.
func (a *Arena) Int32Lists(n int) [][]int32 {
	if a == nil {
		return make([][]int32, n)
	}
	return a.lists32.carve(n)
}
