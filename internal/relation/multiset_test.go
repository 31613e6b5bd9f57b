package relation

import (
	"fmt"
	"testing"
)

func keyOf(row []Value) string {
	var enc KeyEncoder
	return string(enc.Row(row))
}

func TestMultisetCounts(t *testing.T) {
	r := New("R", 2)
	r.Append(1, 2)
	r.Append(1, 2)
	r.Append(3, 4)
	m := NewMultiset(r)
	if got := m.Mult(keyOf([]Value{1, 2})); got != 2 {
		t.Fatalf("mult(1,2) = %d, want 2", got)
	}
	if got := m.Mult(keyOf([]Value{3, 4})); got != 1 {
		t.Fatalf("mult(3,4) = %d, want 1", got)
	}
	if m.Contains(keyOf([]Value{9, 9})) {
		t.Fatal("absent row reported present")
	}
}

// The multiplicities of a relation with many repeated rows are the row counts
// of a plain tally.
func TestMultisetWorkersMatchesSequential(t *testing.T) {
	r := New("R", 2)
	tally := make(map[[2]Value]int)
	for i := 0; i < 4096; i++ {
		r.Append(Value(i%97), Value(i%13))
		tally[[2]Value{Value(i % 97), Value(i % 13)}]++
	}
	m := NewMultiset(r)
	for i := 0; i < 97; i++ {
		for j := 0; j < 13; j++ {
			k := keyOf([]Value{Value(i), Value(j)})
			if want := tally[[2]Value{Value(i), Value(j)}]; m.Mult(k) != want {
				t.Fatalf("mult at (%d,%d) is %d, want %d", i, j, m.Mult(k), want)
			}
		}
	}
}

func TestMultisetDerive(t *testing.T) {
	r := New("R", 1)
	r.Append(1)
	r.Append(1)
	r.Append(2)
	m := NewMultiset(r)
	k1, k2, k3 := keyOf([]Value{1}), keyOf([]Value{2}), keyOf([]Value{3})

	m2 := m.Derive(map[string]int{k1: 1, k3: 2})
	// The receiver is untouched.
	if m.Mult(k1) != 2 || m.Mult(k3) != 0 {
		t.Fatal("Derive mutated the receiver")
	}
	if m2.Mult(k1) != 1 || m2.Mult(k2) != 1 || m2.Mult(k3) != 2 {
		t.Fatalf("derived mults = %d,%d,%d", m2.Mult(k1), m2.Mult(k2), m2.Mult(k3))
	}
	// Removal via a zero multiplicity.
	m3 := m2.Derive(map[string]int{k2: 0})
	if m3.Contains(k2) {
		t.Fatal("zero multiplicity still present")
	}
	if m2.Mult(k2) != 1 {
		t.Fatal("second Derive mutated its receiver")
	}
	// Empty changes share the receiver.
	if m4 := m3.Derive(nil); m4 != m3 {
		t.Fatal("empty Derive did not return the receiver")
	}
}

func TestMultisetDeriveFlattens(t *testing.T) {
	r := New("R", 1)
	for i := 0; i < 64; i++ {
		r.Append(Value(i))
	}
	m := NewMultiset(r)
	// Push far past the flattening threshold through chained derivations.
	for i := 0; i < 64; i++ {
		m = m.Derive(map[string]int{keyOf([]Value{Value(i)}): i % 3})
	}
	for i := 0; i < 64; i++ {
		if got := m.Mult(keyOf([]Value{Value(i)})); got != i%3 {
			t.Fatalf("after flatten chain: mult(%d) = %d, want %d", i, got, i%3)
		}
	}
	if m.over != nil && len(m.over) > len(m.base)/4+16 {
		t.Fatalf("overlay never flattened: %d entries over base %d", len(m.over), len(m.base))
	}
}

func TestMultisetDeriveSharedBase(t *testing.T) {
	r := New("R", 1)
	r.Append(1)
	m := NewMultiset(r)
	k := keyOf([]Value{1})
	a := m.Derive(map[string]int{k: 5})
	b := m.Derive(map[string]int{k: 7})
	if a.Mult(k) != 5 || b.Mult(k) != 7 || m.Mult(k) != 1 {
		t.Fatalf("sibling derivations interfere: %d/%d/%d", a.Mult(k), b.Mult(k), m.Mult(k))
	}
}

func ExampleMultiset() {
	r := New("R", 1)
	r.Append(7)
	r.Append(7)
	m := NewMultiset(r)
	var enc KeyEncoder
	fmt.Println(m.Mult(string(enc.Row([]Value{7}))))
	// Output: 2
}
