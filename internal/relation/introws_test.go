package relation

import (
	"math"
	"slices"
	"testing"
)

// decodeRows reads a fuzz input as key columns: width 0…4 from wRaw, and one
// column more than the key reads, so pos (a rotation picked by rot) skips one
// and reads the rest out of order. Each byte is one value of a domain of
// eight, two of them the ends of int64, so rows repeat and the hash fold sees
// its extremes.
func decodeRows(data []byte, wRaw, rot uint8) (cols [][]Value, pos []int, n int) {
	width := int(wRaw % 5)
	arity := width + 1
	n = len(data) / arity
	cols = make([][]Value, arity)
	for j := range cols {
		cols[j] = make([]Value, n)
		for i := range n {
			switch v := data[i*arity+j] % 8; v {
			case 6:
				cols[j][i] = math.MinInt64
			case 7:
				cols[j][i] = math.MaxInt64
			default:
				cols[j][i] = Value(v) - 3
			}
		}
	}
	for k := range width {
		pos = append(pos, (int(rot)+width-k)%arity)
	}
	return cols, pos, n
}

// FuzzInternRows checks the row-form probes against the tuple form over
// gathered keys: HashRows and HashAt equal HashTuple; InternAt assigns the
// ids, hashes and arrays Intern does, on a root and on a derived interner;
// LookupAt agrees with Lookup on present and absent keys; and KeyBits turns
// no present key away.
func FuzzInternRows(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{1, 2, 1, 2, 1, 2}, uint8(0), uint8(0))
	f.Add([]byte{1, 2, 3, 1, 2, 3, 6, 7, 0, 6, 7, 0, 7, 6, 5}, uint8(2), uint8(1))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}, uint8(4), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, wRaw, rot uint8) {
		cols, pos, n := decodeRows(data, wRaw, rot)
		width := len(pos)
		hashes := HashRows(nil, cols, pos, n)
		key := make([]Value, 0, width)
		keyOf := func(i int) []Value { return GatherAt(key, cols, pos, i) }
		for i, h := range hashes {
			if want := HashTuple(keyOf(i)); h != want || HashAt(cols, pos, i) != want {
				t.Fatalf("row %d: HashRows %#x, HashAt %#x, HashTuple %#x", i, h, HashAt(cols, pos, i), want)
			}
		}
		// The first half of the rows is interned; the second half probes.
		half := n / 2
		rows, ref := NewInterner(width, 0), NewInterner(width, 0)
		for i := range half {
			id, fresh := rows.InternAt(cols, pos, i, hashes[i])
			wid, wfresh := ref.Intern(keyOf(i))
			if id != wid || fresh != wfresh {
				t.Fatalf("row %d: InternAt (%d, %v), Intern (%d, %v)", i, id, fresh, wid, wfresh)
			}
		}
		sameInterners(t, rows, ref)
		bits := NewKeyBits(rows, 0)
		for i := range n {
			id, ok := rows.LookupAt(cols, pos, i, hashes[i])
			wid, wok := ref.Lookup(keyOf(i))
			if id != wid || ok != wok {
				t.Fatalf("row %d: LookupAt (%d, %v), Lookup (%d, %v)", i, id, ok, wid, wok)
			}
			if ok && !bits.MayHave(hashes[i]) {
				t.Fatalf("row %d: KeyBits turns a present key away", i)
			}
		}
		// The second half extends a derivation of each; the new ids' bits
		// cover every key they hold.
		drows, dref := rows.Derive(), ref.Derive()
		for i := half; i < n; i++ {
			id, fresh := drows.InternAt(cols, pos, i, hashes[i])
			wid, wfresh := dref.Intern(keyOf(i))
			if id != wid || fresh != wfresh {
				t.Fatalf("derived row %d: InternAt (%d, %v), Intern (%d, %v)", i, id, fresh, wid, wfresh)
			}
			if got, ok := drows.LookupAt(cols, pos, i, hashes[i]); !ok || got != id {
				t.Fatalf("derived row %d: LookupAt (%d, %v), want %d", i, got, ok, id)
			}
		}
		sameInterners(t, drows, dref)
		newBits := NewKeyBits(drows, rows.Len())
		for id := rows.Len(); id < drows.Len(); id++ {
			if !newBits.MayHave(drows.HashOf(uint32(id))) {
				t.Fatalf("KeyBits from %d turns id %d away", rows.Len(), id)
			}
		}
	})
}

// sameInterners fails unless a and b hold the same ids under the same stored
// hashes, with byte-equal Parts.
func sameInterners(t *testing.T, a, b *Interner) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("Len %d, want %d", a.Len(), b.Len())
	}
	for id := range uint32(a.Len()) {
		if a.HashOf(id) != b.HashOf(id) {
			t.Fatalf("HashOf(%d) %#x, want %#x", id, a.HashOf(id), b.HashOf(id))
		}
	}
	av, ah, at := a.Parts()
	bv, bh, bt := b.Parts()
	if !slices.Equal(av, bv) || !slices.Equal(ah, bh) || !slices.Equal(at, bt) {
		t.Fatal("Parts differ")
	}
}
