package snap

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/relation"
)

// TestCRCCombine checks the GF(2) combination against the definition: the
// CRC of a concatenation equals the combination of the piece CRCs, for
// random pieces of every awkward length class (empty, sub-word, huge).
func TestCRCCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	lens := []int{0, 1, 7, 8, 63, 1024, 65537, crcChunk, crcChunk + 3}
	for _, la := range lens {
		for _, lb := range lens {
			a := make([]byte, la)
			b := make([]byte, lb)
			rng.Read(a)
			rng.Read(b)
			whole := crc32.Checksum(append(append([]byte{}, a...), b...), castagnoli)
			got := crcCombine(crc32.Checksum(a, castagnoli), crc32.Checksum(b, castagnoli), int64(lb))
			if got != whole {
				t.Fatalf("combine(%d,%d) = %#x, want %#x", la, lb, got, whole)
			}
			if lb == crcChunk {
				if got := crcCombineFixed(crc32.Checksum(a, castagnoli), crc32.Checksum(b, castagnoli)); got != whole {
					t.Fatalf("combineFixed(%d) = %#x, want %#x", la, got, whole)
				}
			}
		}
	}
}

// TestContainerRoundTrip drives the writer and both read paths (verifying
// Next, deferred Sections) over a multi-section stream with payload sizes
// spanning several checksum chunks.
func TestContainerRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	payloads := [][]byte{make([]byte, 13), make([]byte, 0), make([]byte, crcChunk*2+17)}
	for _, p := range payloads {
		rng.Read(p)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, KindDataset)
	for i, p := range payloads {
		if err := w.Section(uint32(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(r *Reader) {
		t.Helper()
		if r.Kind() != KindDataset {
			t.Fatalf("kind = %d", r.Kind())
		}
		secs, verify, err := r.Sections()
		if err != nil {
			t.Fatal(err)
		}
		if err := verify(); err != nil {
			t.Fatal(err)
		}
		if len(secs) != len(payloads) {
			t.Fatalf("%d sections, want %d", len(secs), len(payloads))
		}
		for i, s := range secs {
			if s.ID != uint32(i+1) || !bytes.Equal(s.Payload, payloads[i]) {
				t.Fatalf("section %d mismatch", i)
			}
		}
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	check(r)
	r, err = NewReaderBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	check(r)

	// The step-by-step path verifies inline.
	r, _ = NewReaderBytes(buf.Bytes())
	for i := range payloads {
		id, pl, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if id != uint32(i+1) || !bytes.Equal(pl, payloads[i]) {
			t.Fatalf("Next section %d mismatch", i)
		}
	}
	if id, _, err := r.Next(); err != nil || id != SecEnd {
		t.Fatalf("terminator: id %d err %v", id, err)
	}
}

// TestContainerDamage: every damage class maps to its sentinel, on both the
// inline and deferred verification paths.
func TestContainerDamage(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, KindPrepared)
	payload := bytes.Repeat([]byte{0xab}, 1000)
	if err := w.Section(SecMeta, payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	drain := func(b []byte) error {
		r, err := NewReaderBytes(b)
		if err != nil {
			return err
		}
		secs, verify, err := r.Sections()
		if err != nil {
			return err
		}
		_ = secs
		return verify()
	}
	mutate := func(off int, bit byte) []byte {
		m := append([]byte(nil), good...)
		m[off] ^= bit
		return m
	}
	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"magic", mutate(0, 0xff), ErrBadMagic},
		{"version", mutate(4, 0xff), ErrVersion},
		{"payload-flip", mutate(40, 1), ErrChecksum},
		{"short-header", good[:10], ErrTruncated},
		{"mid-truncate", good[:len(good)/2], ErrTruncated},
		{"no-terminator", good[:len(good)-24], ErrTruncated},
		{"empty", nil, ErrTruncated},
	}
	for _, tc := range cases {
		if err := drain(tc.b); !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestWALRoundTrip appends records and replays them, then exercises the
// crash cases: torn tail (clean stop) and mid-log corruption (ErrChecksum).
func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	deltas := []*engine.Delta{
		engine.NewDelta().Insert("R", []relation.Value{1, 2}),
		engine.NewDelta().Delete("S", []relation.Value{3}).Insert("R", []relation.Value{4, 5}),
		engine.NewDelta().Insert("S", []relation.Value{6}),
	}
	for i, d := range deltas {
		if err := w.Append(uint64(i+1), d); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	replay := func(p string) (gens []uint64, got []*engine.Delta, err error) {
		err = ReplayWAL(p, func(gen uint64, d *engine.Delta) error {
			gens = append(gens, gen)
			got = append(got, d)
			return nil
		})
		return
	}
	gens, got, err := replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gens, []uint64{1, 2, 3}) {
		t.Fatalf("generations %v", gens)
	}
	for i := range deltas {
		if !reflect.DeepEqual(got[i], deltas[i]) {
			t.Fatalf("delta %d mismatch", i)
		}
	}

	// Reopen for append: the header is validated, records preserved.
	w, err = OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(4, engine.NewDelta().Insert("R", []relation.Value{7, 8})); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if gens, _, err = replay(path); err != nil || len(gens) != 4 {
		t.Fatalf("after reopen: gens %v err %v", gens, err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Torn tail: cut into the last record's payload — replay stops cleanly
	// with the intact prefix.
	torn := filepath.Join(t.TempDir(), "torn.wal")
	if err := os.WriteFile(torn, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if gens, _, err = replay(torn); err != nil || !reflect.DeepEqual(gens, []uint64{1, 2, 3}) {
		t.Fatalf("torn: gens %v err %v", gens, err)
	}
	// Mid-log damage: flip a byte inside the first record.
	bad := filepath.Join(t.TempDir(), "bad.wal")
	flipped := append([]byte(nil), raw...)
	flipped[walHeaderLen+8+2] ^= 1
	if err := os.WriteFile(bad, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err = replay(bad); !errors.Is(err, ErrChecksum) {
		t.Fatalf("mid-log damage: err %v, want ErrChecksum", err)
	}
	// Truncate drops all records.
	w, err = OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Truncate(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if gens, _, err = replay(path); err != nil || len(gens) != 0 {
		t.Fatalf("after truncate: gens %v err %v", gens, err)
	}
}

// TestWALTornTailThenAppend: a crash mid-append leaves a torn tail; OpenWAL
// must truncate it before positioning for append, so the next record
// extends the valid prefix and replay sees every acknowledged record. (The
// regression it pins: appending after torn bytes produced a valid record
// behind garbage, which replay reported as ErrChecksum — making every
// acknowledged record after the tear unreachable on the next boot.)
func TestWALTornTailThenAppend(t *testing.T) {
	dir := t.TempDir()
	build := func(name string, damage func([]byte) []byte) string {
		p := filepath.Join(dir, name)
		w, err := OpenWAL(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(1, engine.NewDelta().Insert("R", []relation.Value{1, 2})); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(2, engine.NewDelta().Insert("S", []relation.Value{3})); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, damage(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	replay := func(p string) (gens []uint64, err error) {
		err = ReplayWAL(p, func(gen uint64, d *engine.Delta) error {
			gens = append(gens, gen)
			return nil
		})
		return
	}
	cases := []struct {
		name   string
		damage func([]byte) []byte
		want   []uint64 // surviving generations, before the new append
	}{
		{"torn-payload", func(b []byte) []byte { return b[:len(b)-3] }, []uint64{1}},
		{"torn-frame-header", func(b []byte) []byte {
			tear := append([]byte(nil), b...)
			return append(tear, 0x42, 0x00, 0x13) // 3 stray bytes of a next frame
		}, []uint64{1, 2}},
		{"tail-crc-damage", func(b []byte) []byte {
			m := append([]byte(nil), b...)
			m[len(m)-1] ^= 1 // last record complete but its sum no longer matches
			return m
		}, []uint64{1}},
	}
	for _, tc := range cases {
		p := build(tc.name+".wal", tc.damage)
		w, err := OpenWAL(p)
		if err != nil {
			t.Fatalf("%s: reopen: %v", tc.name, err)
		}
		if err := w.Append(7, engine.NewDelta().Insert("R", []relation.Value{9, 9})); err != nil {
			t.Fatalf("%s: append after reopen: %v", tc.name, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		want := append(append([]uint64(nil), tc.want...), 7)
		if gens, err := replay(p); err != nil || !reflect.DeepEqual(gens, want) {
			t.Errorf("%s: replay after append gens %v err %v, want %v", tc.name, gens, err, want)
		}
	}
}

// TestInternerPartsRoundTrip: Parts → InternerFromParts preserves ids and
// lookups; inconsistent parts are rejected.
func TestInternerPartsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	it := relation.NewInterner(2, 0)
	var tuples [][]relation.Value
	for i := 0; i < 500; i++ {
		tup := []relation.Value{relation.Value(rng.Intn(40)), relation.Value(rng.Intn(40))}
		it.Intern(tup)
		tuples = append(tuples, tup)
	}
	vals, hashes, table := it.Parts()
	got, ok := relation.InternerFromParts(2, vals, hashes, table)
	if !ok {
		t.Fatal("InternerFromParts rejected valid parts")
	}
	if got.Len() != it.Len() {
		t.Fatalf("len %d, want %d", got.Len(), it.Len())
	}
	for _, tup := range tuples {
		a, aok := it.Lookup(tup)
		b, bok := got.Lookup(tup)
		if !aok || !bok || a != b {
			t.Fatalf("lookup %v: (%d,%v) vs (%d,%v)", tup, a, aok, b, bok)
		}
	}
	if _, ok := relation.InternerFromParts(2, vals[:len(vals)-1], hashes, table); ok {
		t.Error("accepted truncated vals")
	}
	if _, ok := relation.InternerFromParts(2, vals, hashes, table[:len(table)-1]); ok {
		t.Error("accepted non-power-of-two table")
	}
	badTable := append([]uint32(nil), table...)
	for i := range badTable {
		if badTable[i] != 0 {
			badTable[i] = uint32(len(hashes)) + 5 // out of range id
			break
		}
	}
	if _, ok := relation.InternerFromParts(2, vals, hashes, badTable); ok {
		t.Error("accepted out-of-range slot")
	}
}

// TestDecNilArrays: zero counts decode to nil slices so DeepEqual-based
// byte-identity holds for answers carrying empty vectors.
func TestDecNilArrays(t *testing.T) {
	var e Enc
	PutArray[relation.Value](&e, nil)
	PutArray(&e, []int64{})
	PutArray[int32](&e, nil)
	PutArray[int](&e, nil)
	PutArray[uint64](&e, nil)
	PutArray[uint32](&e, nil)
	d := NewDec(e.Bytes())
	if v := Array[relation.Value](d); v != nil {
		t.Errorf("values = %#v", v)
	}
	if v := Array[int64](d); v != nil {
		t.Errorf("int64s = %#v", v)
	}
	if v := Array[int32](d); v != nil {
		t.Errorf("int32s = %#v", v)
	}
	if v := Array[int](d); v != nil {
		t.Errorf("ints = %#v", v)
	}
	if v := Array[uint64](d); v != nil {
		t.Errorf("uint64s = %#v", v)
	}
	if v := Array[uint32](d); v != nil {
		t.Errorf("uint32s = %#v", v)
	}
	if !d.Done() {
		t.Errorf("payload not consumed: %v", d.Err())
	}
}

// arrayRoundTrip encodes vs after a one-byte prefix (so the block needs its
// padding), and decodes it twice: from the payload as allocated, where the
// block may alias it, and from a copy at an odd address, where it must be
// converted. Both must give vs back, and a count past the payload must fail.
func arrayRoundTrip[T word](t *testing.T, vs []T) {
	t.Helper()
	var e Enc
	e.U8(7)
	PutArray(&e, vs)
	if want := 16 + wireSize[T]()*len(vs); len(e.Bytes()) != want {
		t.Fatalf("%T: %d bytes on the wire, want %d", vs, len(e.Bytes()), want)
	}
	buf := make([]byte, len(e.Bytes())+8)
	off := 0
	for uintptr(unsafe.Pointer(&buf[off]))%8 != 1 {
		off++
	}
	odd := buf[off : off+copy(buf[off:], e.Bytes())]
	for name, b := range map[string][]byte{"aligned": e.Bytes(), "odd": odd} {
		d := NewDec(b)
		if d.U8() != 7 {
			t.Fatalf("%T %s: prefix lost", vs, name)
		}
		if got := Array[T](d); !slices.Equal(got, vs) || !d.Done() {
			t.Fatalf("%T %s: got %v, want %v (err %v)", vs, name, got, vs, d.Err())
		}
	}
	short := NewDec(e.Bytes()[:len(e.Bytes())-1])
	short.U8()
	if got := Array[T](short); got != nil || !errors.Is(short.Err(), ErrCorrupt) {
		t.Fatalf("%T: truncated array decoded to %v, err %v", vs, got, short.Err())
	}
}

// TestArrayRoundTrip drives the one array codec over every element type.
func TestArrayRoundTrip(t *testing.T) {
	arrayRoundTrip(t, []int64{0, -1, math.MaxInt64, math.MinInt64, 42})
	arrayRoundTrip(t, []uint64{0, 1, math.MaxUint64})
	arrayRoundTrip(t, []int32{0, -1, math.MaxInt32, math.MinInt32, 7})
	arrayRoundTrip(t, []uint32{0, 1, math.MaxUint32})
	arrayRoundTrip(t, []int{0, -1, math.MaxInt32, math.MinInt32, 1 << 20})
}

// A stream holds each column set once: the same relation again is a backref,
// another relation over the same columns a view that restores its own name
// and distinct marker over the shared columns, and only different data is
// written out. A record tag the reader does not know is corruption.
func TestRelationRecordsStoreColumnsOnce(t *testing.T) {
	raw := relation.FromRows("R", 2, [][]relation.Value{{1, 2}, {3, 4}, {5, 6}})
	view := raw.Deduped() // nothing dropped: raw's columns, marked distinct
	occ := raw.Rename("R·2")
	other := relation.FromRows("R", 2, [][]relation.Value{{1, 2}, {3, 4}, {5, 6}})
	empty := relation.New("E", 2)
	in := []*relation.Relation{raw, view, raw, occ, other, empty, empty.Rename("E2")}

	w := NewRelWriter()
	var e Enc
	var sizes []int
	for _, r := range in {
		before := len(e.Bytes())
		w.Encode(&e, r)
		sizes = append(sizes, len(e.Bytes())-before)
	}
	for i, inline := range []bool{true, false, false, false, true, true, true} {
		if big := sizes[i] >= 2*8*raw.Len() || in[i].Len() == 0; big != inline {
			t.Errorf("record %d (%s) takes %d bytes: inline=%v, want %v", i, in[i], sizes[i], big, inline)
		}
	}

	rd := NewRelReader()
	d := NewDec(e.Bytes())
	var out []*relation.Relation
	for range in {
		r, err := rd.Decode(d)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	if !d.Done() {
		t.Fatal("trailing bytes")
	}
	for i, r := range out {
		if !r.Equal(in[i]) || r.IsDistinct() != in[i].IsDistinct() {
			t.Errorf("record %d: decoded %v distinct=%v, want %v distinct=%v", i, r, r.IsDistinct(), in[i], in[i].IsDistinct())
		}
	}
	shares := func(a, b *relation.Relation) bool {
		return &a.Col(0)[0] == &b.Col(0)[0] && &a.Col(1)[0] == &b.Col(1)[0]
	}
	if out[2] != out[0] || out[1] == out[0] || !shares(out[1], out[0]) || !shares(out[3], out[0]) || shares(out[4], out[0]) {
		t.Error("decoded relations do not share what the encoded ones shared")
	}

	bad := append([]byte(nil), e.Bytes()...)
	bad[0] = 7
	if _, err := NewRelReader().Decode(NewDec(bad)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unknown record tag: %v, want ErrCorrupt", err)
	}
	var fwd Enc
	fwd.U8(relView)
	fwd.U32(0)
	fwd.Str("R")
	fwd.Bool(true)
	if _, err := NewRelReader().Decode(NewDec(fwd.Bytes())); !errors.Is(err, ErrCorrupt) {
		t.Errorf("view of a relation not yet in the stream: %v, want ErrCorrupt", err)
	}
}

// FuzzReplayWAL replays outside bytes as a log file: replay must fail with
// one of the package's sentinel errors or hand over deltas that, appended to
// a fresh log, replay to themselves — and a log OpenWAL positions for
// appending (truncating a torn tail) still replays them. The checked-in
// corpus (testdata/fuzz/FuzzReplayWAL) holds logs Append wrote, torn and
// damaged copies, a foreign header and a record claiming nearly 1 GiB.
func FuzzReplayWAL(f *testing.F) {
	seed := filepath.Join(f.TempDir(), "seed.wal")
	w, err := OpenWAL(seed)
	if err != nil {
		f.Fatal(err)
	}
	for gen, d := range []*engine.Delta{
		engine.NewDelta().Insert("R", []relation.Value{1, 2}),
		engine.NewDelta().Delete("S", []relation.Value{3}).Insert("R", []relation.Value{4, 5}),
	} {
		if err := w.Append(uint64(gen+1), d); err != nil {
			f.Fatal(err)
		}
	}
	w.Close()
	log, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(log)
	f.Add(log[:len(log)-3])
	f.Add(append(slices.Clone(log[:walHeaderLen]), 0xff, 0xff, 0xff, 0x3f, 0, 0, 0, 0))
	f.Add([]byte("QJSN\x02\x00\x00\x00"))
	type record struct {
		gen   uint64
		delta *engine.Delta
	}
	replay := func(t *testing.T, path string) ([]record, error) {
		var got []record
		err := ReplayWAL(path, func(gen uint64, d *engine.Delta) error {
			got = append(got, record{gen, d})
			return nil
		})
		return got, err
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := replay(t, path)
		if err != nil {
			for _, want := range []error{ErrBadMagic, ErrVersion, ErrChecksum, ErrCorrupt} {
				if errors.Is(err, want) {
					return
				}
			}
			t.Fatalf("replay failed with %v, not a sentinel error", err)
		}
		fresh := filepath.Join(dir, "fresh.wal")
		w, err := OpenWAL(fresh)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range got {
			if err := w.Append(r.gen, r.delta); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
		if again, err := replay(t, fresh); err != nil || !reflect.DeepEqual(again, got) {
			t.Fatalf("%d replayed records, appended to a fresh log, replay to %d (%v)", len(got), len(again), err)
		}
		if w, err = OpenWAL(path); err != nil {
			t.Fatalf("a log that replays does not open: %v", err)
		}
		w.Close()
		if again, err := replay(t, path); err != nil || !reflect.DeepEqual(again, got) {
			t.Fatalf("%d replayed records; once opened for appending, %d (%v)", len(got), len(again), err)
		}
	})
}
