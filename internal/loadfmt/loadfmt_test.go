package loadfmt

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/relation"
)

func TestReadCSV(t *testing.T) {
	rows, err := ReadCSV(strings.NewReader("1,2\n3, 4\n"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0] != 1 || rows[1][1] != 4 {
		t.Fatalf("rows = %v", rows)
	}
	if _, err := ReadCSV(strings.NewReader("1,2\n"), 3); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n"), 2); err == nil {
		t.Fatal("non-integer accepted")
	}
	if rows, err := ReadCSV(strings.NewReader(""), 2); err != nil || len(rows) != 0 {
		t.Fatalf("empty input: %v %v", rows, err)
	}
}

func TestReadCSVFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.csv")
	if err := os.WriteFile(path, []byte("7,8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rows, err := ReadCSVFile(path, 2)
	if err != nil || len(rows) != 1 || rows[0][1] != 8 {
		t.Fatalf("rows = %v, err = %v", rows, err)
	}
	if _, err := ReadCSVFile(filepath.Join(dir, "nope.csv"), 2); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestParseDelta(t *testing.T) {
	d, err := ParseDelta(strings.NewReader("# comment\n+R,1,2\n\n-S, 3 ,4\n+R,5,6\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 {
		t.Fatalf("ops = %d, want 3", d.Len())
	}
	for _, bad := range []string{"R,1,2\n", "+R\n", "+,1\n", "+R,x\n"} {
		if _, err := ParseDelta(strings.NewReader(bad)); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestParseDeltaFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "delta.txt")
	if err := os.WriteFile(path, []byte("+R,1,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := ParseDeltaFile(path)
	if err != nil || d.Len() != 1 {
		t.Fatalf("delta = %v, err = %v", d, err)
	}
	if _, err := ParseDeltaFile(filepath.Join(dir, "nope.txt")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// FuzzReadCSV feeds the relation CSV reader outside bytes at arities 1–4: it
// must return an error or rows of exactly that arity, which written back as
// CSV read to the same rows. The checked-in corpus
// (testdata/fuzz/FuzzReadCSV) holds well-formed files, ragged records,
// quoting, padding and out-of-range integers.
func FuzzReadCSV(f *testing.F) {
	for _, s := range []string{"1,2\n3, 4\n", "7\n", "1,2,3\n4,5\n", "\"1\",2\n", "-9223372036854775808,9223372036854775807\n", "9223372036854775808,0\n", "", "a,b\n"} {
		f.Add(s, uint8(1))
	}
	f.Fuzz(func(t *testing.T, data string, a uint8) {
		arity := 1 + int(a%4)
		rows, err := ReadCSV(strings.NewReader(data), arity)
		if err != nil {
			return
		}
		var out strings.Builder
		for _, row := range rows {
			if len(row) != arity {
				t.Fatalf("%q: row %v at arity %d", data, row, arity)
			}
			for i, v := range row {
				if i > 0 {
					out.WriteByte(',')
				}
				out.WriteString(strconv.FormatInt(v, 10))
			}
			out.WriteByte('\n')
		}
		again, err := ReadCSV(strings.NewReader(out.String()), arity)
		if err != nil || !reflect.DeepEqual(again, rows) {
			t.Fatalf("%q reads to %v; written back, to %v (%v)", data, rows, again, err)
		}
	})
}

// FuzzParseDelta feeds the delta-text parser outside bytes: it must return an
// error or a delta whose ops, written back one per line, parse to the same
// ops. The corpus (testdata/fuzz/FuzzParseDelta) holds comments, blank lines,
// both signs, padding and malformed lines.
func FuzzParseDelta(f *testing.F) {
	for _, s := range []string{"# comment\n+R,1,2\n\n-S, 3 ,4\n+R,5,6\n", "+R\n", "+,1\n", "R,1\n", "-T,+5,-0,007\r\n", ""} {
		f.Add(s)
	}
	type op struct {
		rel string
		row []relation.Value
		del bool
	}
	ops := func(d *engine.Delta) []op {
		var out []op
		d.Ops(func(rel string, row []relation.Value, del bool) { out = append(out, op{rel, row, del}) })
		return out
	}
	f.Fuzz(func(t *testing.T, text string) {
		d, err := ParseDelta(strings.NewReader(text))
		if err != nil {
			return
		}
		var out strings.Builder
		for _, o := range ops(d) {
			sign := byte('+')
			if o.del {
				sign = '-'
			}
			out.WriteByte(sign)
			out.WriteString(o.rel)
			for _, v := range o.row {
				out.WriteByte(',')
				out.WriteString(strconv.FormatInt(v, 10))
			}
			out.WriteByte('\n')
		}
		again, err := ParseDelta(strings.NewReader(out.String()))
		if err != nil || !reflect.DeepEqual(ops(again), ops(d)) {
			t.Fatalf("%q parses to %v; written back as %q, to %v (%v)", text, ops(d), out.String(), ops(again), err)
		}
	})
}
