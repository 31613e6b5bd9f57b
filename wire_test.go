package qjoin_test

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/quantilejoins/qjoin"
)

func TestParseFormatQueryRoundTrip(t *testing.T) {
	for _, s := range []string{
		"R(x,y)",
		"R(x,y),S(y,z)",
		"Admin(u1,e),Share(u2,e,l2),Attend(u3,e,l3)",
		"R(x,x),R(x,y)", // repeated vars and self-joins survive the trip
	} {
		q, err := qjoin.ParseQuery(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if got := qjoin.FormatQuery(q); got != s {
			t.Fatalf("FormatQuery(ParseQuery(%q)) = %q", s, got)
		}
	}
	// Whitespace normalizes away.
	q, err := qjoin.ParseQuery("  R( x , y )  ,S(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	if got := qjoin.FormatQuery(q); got != "R(x,y),S(y,z)" {
		t.Fatalf("normalized form = %q", got)
	}
}

func TestParseQueryErrorsTyped(t *testing.T) {
	for _, bad := range []string{"", "R", "R(x", "R(x,)", "(x,y)", "R,S(x)(y)"} {
		_, err := qjoin.ParseQuery(bad)
		if err == nil {
			t.Fatalf("accepted %q", bad)
		}
		var ae *qjoin.ArgError
		if !errors.As(err, &ae) || ae.Field != "query" {
			t.Fatalf("%q: error %v is not an ArgError on query", bad, err)
		}
	}
}

func TestParseFormatRankingRoundTrip(t *testing.T) {
	for _, s := range []string{"sum(x,y)", "min(x)", "max(a,b)", "lex(x,y,z)"} {
		f, err := qjoin.ParseRanking(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		got, err := qjoin.FormatRanking(f)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if got != s {
			t.Fatalf("FormatRanking(ParseRanking(%q)) = %q", s, got)
		}
	}
	// Case-insensitive aggregate names normalize to lower case.
	f, err := qjoin.ParseRanking("MAX(a,b)")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := qjoin.FormatRanking(f); got != "max(a,b)" {
		t.Fatalf("normalized ranking = %q", got)
	}
	// Custom weights have no wire form.
	g := qjoin.Sum("x")
	g.Weight = func(v qjoin.Var, x qjoin.Value) int64 { return -x }
	if _, err := qjoin.FormatRanking(g); err == nil {
		t.Fatal("custom Weight formatted")
	}
	for _, bad := range []string{"", "avg(x)", "sum", "sum()", "sum(x"} {
		_, err := qjoin.ParseRanking(bad)
		var ae *qjoin.ArgError
		if err == nil || !errors.As(err, &ae) || ae.Field != "rank" {
			t.Fatalf("%q: want ArgError on rank, got %v", bad, err)
		}
	}
}

func TestQuerySpecJSONRoundTrip(t *testing.T) {
	spec := qjoin.QuerySpec{Query: "R(x,y),S(y,z)", Rank: "sum(x,z)"}
	q, f, err := qjoin.ParseQuerySpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	back, err := qjoin.FormatQuerySpec(q, f)
	if err != nil {
		t.Fatal(err)
	}
	if back != spec {
		t.Fatalf("round trip: %+v != %+v", back, spec)
	}
	data, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	var decoded qjoin.QuerySpec
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded != spec {
		t.Fatalf("JSON round trip: %+v != %+v", decoded, spec)
	}
	// Rank-less specs (count requests) are valid and yield a nil ranking.
	q2, f2, err := qjoin.ParseQuerySpec(qjoin.QuerySpec{Query: "R(x,y)"})
	if err != nil || f2 != nil || len(q2.Atoms) != 1 {
		t.Fatalf("rankless spec: %v %v %v", q2, f2, err)
	}
	// A ranking over a variable the query does not bind is rejected.
	if _, _, err := qjoin.ParseQuerySpec(qjoin.QuerySpec{Query: "R(x,y)", Rank: "sum(z)"}); err == nil {
		t.Fatal("unbound ranked variable accepted")
	}
}

func TestValidators(t *testing.T) {
	for _, phi := range []float64{0, 0.5, 1} {
		if err := qjoin.ValidatePhi(phi); err != nil {
			t.Fatalf("ValidatePhi(%v) = %v", phi, err)
		}
	}
	for _, phi := range []float64{-0.1, 1.1, math.NaN()} {
		err := qjoin.ValidatePhi(phi)
		var ae *qjoin.ArgError
		if err == nil || !errors.As(err, &ae) || ae.Field != "phi" {
			t.Fatalf("ValidatePhi(%v) = %v, want ArgError on phi", phi, err)
		}
	}
	if err := qjoin.ValidateEpsilon(0.01); err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0, -1, 1, 8, math.Inf(1), math.NaN()} {
		err := qjoin.ValidateEpsilon(eps)
		var ae *qjoin.ArgError
		if err == nil || !errors.As(err, &ae) || ae.Field != "eps" {
			t.Fatalf("ValidateEpsilon(%v) = %v, want ArgError on eps", eps, err)
		}
	}
	if err := qjoin.ValidateTopK(0); err != nil {
		t.Fatal(err)
	}
	if err := qjoin.ValidateTopK(-1); err == nil {
		t.Fatal("negative k accepted")
	}
	for _, w := range []int{0, 1, 8, qjoin.MaxWorkers} {
		if err := qjoin.ValidateWorkers(w); err != nil {
			t.Fatalf("ValidateWorkers(%d) = %v", w, err)
		}
	}
	for _, w := range []int{-1, qjoin.MaxWorkers + 1} {
		err := qjoin.ValidateWorkers(w)
		var ae *qjoin.ArgError
		if err == nil || !errors.As(err, &ae) || ae.Field != "workers" {
			t.Fatalf("ValidateWorkers(%d) = %v, want ArgError on workers", w, err)
		}
	}
}

func TestParsePhisValidates(t *testing.T) {
	got, err := qjoin.ParsePhis("0.25, 0.5,0.75")
	if err != nil || len(got) != 3 || got[1] != 0.5 {
		t.Fatalf("ParsePhis: %v %v", got, err)
	}
	for _, bad := range []string{"", ",", "x", "1.5", "-0.1", "0.5;0.7"} {
		if _, err := qjoin.ParsePhis(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

// A grid is bounded where it arrives: one past MaxPhis is a typed error on
// "phis" from the shared check and from the CLI's list parser, MaxPhis itself
// passes, and a bad φ inside a legal grid is still a "phi" error.
func TestValidatePhisCapsTheGrid(t *testing.T) {
	if err := qjoin.ValidatePhis(make([]float64, qjoin.MaxPhis)); err != nil {
		t.Fatalf("a grid of MaxPhis rejected: %v", err)
	}
	var ae *qjoin.ArgError
	if err := qjoin.ValidatePhis(make([]float64, qjoin.MaxPhis+1)); !errors.As(err, &ae) || ae.Field != "phis" {
		t.Fatalf("MaxPhis+1: %v, want an *ArgError on phis", err)
	}
	if _, err := qjoin.ParsePhis(strings.Repeat("0.5,", qjoin.MaxPhis+1)); !errors.As(err, &ae) || ae.Field != "phis" {
		t.Fatalf("ParsePhis of MaxPhis+1 values: %v, want an *ArgError on phis", err)
	}
	if err := qjoin.ValidatePhis([]float64{0.1, 1.5}); !errors.As(err, &ae) || ae.Field != "phi" {
		t.Fatalf("bad φ in a legal grid: %v, want an *ArgError on phi", err)
	}
}
