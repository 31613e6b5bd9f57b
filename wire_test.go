package qjoin_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/server"
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
	for _, bad := range []string{"", "R", "R(x", "R(x,)", "(x,y)", "R,S(x)(y)",
		"R((x,y),S(y,z)", // a variable named "(x"
		"R(x,y) S(y,z)",  // no comma between atoms
		"R(x y,z)",       // whitespace inside a variable name
	} {
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
	for _, bad := range []string{"", "avg(x)", "sum", "sum()", "sum(x", "sum(x)(y)", "sum(x y)"} {
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
	rank, err := qjoin.FormatRanking(f)
	if err != nil {
		t.Fatal(err)
	}
	back := qjoin.QuerySpec{Query: qjoin.FormatQuery(q), Rank: rank}
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

// resolveCases is the wire protocol rule by rule: a request, the field its
// rejection names ("" when it is accepted) and, for accepted ones, what the
// operation resolves to. TestResolve runs the table through Request.Resolve,
// TestResolveOverHTTP through a server.
var resolveCases = func() []resolveCase {
	const q, rank = "R(x,y),S(y,z)", "sum(x,z)"
	on := func(r qjoin.Request) qjoin.Request { r.Query, r.Rank = q, rank; return r }
	return []resolveCase{
		{name: "default-op", req: on(qjoin.Request{Phi: 0.5}), op: "quantile", mode: qjoin.ModeExact, phis: 1},
		{name: "quantile-phi-high", req: on(qjoin.Request{Op: "quantile", Phi: 1.5}), field: "phi"},
		{name: "quantile-phi-negative", req: on(qjoin.Request{Op: "quantile", Phi: -0.1}), field: "phi"},
		{name: "quantile-phi-nan", req: on(qjoin.Request{Op: "quantile", Phi: math.NaN()}), field: "phi"},
		{name: "quantile-stray-eps-stays-exact", req: on(qjoin.Request{Op: "quantile", Phi: 0.5, Eps: 7}), op: "quantile", mode: qjoin.ModeExact, phis: 1},
		{name: "quantile-no-rank", req: qjoin.Request{Query: q, Op: "quantile", Phi: 0.5}, field: "rank"},
		{name: "median-ignores-phi", req: on(qjoin.Request{Op: "median", Phi: 9}), op: "median", mode: qjoin.ModeExact, phis: 1},
		{name: "approx", req: on(qjoin.Request{Op: "approx", Phi: 0.5, Eps: 0.4}), op: "approx", mode: qjoin.ModeExact, eps: 0.4, phis: 1},
		{name: "approx-phi-high", req: on(qjoin.Request{Op: "approx", Phi: 2, Eps: 0.4}), field: "phi"},
		{name: "approx-eps-zero", req: on(qjoin.Request{Op: "approx", Phi: 0.5}), field: "eps"},
		{name: "approx-eps-one", req: on(qjoin.Request{Op: "approx", Phi: 0.5, Eps: 1}), field: "eps"},
		{name: "approx-eps-negative", req: on(qjoin.Request{Op: "approx", Phi: 0.5, Eps: -1}), field: "eps"},
		{name: "approx-eps-nan", req: on(qjoin.Request{Op: "approx", Phi: 0.5, Eps: math.NaN()}), field: "eps"},
		{name: "approx-mode", req: on(qjoin.Request{Op: "approx", Phi: 0.5, Eps: 0.4, Mode: "exact"}), field: "mode"},
		{name: "quantiles-empty", req: on(qjoin.Request{Op: "quantiles"}), field: "phis"},
		{name: "quantiles-max", req: on(qjoin.Request{Op: "quantiles", Phis: make([]float64, qjoin.MaxPhis)}), op: "quantiles", mode: qjoin.ModeExact, phis: qjoin.MaxPhis},
		{name: "quantiles-too-many", req: on(qjoin.Request{Op: "quantiles", Phis: make([]float64, qjoin.MaxPhis+1)}), field: "phis"},
		{name: "quantiles-bad-phi", req: on(qjoin.Request{Op: "quantiles", Phis: []float64{0.5, 2}}), field: "phi"},
		{name: "topk-big", req: on(qjoin.Request{Op: "topk", K: 1 << 40}), op: "topk", mode: qjoin.ModeExact},
		{name: "topk-negative", req: on(qjoin.Request{Op: "topk", K: -1}), field: "k"},
		{name: "topk-mode", req: on(qjoin.Request{Op: "topk", K: 1, Mode: "approx"}), field: "mode"},
		{name: "count-no-rank", req: qjoin.Request{Query: q, Op: "count"}, op: "count", mode: qjoin.ModeExact},
		{name: "count-mode", req: qjoin.Request{Query: q, Op: "count", Mode: "exact"}, field: "mode"},
		{name: "unknown-op", req: on(qjoin.Request{Op: "avg"}), field: "op"},
		{name: "unknown-op-with-mode", req: on(qjoin.Request{Op: "avg", Mode: "approx"}), field: "mode"},
		{name: "unknown-mode", req: on(qjoin.Request{Op: "quantile", Phi: 0.5, Mode: "bogus"}), field: "mode"},
		{name: "mode-approx", req: on(qjoin.Request{Op: "median", Mode: "approx"}), op: "median", mode: qjoin.ModeApprox, phis: 1},
		{name: "mode-auto-eps", req: on(qjoin.Request{Op: "quantile", Phi: 0.5, Mode: "auto", Eps: 0.3}), op: "quantile", mode: qjoin.ModeAuto, eps: 0.3, phis: 1},
		{name: "mode-exact-drops-eps", req: on(qjoin.Request{Op: "quantiles", Phis: []float64{0.2, 0.8}, Mode: "exact", Eps: 0.3}), op: "quantiles", mode: qjoin.ModeExact, phis: 2},
		{name: "mode-eps-high", req: on(qjoin.Request{Op: "quantile", Phi: 0.5, Mode: "auto", Eps: 1.5}), field: "eps"},
		{name: "mode-eps-nan", req: on(qjoin.Request{Op: "quantile", Phi: 0.5, Mode: "exact", Eps: math.NaN()}), field: "eps"},
		{name: "workers-negative", req: on(qjoin.Request{Op: "quantile", Phi: 0.5, Workers: -1}), field: "workers"},
		{name: "workers-absurd", req: on(qjoin.Request{Op: "quantile", Phi: 0.5, Workers: qjoin.MaxWorkers + 1}), field: "workers"},
		{name: "workers-before-query", req: qjoin.Request{Query: "R(x", Rank: rank, Workers: -1}, field: "workers"},
		{name: "bad-query", req: qjoin.Request{Query: "R(x", Rank: "sum(x)", Op: "count"}, field: "query"},
		{name: "bad-rank", req: qjoin.Request{Query: q, Rank: "avg(x)", Phi: 0.5}, field: "rank"},
		{name: "unbound-rank-var", req: qjoin.Request{Query: q, Rank: "sum(w)", Phi: 0.5}, field: "rank"},
	}
}()

type resolveCase struct {
	name  string
	req   qjoin.Request
	field string
	// The resolved operation of an accepted request.
	op   string
	mode qjoin.Mode
	eps  float64
	phis int
}

func TestResolve(t *testing.T) {
	for _, c := range resolveCases {
		t.Run(c.name, func(t *testing.T) {
			op, err := c.req.Resolve()
			if c.field != "" {
				var ae *qjoin.ArgError
				if !errors.As(err, &ae) || ae.Field != c.field {
					t.Fatalf("error %v, want an *ArgError on %s", err, c.field)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if op.Op != c.op || op.Mode != c.mode || op.Eps != c.eps || len(op.Phis) != c.phis {
				t.Fatalf("resolved to op=%s mode=%v eps=%v with %d φ's, want %s %v %v %d",
					op.Op, op.Mode, op.Eps, len(op.Phis), c.op, c.mode, c.eps, c.phis)
			}
			if op.Query == nil || (op.Rank == nil) != (c.req.Rank == "") {
				t.Fatalf("spec resolved to query %v, ranking %v", op.Query, op.Rank)
			}
		})
	}
}

// The server answers every rejected request of the table with a 400 naming the
// same field and every accepted one with a 200 — whose answers carry no
// source or bound unless the request named a mode, stray eps or not.
func TestResolveOverHTTP(t *testing.T) {
	h := server.New(server.Config{Parallelism: 1}).Handler()
	post := func(method, path string, body any) *httptest.ResponseRecorder {
		data, err := json.Marshal(body)
		if err != nil {
			return nil // NaN has no JSON form: such a request cannot arrive
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(data)))
		return w
	}
	load := server.LoadRequest{Relations: []server.RelationData{
		{Name: "R", Arity: 2, Rows: [][]int64{{1, 2}, {3, 4}, {5, 6}}},
		{Name: "S", Arity: 2, Rows: [][]int64{{2, 10}, {4, 20}, {6, 30}}},
	}}
	if w := post("PUT", "/datasets/tiny", load); w.Code != http.StatusOK {
		t.Fatalf("load: %d %s", w.Code, w.Body)
	}
	for _, c := range resolveCases {
		t.Run(c.name, func(t *testing.T) {
			r := c.req
			w := post("POST", "/query", server.QueryRequest{Dataset: "tiny", Query: r.Query, Rank: r.Rank, Op: r.Op,
				Mode: r.Mode, Phi: r.Phi, Phis: r.Phis, Eps: r.Eps, K: r.K, Workers: r.Workers})
			if w == nil {
				t.Skip("not expressible in JSON")
			}
			if c.field != "" {
				var er server.ErrorResponse
				if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || w.Code != http.StatusBadRequest || er.Field != c.field {
					t.Fatalf("status %d field %q (%s), want 400 on %s", w.Code, er.Field, w.Body, c.field)
				}
				return
			}
			var resp server.QueryResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || w.Code != http.StatusOK {
				t.Fatalf("status %d: %s", w.Code, w.Body)
			}
			if resp.Op != c.op || (resp.Source != "") != (r.Mode != "") || (r.Mode == "" && resp.ErrorBound != 0) {
				t.Fatalf("op %q source %q bound %v for mode %q", resp.Op, resp.Source, resp.ErrorBound, r.Mode)
			}
		})
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

// A grid is bounded where it arrives — here the CLI's list parser, the
// server's body in resolveCases: one past MaxPhis is a typed error on "phis",
// MaxPhis itself passes, and a bad φ inside a legal grid is still a "phi"
// error.
func TestValidatePhisCapsTheGrid(t *testing.T) {
	if _, err := qjoin.ParsePhis(strings.Repeat("0.5,", qjoin.MaxPhis)); err != nil {
		t.Fatalf("a grid of MaxPhis rejected: %v", err)
	}
	var ae *qjoin.ArgError
	if _, err := qjoin.ParsePhis(strings.Repeat("0.5,", qjoin.MaxPhis+1)); !errors.As(err, &ae) || ae.Field != "phis" {
		t.Fatalf("ParsePhis of MaxPhis+1 values: %v, want an *ArgError on phis", err)
	}
	if _, err := qjoin.ParsePhis("0.1,1.5"); !errors.As(err, &ae) || ae.Field != "phi" {
		t.Fatalf("bad φ in a legal grid: %v, want an *ArgError on phi", err)
	}
}

// FuzzParseQuery: no input makes the query parser panic, and what it accepts
// has one canonical spelling — FormatQuery of the parse re-parses to an equal
// query and formats to itself. The checked-in corpus
// (testdata/fuzz/FuzzParseQuery) holds the README's queries, the benchmark's,
// and the malformed strings of the server's bad-request table; `go test` runs
// it as a plain test.
func FuzzParseQuery(f *testing.F) {
	for _, s := range []string{"R(x,y),S(y,z)", " R( x , y ) , S(y,z) ", "R(x,x),R(x,y)", "R(x", "R,S(x)(y)", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		q, err := qjoin.ParseQuery(s)
		if err != nil {
			var ae *qjoin.ArgError
			if !errors.As(err, &ae) || ae.Field != "query" {
				t.Fatalf("%q: error %v is not an ArgError on query", s, err)
			}
			return
		}
		canon := qjoin.FormatQuery(q)
		again, err := qjoin.ParseQuery(canon)
		if err != nil {
			t.Fatalf("%q parses, its canonical form %q does not: %v", s, canon, err)
		}
		if !reflect.DeepEqual(again.Atoms, q.Atoms) || qjoin.FormatQuery(again) != canon {
			t.Fatalf("%q: canonical form %q re-parses to %q", s, canon, qjoin.FormatQuery(again))
		}
	})
}

// FuzzParseRanking is FuzzParseQuery for the ranking parser; its corpus
// (testdata/fuzz/FuzzParseRanking) holds every ranking the benchmark spells
// and the malformed ones of the server's bad-request table.
func FuzzParseRanking(f *testing.F) {
	for _, s := range []string{"sum(x,z)", "MAX(a,b)", " lex ( x1 , x3 ) ", "avg(x)", "sum(x)(y)", "sum(", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		r, err := qjoin.ParseRanking(s)
		if err != nil {
			var ae *qjoin.ArgError
			if !errors.As(err, &ae) || ae.Field != "rank" {
				t.Fatalf("%q: error %v is not an ArgError on rank", s, err)
			}
			return
		}
		canon, err := qjoin.FormatRanking(r)
		if err != nil {
			t.Fatalf("%q parses to a ranking with no wire form: %v", s, err)
		}
		again, err := qjoin.ParseRanking(canon)
		if err != nil {
			t.Fatalf("%q parses, its canonical form %q does not: %v", s, canon, err)
		}
		if again.Agg != r.Agg || !reflect.DeepEqual(again.Vars, r.Vars) || again.Weight != nil {
			t.Fatalf("%q: canonical form %q re-parses to %v%v", s, canon, again.Agg, again.Vars)
		}
		if c2, _ := qjoin.FormatRanking(again); c2 != canon {
			t.Fatalf("%q: canonical form %q formats to %q after a re-parse", s, canon, c2)
		}
	})
}
