package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/server"
)

// do drives the handler with a JSON request and returns the recorder.
func do(t testing.TB, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// decodeAs decodes a recorder body into v, failing on status mismatch.
func decodeAs(t testing.TB, w *httptest.ResponseRecorder, wantStatus int, v any) {
	t.Helper()
	if w.Code != wantStatus {
		t.Fatalf("status = %d, want %d; body: %s", w.Code, wantStatus, w.Body.String())
	}
	if v != nil {
		if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
			t.Fatalf("decode %q: %v", w.Body.String(), err)
		}
	}
}

// tinyLoad is a 3-answer binary join: R(x,y) ⋈ S(y,z), sum(x,z) weights
// 11 < 23 < 35.
func tinyLoad() server.LoadRequest {
	return server.LoadRequest{Relations: []server.RelationData{
		{Name: "R", Arity: 2, Rows: [][]int64{{1, 2}, {3, 4}, {5, 6}}},
		{Name: "S", Arity: 2, Rows: [][]int64{{2, 10}, {4, 20}, {6, 30}}},
	}}
}

// tinyDB mirrors tinyLoad as an embedded database for oracle answers.
func tinyDB(t testing.TB) *qjoin.DB {
	t.Helper()
	return qjoin.NewDB().
		MustAdd("R", 2, [][]int64{{1, 2}, {3, 4}, {5, 6}}).
		MustAdd("S", 2, [][]int64{{2, 10}, {4, 20}, {6, 30}})
}

// oracleAnswers computes the wire answers a fresh Prepare gives for a φ
// grid — the byte-identity reference for server responses.
func oracleAnswers(t testing.TB, q *qjoin.Query, db *qjoin.DB, f *qjoin.Ranking, phis []float64) []server.WireAnswer {
	t.Helper()
	p, err := qjoin.Prepare(q, db)
	if err != nil {
		t.Fatal(err)
	}
	answers, err := p.Quantiles(f, phis)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]server.WireAnswer, len(answers))
	for i, a := range answers {
		out[i] = server.WireAnswer{
			Values: append([]int64(nil), a.Values...),
			Weight: server.WireWeight{K: a.Weight.K, Vec: a.Weight.Vec},
		}
	}
	return out
}

func mustJSON(t testing.TB, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestLoadAndQuery(t *testing.T) {
	h := server.New(server.Config{}).Handler()
	var load server.LoadResponse
	decodeAs(t, do(t, h, "PUT", "/datasets/tiny", tinyLoad()), 200, &load)
	if load.Generation != 1 || load.Tuples != 6 || load.Relations != 2 {
		t.Fatalf("load = %+v", load)
	}

	// count needs no ranking.
	var resp server.QueryResponse
	decodeAs(t, do(t, h, "POST", "/query", server.QueryRequest{
		Dataset: "tiny", Query: "R(x,y),S(y,z)", Op: "count",
	}), 200, &resp)
	if resp.Count != "3" || resp.Cached {
		t.Fatalf("count resp = %+v", resp)
	}

	// The first quantile shares the count plan (same query):
	// no second prepare — sibling sharing serves it as a cache hit.
	decodeAs(t, do(t, h, "POST", "/query", server.QueryRequest{
		Dataset: "tiny", Query: "R(x,y),S(y,z)", Rank: "sum(x,z)", Op: "quantile", Phi: 0.5,
	}), 200, &resp)
	if len(resp.Answers) != 1 || resp.Answers[0].Weight.K != 23 {
		t.Fatalf("quantile resp = %+v", resp)
	}
	if resp.Generation != 1 {
		t.Fatalf("generation = %d", resp.Generation)
	}
	decodeAs(t, do(t, h, "POST", "/query", server.QueryRequest{
		Dataset: "tiny", Query: "R(x,y),S(y,z)", Rank: "sum(x,z)", Op: "quantile", Phi: 0.5,
	}), 200, &resp)
	if !resp.Cached {
		t.Fatalf("second identical query not served from cache: %+v", resp)
	}

	// Whitespace variants of the same query hit the same cache entry — the
	// key is the canonical wire form.
	decodeAs(t, do(t, h, "POST", "/query", server.QueryRequest{
		Dataset: "tiny", Query: " R( x , y ) , S(y,z) ", Rank: "sum(x,z)", Op: "quantile", Phi: 0.5,
	}), 200, &resp)
	if !resp.Cached {
		t.Fatalf("canonicalized query missed the cache: %+v", resp)
	}

	// The full op surface against the oracle.
	q, f, err := qjoin.ParseQuerySpec(qjoin.QuerySpec{Query: "R(x,y),S(y,z)", Rank: "sum(x,z)"})
	if err != nil {
		t.Fatal(err)
	}
	phis := []float64{0, 0.5, 1}
	want := oracleAnswers(t, q, tinyDB(t), f, phis)
	decodeAs(t, do(t, h, "POST", "/query", server.QueryRequest{
		Dataset: "tiny", Query: "R(x,y),S(y,z)", Rank: "sum(x,z)", Op: "quantiles", Phis: phis,
	}), 200, &resp)
	if mustJSON(t, resp.Answers) != mustJSON(t, want) {
		t.Fatalf("quantiles grid:\n got %s\nwant %s", mustJSON(t, resp.Answers), mustJSON(t, want))
	}
	decodeAs(t, do(t, h, "POST", "/query", server.QueryRequest{
		Dataset: "tiny", Query: "R(x,y),S(y,z)", Rank: "sum(x,z)", Op: "median",
	}), 200, &resp)
	if resp.Answers[0].Weight.K != 23 {
		t.Fatalf("median = %+v", resp.Answers)
	}
	decodeAs(t, do(t, h, "POST", "/query", server.QueryRequest{
		Dataset: "tiny", Query: "R(x,y),S(y,z)", Rank: "sum(x,z)", Op: "topk", K: 2,
	}), 200, &resp)
	if len(resp.Answers) != 2 || resp.Answers[0].Weight.K != 11 || resp.Answers[1].Weight.K != 23 {
		t.Fatalf("topk = %+v", resp.Answers)
	}
	// k comes off the wire and may dwarf |Q(D)|, up to MaxTopK: the reply is
	// the full (short) ranked list. (When TopK sized its result slice by k, a
	// huge k was an unrecoverable out-of-memory fault in the query goroutine.)
	for _, shards := range []int{0, 3} {
		load := tinyLoad()
		load.Shards = shards
		name := fmt.Sprintf("tiny-k%d", shards)
		decodeAs(t, do(t, h, "PUT", "/datasets/"+name, load), 200, nil)
		decodeAs(t, do(t, h, "POST", "/query", server.QueryRequest{
			Dataset: name, Query: "R(x,y),S(y,z)", Rank: "sum(x,z)", Op: "topk", K: qjoin.MaxTopK,
		}), 200, &resp)
		if len(resp.Answers) != 3 || resp.Answers[0].Weight.K != 11 || resp.Answers[2].Weight.K != 35 {
			t.Fatalf("shards=%d: topk with k=MaxTopK = %+v, want all 3 answers", shards, resp.Answers)
		}
	}
	decodeAs(t, do(t, h, "POST", "/query", server.QueryRequest{
		Dataset: "tiny", Query: "R(x,y),S(y,z)", Rank: "sum(x,z)", Op: "approx", Phi: 0.5, Eps: 0.4,
	}), 200, &resp)
	if len(resp.Answers) != 1 {
		t.Fatalf("approx = %+v", resp.Answers)
	}

	// Timing is opt-in so default responses stay byte-deterministic.
	if resp.ElapsedUS != 0 {
		t.Fatalf("unrequested timing in %+v", resp)
	}
	decodeAs(t, do(t, h, "POST", "/query", server.QueryRequest{
		Dataset: "tiny", Query: "R(x,y),S(y,z)", Rank: "sum(x,z)", Op: "quantile", Phi: 0.5, Timing: true,
	}), 200, &resp)
	if resp.ElapsedUS <= 0 {
		t.Fatalf("timing requested but elapsed_us = %d", resp.ElapsedUS)
	}
}

func TestQueryValidationErrors(t *testing.T) {
	h := server.New(server.Config{}).Handler()
	decodeAs(t, do(t, h, "PUT", "/datasets/tiny", tinyLoad()), 200, nil)

	cases := []struct {
		name      string
		req       server.QueryRequest
		status    int
		wantField string
	}{
		{"phi-high", server.QueryRequest{Dataset: "tiny", Query: "R(x,y),S(y,z)", Rank: "sum(x,z)", Op: "quantile", Phi: 1.5}, 400, "phi"},
		{"phi-negative", server.QueryRequest{Dataset: "tiny", Query: "R(x,y),S(y,z)", Rank: "sum(x,z)", Op: "quantile", Phi: -0.1}, 400, "phi"},
		{"phis-bad", server.QueryRequest{Dataset: "tiny", Query: "R(x,y),S(y,z)", Rank: "sum(x,z)", Op: "quantiles", Phis: []float64{0.5, 2}}, 400, "phi"},
		{"phis-empty", server.QueryRequest{Dataset: "tiny", Query: "R(x,y),S(y,z)", Rank: "sum(x,z)", Op: "quantiles"}, 400, "phis"},
		{"phis-too-many", server.QueryRequest{Dataset: "tiny", Query: "R(x,y),S(y,z)", Rank: "sum(x,z)", Op: "quantiles", Phis: make([]float64, qjoin.MaxPhis+1)}, 400, "phis"},
		{"eps-zero", server.QueryRequest{Dataset: "tiny", Query: "R(x,y),S(y,z)", Rank: "sum(x,z)", Op: "approx", Phi: 0.5}, 400, "eps"},
		{"eps-negative", server.QueryRequest{Dataset: "tiny", Query: "R(x,y),S(y,z)", Rank: "sum(x,z)", Op: "approx", Phi: 0.5, Eps: -1}, 400, "eps"},
		{"k-negative", server.QueryRequest{Dataset: "tiny", Query: "R(x,y),S(y,z)", Rank: "sum(x,z)", Op: "topk", K: -1}, 400, "k"},
		{"bad-op", server.QueryRequest{Dataset: "tiny", Query: "R(x,y),S(y,z)", Rank: "sum(x,z)", Op: "avg"}, 400, "op"},
		{"bad-query", server.QueryRequest{Dataset: "tiny", Query: "R(x", Rank: "sum(x)", Op: "count"}, 400, "query"},
		{"bad-rank", server.QueryRequest{Dataset: "tiny", Query: "R(x,y),S(y,z)", Rank: "avg(x)", Op: "quantile", Phi: 0.5}, 400, "rank"},
		{"unbound-rank-var", server.QueryRequest{Dataset: "tiny", Query: "R(x,y),S(y,z)", Rank: "sum(w)", Op: "quantile", Phi: 0.5}, 400, "rank"},
		{"missing-rank", server.QueryRequest{Dataset: "tiny", Query: "R(x,y),S(y,z)", Op: "quantile", Phi: 0.5}, 400, "rank"},
		{"missing-dataset", server.QueryRequest{Query: "R(x,y)", Rank: "sum(x)", Op: "quantile", Phi: 0.5}, 400, "dataset"},
		{"unknown-dataset", server.QueryRequest{Dataset: "nope", Query: "R(x,y)", Rank: "sum(x)", Op: "count"}, 404, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var er server.ErrorResponse
			decodeAs(t, do(t, h, "POST", "/query", tc.req), tc.status, &er)
			if er.Field != tc.wantField {
				t.Fatalf("field = %q, want %q (error: %s)", er.Field, tc.wantField, er.Error)
			}
			if er.Error == "" {
				t.Fatal("empty error message")
			}
		})
	}

	// Malformed JSON and unknown fields are 400s too.
	req := httptest.NewRequest("POST", "/query", strings.NewReader(`{"dataset": nope}`))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != 400 {
		t.Fatalf("malformed JSON: status %d", w.Code)
	}
	req = httptest.NewRequest("POST", "/query", strings.NewReader(`{"dataset":"tiny","bogus":1}`))
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != 400 {
		t.Fatalf("unknown field: status %d", w.Code)
	}
	// The protocol has no worker count (plans compile with the library's
	// default), so a workers field is an unknown field whatever its value.
	for _, tc := range []struct {
		name    string
		workers int
	}{{"default-workers", 0}, {"negative-workers", -1}, {"absurd-workers", 1 << 20}} {
		t.Run(tc.name, func(t *testing.T) {
			body := fmt.Sprintf(`{"dataset":"tiny","query":"R(x,y),S(y,z)","rank":"sum(x,z)","op":"quantile","phi":0.5,"workers":%d}`, tc.workers)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("POST", "/query", strings.NewReader(body)))
			if w.Code != 400 || !strings.Contains(w.Body.String(), `unknown field \"workers\"`) {
				t.Fatalf("status %d body %s, want a 400 on the unknown field", w.Code, w.Body.String())
			}
		})
	}

	// A cyclic query is served through a hypertree decomposition: the
	// triangle instance has exactly one answer, (1,2,3).
	decodeAs(t, do(t, h, "PUT", "/datasets/tri", server.LoadRequest{Relations: []server.RelationData{
		{Name: "A", Arity: 2, Rows: [][]int64{{1, 2}}},
		{Name: "B", Arity: 2, Rows: [][]int64{{2, 3}}},
		{Name: "C", Arity: 2, Rows: [][]int64{{3, 1}}},
	}}), 200, nil)
	var qr server.QueryResponse
	decodeAs(t, do(t, h, "POST", "/query", server.QueryRequest{
		Dataset: "tri", Query: "A(x,y),B(y,z),C(z,x)", Rank: "sum(x)", Op: "quantile", Phi: 0.5,
	}), 200, &qr)
	if len(qr.Answers) != 1 || !reflect.DeepEqual(qr.Answers[0].Values, []int64{1, 2, 3}) {
		t.Fatalf("cyclic answer = %+v, want [1 2 3]", qr.Answers)
	}
	// A cyclic query beyond the decomposition width cap is a 400 naming
	// the query argument.
	var er server.ErrorResponse
	petersen := make([]server.RelationData, 15)
	var petersenAtoms []string
	for i, e := range [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0},
		{5, 7}, {7, 9}, {9, 6}, {6, 8}, {8, 5},
		{0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9},
	} {
		petersen[i] = server.RelationData{Name: fmt.Sprintf("E%d", i), Arity: 2, Rows: [][]int64{{1, 1}}}
		petersenAtoms = append(petersenAtoms, fmt.Sprintf("E%d(v%d,v%d)", i, e[0], e[1]))
	}
	decodeAs(t, do(t, h, "PUT", "/datasets/petersen", server.LoadRequest{Relations: petersen}), 200, nil)
	resp := do(t, h, "POST", "/query", server.QueryRequest{
		Dataset: "petersen", Query: strings.Join(petersenAtoms, ","), Rank: "sum(v0)", Op: "quantile", Phi: 0.5,
	})
	decodeAs(t, resp, 400, &er)
	if er.Field != "query" {
		t.Fatalf("width-cap error = %+v, want field query", er)
	}

	// An empty answer set is a 404, not a 500.
	decodeAs(t, do(t, h, "PUT", "/datasets/empty", server.LoadRequest{Relations: []server.RelationData{
		{Name: "R", Arity: 2, Rows: [][]int64{{1, 2}}},
		{Name: "S", Arity: 2, Rows: [][]int64{{9, 9}}},
	}}), 200, nil)
	decodeAs(t, do(t, h, "POST", "/query", server.QueryRequest{
		Dataset: "empty", Query: "R(x,y),S(y,z)", Rank: "sum(x,z)", Op: "quantile", Phi: 0.5,
	}), 404, &er)
}

func TestLoadValidation(t *testing.T) {
	h := server.New(server.Config{}).Handler()
	bad := []server.LoadRequest{
		{},
		{Relations: []server.RelationData{{Name: "", Arity: 2}}},
		{Relations: []server.RelationData{{Name: "R", Arity: 0}}},
		{Relations: []server.RelationData{{Name: "R", Arity: 2, Rows: [][]int64{{1}}}}},
		{Relations: []server.RelationData{{Name: "R", Arity: 2, Rows: [][]int64{{1, 2}}, CSV: "3,4\n"}}},
		{Relations: []server.RelationData{{Name: "R", Arity: 2, CSV: "1,2\n3\n"}}},
	}
	for i, req := range bad {
		if w := do(t, h, "PUT", "/datasets/x", req); w.Code != 400 {
			t.Fatalf("bad load %d: status %d, body %s", i, w.Code, w.Body.String())
		}
	}
	// CSV text loads work and agree with row loads.
	var load server.LoadResponse
	decodeAs(t, do(t, h, "PUT", "/datasets/x", server.LoadRequest{Relations: []server.RelationData{
		{Name: "R", Arity: 2, CSV: "1,2\n3,4\n"},
	}}), 200, &load)
	if load.Tuples != 2 {
		t.Fatalf("csv load = %+v", load)
	}
}

func TestDeltaMigratesPlans(t *testing.T) {
	srv := server.New(server.Config{})
	h := srv.Handler()
	decodeAs(t, do(t, h, "PUT", "/datasets/tiny", tinyLoad()), 200, nil)

	// Cache a plan.
	var resp server.QueryResponse
	decodeAs(t, do(t, h, "POST", "/query", server.QueryRequest{
		Dataset: "tiny", Query: "R(x,y),S(y,z)", Rank: "sum(x,z)", Op: "quantile", Phi: 0.5,
	}), 200, &resp)

	// Delta: drop the middle answer, add a new lowest one.
	delta := server.DeltaRequest{Ops: []server.DeltaOp{
		{Op: "delete", Rel: "R", Row: []int64{3, 4}},
		{Op: "insert", Rel: "R", Row: []int64{0, 2}},
	}}
	var dresp server.DeltaResponse
	decodeAs(t, do(t, h, "POST", "/datasets/tiny/delta", delta), 200, &dresp)
	if dresp.Generation != 2 || dresp.Ops != 2 {
		t.Fatalf("delta resp = %+v", dresp)
	}
	if dresp.PlansMigrated != 1 {
		t.Fatalf("plans_migrated = %d, want 1", dresp.PlansMigrated)
	}

	// The same query is served from the migrated plan (cached) and answers
	// byte-identically to a fresh Prepare on the mutated database.
	mutated, err := tinyDB(t).Apply(qjoin.NewDelta().
		Delete("R", []int64{3, 4}).
		Insert("R", []int64{0, 2}))
	if err != nil {
		t.Fatal(err)
	}
	q, f, err := qjoin.ParseQuerySpec(qjoin.QuerySpec{Query: "R(x,y),S(y,z)", Rank: "sum(x,z)"})
	if err != nil {
		t.Fatal(err)
	}
	phis := []float64{0, 0.5, 1}
	want := oracleAnswers(t, q, mutated, f, phis)
	decodeAs(t, do(t, h, "POST", "/query", server.QueryRequest{
		Dataset: "tiny", Query: "R(x,y),S(y,z)", Rank: "sum(x,z)", Op: "quantiles", Phis: phis,
	}), 200, &resp)
	if !resp.Cached {
		t.Fatalf("migrated plan not cached: %+v", resp)
	}
	if resp.Generation != 2 {
		t.Fatalf("generation = %d, want 2", resp.Generation)
	}
	if mustJSON(t, resp.Answers) != mustJSON(t, want) {
		t.Fatalf("post-delta answers:\n got %s\nwant %s", mustJSON(t, resp.Answers), mustJSON(t, want))
	}

	// Delta text format goes through the shared loadfmt parser.
	decodeAs(t, do(t, h, "POST", "/datasets/tiny/delta", server.DeltaRequest{
		Text: "+S,2,40\n-S,6,30\n",
	}), 200, &dresp)
	if dresp.Generation != 3 {
		t.Fatalf("text delta resp = %+v", dresp)
	}

	// A delete of an absent tuple is a 409 and leaves the generation alone.
	var er server.ErrorResponse
	decodeAs(t, do(t, h, "POST", "/datasets/tiny/delta", server.DeltaRequest{
		Ops: []server.DeltaOp{{Op: "delete", Rel: "R", Row: []int64{99, 99}}},
	}), 409, &er)
	decodeAs(t, do(t, h, "POST", "/query", server.QueryRequest{
		Dataset: "tiny", Query: "R(x,y),S(y,z)", Op: "count",
	}), 200, &resp)
	if resp.Generation != 3 {
		t.Fatalf("generation after failed delta = %d, want 3", resp.Generation)
	}

	// Unknown dataset and malformed deltas.
	decodeAs(t, do(t, h, "POST", "/datasets/nope/delta", delta), 404, &er)
	decodeAs(t, do(t, h, "POST", "/datasets/tiny/delta", server.DeltaRequest{}), 400, &er)
	decodeAs(t, do(t, h, "POST", "/datasets/tiny/delta", server.DeltaRequest{
		Ops: []server.DeltaOp{{Op: "upsert", Rel: "R", Row: []int64{1, 2}}},
	}), 400, &er)
}

func TestReloadDropsPlans(t *testing.T) {
	srv := server.New(server.Config{})
	h := srv.Handler()
	decodeAs(t, do(t, h, "PUT", "/datasets/tiny", tinyLoad()), 200, nil)
	var resp server.QueryResponse
	q := server.QueryRequest{Dataset: "tiny", Query: "R(x,y),S(y,z)", Rank: "sum(x,z)", Op: "quantile", Phi: 0.5}
	decodeAs(t, do(t, h, "POST", "/query", q), 200, &resp)
	decodeAs(t, do(t, h, "POST", "/query", q), 200, &resp)
	if !resp.Cached {
		t.Fatal("plan not cached")
	}
	var load server.LoadResponse
	decodeAs(t, do(t, h, "PUT", "/datasets/tiny", tinyLoad()), 200, &load)
	if load.Generation != 2 {
		t.Fatalf("reload generation = %d, want 2", load.Generation)
	}
	decodeAs(t, do(t, h, "POST", "/query", q), 200, &resp)
	if resp.Cached || resp.Generation != 2 {
		t.Fatalf("post-reload query = %+v, want fresh plan at gen 2", resp)
	}
}

func TestDatasetEndpoints(t *testing.T) {
	h := server.New(server.Config{}).Handler()
	decodeAs(t, do(t, h, "PUT", "/datasets/a", tinyLoad()), 200, nil)
	decodeAs(t, do(t, h, "PUT", "/datasets/b", tinyLoad()), 200, nil)

	var list []server.DatasetInfo
	decodeAs(t, do(t, h, "GET", "/datasets", nil), 200, &list)
	if len(list) != 2 || list[0].Name != "a" || list[1].Name != "b" {
		t.Fatalf("list = %+v", list)
	}
	var info server.DatasetInfo
	decodeAs(t, do(t, h, "GET", "/datasets/a", nil), 200, &info)
	if info.Tuples != 6 || len(info.Relations) != 2 || info.Relations[0].Arity != 2 {
		t.Fatalf("info = %+v", info)
	}
	if w := do(t, h, "DELETE", "/datasets/a", nil); w.Code != http.StatusNoContent {
		t.Fatalf("delete status = %d", w.Code)
	}
	if w := do(t, h, "GET", "/datasets/a", nil); w.Code != 404 {
		t.Fatalf("deleted dataset status = %d", w.Code)
	}
	if w := do(t, h, "DELETE", "/datasets/a", nil); w.Code != 404 {
		t.Fatalf("double delete status = %d", w.Code)
	}
}

func TestStatsAndMetrics(t *testing.T) {
	srv := server.New(server.Config{})
	h := srv.Handler()
	decodeAs(t, do(t, h, "PUT", "/datasets/tiny", tinyLoad()), 200, nil)
	q := server.QueryRequest{Dataset: "tiny", Query: "R(x,y),S(y,z)", Rank: "sum(x,z)", Op: "quantile", Phi: 0.5}
	decodeAs(t, do(t, h, "POST", "/query", q), 200, nil)
	decodeAs(t, do(t, h, "POST", "/query", q), 200, nil)
	do(t, h, "POST", "/query", server.QueryRequest{Dataset: "tiny", Query: "R(x", Op: "count"}) // a 400

	var stats server.StatsResponse
	decodeAs(t, do(t, h, "GET", "/stats", nil), 200, &stats)
	if len(stats.Datasets) != 1 || stats.Datasets[0].Name != "tiny" {
		t.Fatalf("stats datasets = %+v", stats.Datasets)
	}
	if stats.Cache.Hits < 1 || stats.Cache.Prepares < 1 {
		t.Fatalf("cache stats = %+v", stats.Cache)
	}
	if stats.Metrics.Query.Requests != 3 || stats.Metrics.Load.Requests != 1 {
		t.Fatalf("metrics = %+v", stats.Metrics)
	}
	if stats.Metrics.Errors < 1 {
		t.Fatalf("errors = %d, want >= 1", stats.Metrics.Errors)
	}
	if stats.Metrics.Query.Latency.Count != 3 || stats.Metrics.Query.Latency.P50US <= 0 {
		t.Fatalf("query latency = %+v", stats.Metrics.Query.Latency)
	}

	// /metrics exposes the expvar view including the qjserve variable.
	w := do(t, h, "GET", "/metrics", nil)
	if w.Code != 200 || !strings.Contains(w.Body.String(), "\"qjserve\"") {
		t.Fatalf("/metrics status %d, body %.120s", w.Code, w.Body.String())
	}

	// /healthz answers without a dataset.
	if w := do(t, h, "GET", "/healthz", nil); w.Code != 200 {
		t.Fatalf("healthz = %d", w.Code)
	}
}

// TestQueryTimeout exercises the context deadline: a request whose plan
// compile cannot finish inside the timeout returns a 503 and bumps the
// timeout counter.
func TestQueryTimeout(t *testing.T) {
	srv := server.New(server.Config{RequestTimeout: 1 * time.Millisecond})
	h := srv.Handler()
	// A dataset big enough that Prepare takes well over a millisecond.
	rows := make([][]int64, 1<<15)
	for i := range rows {
		rows[i] = []int64{int64(i % 97), int64(i)}
	}
	decodeAs(t, do(t, h, "PUT", "/datasets/big", server.LoadRequest{Relations: []server.RelationData{
		{Name: "R", Arity: 2, Rows: rows},
		{Name: "S", Arity: 2, Rows: rows},
	}}), 200, nil)
	w := do(t, h, "POST", "/query", server.QueryRequest{
		Dataset: "big", Query: "R(x,y),S(x,z)", Rank: "sum(y,z)", Op: "quantile", Phi: 0.5,
	})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body %s", w.Code, w.Body.String())
	}
	var stats server.StatsResponse
	decodeAs(t, do(t, h, "GET", "/stats", nil), 200, &stats)
	if stats.Metrics.Timeouts < 1 {
		t.Fatalf("timeouts = %d, want >= 1", stats.Metrics.Timeouts)
	}
}

// TestPlanCacheLRU drives the cache directly: eviction order, singleflight
// coalescing, sibling plan sharing and migration bookkeeping.
func TestPlanCacheLRU(t *testing.T) {
	c := server.NewPlanCache(2)
	db := tinyDB(t)
	prepare := func(qs string) func() (qjoin.Plan, error) {
		return func() (qjoin.Plan, error) {
			q, err := qjoin.ParseQuery(qs)
			if err != nil {
				return nil, err
			}
			return qjoin.Prepare(q, db, qjoin.Options{Parallelism: 1})
		}
	}
	f := qjoin.Sum("x", "z")
	ctx := context.Background()

	p1, _, cached, err := c.Get(ctx, "d", 1, "R(x,y),S(y,z)", "sum(x,z)", 1, f, nil, prepare("R(x,y),S(y,z)"))
	if err != nil || cached || p1 == nil {
		t.Fatalf("first get: %v %v", cached, err)
	}
	f2 := qjoin.Sum("x", "z")
	_, rf, cached, err := c.Get(ctx, "d", 1, "R(x,y),S(y,z)", "sum(x,z)", 1, f2, nil, prepare("R(x,y),S(y,z)"))
	if err != nil || !cached {
		t.Fatalf("second get not cached: %v", err)
	}
	if rf != f2 {
		t.Fatal("cache did not hand back the caller's own ranking")
	}

	// A different ranking over the same query shares the plan: no prepare.
	p2, _, _, err := c.Get(ctx, "d", 1, "R(x,y),S(y,z)", "min(x)", 1, qjoin.Min("x"), nil,
		func() (qjoin.Plan, error) { t.Fatal("prepare called despite sibling"); return nil, nil })
	if err != nil || p2 != p1 {
		t.Fatalf("sibling sharing failed: %v", err)
	}

	// Capacity 2: a third distinct key evicts the least recently used.
	if _, _, _, err := c.Get(ctx, "d", 1, "R(x,y)", "sum(x)", 1, qjoin.Sum("x"), nil, prepare("R(x,y)")); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Size != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// Migration moves live entries to the new generation and keeps sharing.
	delta := qjoin.NewDelta().Insert("R", []int64{7, 2})
	if n := c.Migrate("d", 1, 2, delta); n != 2 {
		t.Fatalf("migrated %d entries, want 2", n)
	}
	_, _, cached, err = c.Get(ctx, "d", 2, "R(x,y)", "sum(x)", 1, qjoin.Sum("x"), nil,
		func() (qjoin.Plan, error) { t.Fatal("prepare after migrate"); return nil, nil })
	if err != nil || !cached {
		t.Fatalf("migrated entry missed: %v", err)
	}

	// DropDataset empties it.
	if n := c.DropDataset("d"); n != 2 {
		t.Fatalf("dropped %d, want 2", n)
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d", c.Len())
	}
}

// TestPlanCacheSingleflight asserts concurrent identical misses run one
// prepare.
func TestPlanCacheSingleflight(t *testing.T) {
	c := server.NewPlanCache(8)
	db := tinyDB(t)
	var prepares int64
	var mu sync.Mutex
	release := make(chan struct{})
	prepare := func() (qjoin.Plan, error) {
		mu.Lock()
		prepares++
		mu.Unlock()
		<-release // hold every latecomer in the flight
		q, _ := qjoin.ParseQuery("R(x,y),S(y,z)")
		return qjoin.Prepare(q, db, qjoin.Options{Parallelism: 1})
	}
	const N = 8
	var wg sync.WaitGroup
	plans := make([]qjoin.Plan, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, _, _, err := c.Get(context.Background(), "d", 1, "R(x,y),S(y,z)", "sum(x,z)", 1, qjoin.Sum("x", "z"), nil, prepare)
			if err != nil {
				t.Error(err)
			}
			plans[i] = p
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let every goroutine reach the flight
	close(release)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if prepares != 1 {
		t.Fatalf("prepares = %d, want 1", prepares)
	}
	for i := 1; i < N; i++ {
		if plans[i] != plans[0] {
			t.Fatalf("plan %d differs", i)
		}
	}
	st := c.Stats()
	// Scheduling may let some goroutines reach Get only after the flight
	// completed (they count as hits, not coalesced); the invariant is that
	// exactly one prepare ran and every caller is accounted for.
	if st.Misses != 1 || st.Prepares != 1 || st.Hits+st.Coalesced != N-1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRegistryGenerations(t *testing.T) {
	r := server.NewRegistry()
	db := qjoin.NewDB().MustAdd("R", 1, [][]int64{{1}})
	if s := r.Load("a", db, 0); s.Gen != 1 {
		t.Fatalf("gen = %d", s.Gen)
	}
	if s := r.Load("a", db, 0); s.Gen != 2 {
		t.Fatalf("reload gen = %d, want 2 (monotonic across reloads)", s.Gen)
	}
	old, now, err := r.Mutate("a", func(cur server.Snapshot, nextGen uint64) (*qjoin.DB, error) {
		if nextGen != cur.Gen+1 {
			t.Fatalf("nextGen = %d, want %d", nextGen, cur.Gen+1)
		}
		return cur.DB.Apply(qjoin.NewDelta().Insert("R", []int64{2}))
	})
	if err != nil || old.Gen != 2 || now.Gen != 3 {
		t.Fatalf("mutate: %v %d -> %d", err, old.Gen, now.Gen)
	}
	if snap, ok := r.Get("a"); !ok || snap.Gen != 3 || snap.DB.Size() != 2 {
		t.Fatalf("get = %+v %v", snap, ok)
	}
	// A failing mutation leaves the snapshot untouched (its assigned
	// generation number is burned — monotonic, not contiguous).
	_, _, err = r.Mutate("a", func(cur server.Snapshot, nextGen uint64) (*qjoin.DB, error) {
		return nil, fmt.Errorf("boom")
	})
	if err == nil {
		t.Fatal("mutate error swallowed")
	}
	if snap, _ := r.Get("a"); snap.Gen != 3 {
		t.Fatalf("gen after failed mutate = %d", snap.Gen)
	}
	if _, _, err := r.Mutate("nope", nil); err == nil {
		t.Fatal("mutate of unknown dataset succeeded")
	}
	if !r.Delete("a") || r.Delete("a") {
		t.Fatal("delete bookkeeping")
	}
	// Generations survive Delete: a reloaded name resumes the numbering,
	// so stale cache entries of the dead lineage can never collide with
	// the new one.
	if s := r.Load("a", db, 0); s.Gen <= 4 {
		t.Fatalf("post-delete reload gen = %d, want > 4 (monotonic across Delete)", s.Gen)
	}
}
