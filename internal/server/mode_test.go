package server_test

import (
	"net/http"
	"reflect"
	"testing"

	"github.com/quantilejoins/qjoin/internal/server"
)

// wideLoad is a 100-answer join (R(x,y) ⋈ S(y,z), one shared key), big
// enough that the default sketch grid leaves real gaps between anchors —
// so mode=auto has both a serve case and a fallback case to exercise.
func wideLoad() server.LoadRequest {
	r := make([][]int64, 100)
	for i := range r {
		r[i] = []int64{int64(i), 0}
	}
	return server.LoadRequest{Relations: []server.RelationData{
		{Name: "R", Arity: 2, Rows: r},
		{Name: "S", Arity: 2, Rows: [][]int64{{0, 5}}},
	}}
}

func stats(shifted, recertified int64) server.SketchRefreshStats {
	var s server.SketchRefreshStats
	s.Shifted, s.Recertified = shifted, recertified
	return s
}

// TestQueryModes drives the mode field end to end: approx answers report
// source=sketch with a certified bound, auto falls back byte-identically to
// the exact tier when ε is tighter than the sketch certifies, and bad mode
// arguments are 400s naming the field.
func TestQueryModes(t *testing.T) {
	srv := server.New(server.Config{Parallelism: 1})
	h := srv.Handler()
	decodeAs(t, do(t, h, "PUT", "/datasets/wide", wideLoad()), http.StatusOK, nil)

	base := server.QueryRequest{
		Dataset: "wide",
		Query:   "R(x,y),S(y,z)",
		Rank:    "sum(x,z)",
		Op:      "quantile",
		Phi:     0.52, // off the default sketch grid: the anchors certify error ≥ 1 here
	}

	// Legacy request (no mode): the response must not grow new fields.
	var legacy server.QueryResponse
	decodeAs(t, do(t, h, "POST", "/query", base), http.StatusOK, &legacy)
	if legacy.Source != "" || legacy.ErrorBound != 0 {
		t.Fatalf("legacy response reports source=%q bound=%v; want absent", legacy.Source, legacy.ErrorBound)
	}

	// mode=approx serves from the sketch and certifies its bound.
	req := base
	req.Mode = "approx"
	var approx server.QueryResponse
	decodeAs(t, do(t, h, "POST", "/query", req), http.StatusOK, &approx)
	if approx.Source != "sketch" {
		t.Fatalf("approx: source %q, want sketch", approx.Source)
	}
	if len(approx.Answers) != 1 {
		t.Fatalf("approx: %d answers, want 1", len(approx.Answers))
	}

	// mode=auto with a loose ε serves the sketch...
	req = base
	req.Mode = "auto"
	req.Eps = 0.25
	var auto server.QueryResponse
	decodeAs(t, do(t, h, "POST", "/query", req), http.StatusOK, &auto)
	if auto.Source != "sketch" {
		t.Fatalf("auto loose: source %q, want sketch", auto.Source)
	}

	// ...and with an ε tighter than the sketch's certified error at this φ
	// it falls back byte-identically to the exact tier.
	req.Eps = 0.001
	var fallback server.QueryResponse
	decodeAs(t, do(t, h, "POST", "/query", req), http.StatusOK, &fallback)
	if fallback.Source != "exact" {
		t.Fatalf("auto tight: source %q, want exact", fallback.Source)
	}
	if !reflect.DeepEqual(fallback.Answers, legacy.Answers) {
		t.Fatalf("auto fallback answers %v diverged from legacy %v", fallback.Answers, legacy.Answers)
	}

	// After a delta, migration re-certifies the carried sketches; approx
	// queries on the new generation still serve from the sketch tier.
	decodeAs(t, do(t, h, "POST", "/datasets/wide/delta", server.DeltaRequest{
		Ops: []server.DeltaOp{{Op: "insert", Rel: "R", Row: []int64{200, 0}}},
	}), http.StatusOK, nil)
	req = base
	req.Mode = "approx"
	var after server.QueryResponse
	decodeAs(t, do(t, h, "POST", "/query", req), http.StatusOK, &after)
	if after.Source != "sketch" {
		t.Fatalf("post-delta approx: source %q, want sketch", after.Source)
	}

	// /stats says which refresh each migration ran: the summary's first is the
	// full pass, the next shifts by the delta's answers, and a duplicate row —
	// which changes no answer — refreshes nothing.
	for _, step := range []struct {
		row  []int64
		want server.SketchRefreshStats
	}{
		{nil, stats(0, 1)},
		{[]int64{201, 0}, stats(1, 1)},
		{[]int64{201, 0}, stats(1, 1)},
	} {
		if step.row != nil {
			decodeAs(t, do(t, h, "POST", "/datasets/wide/delta", server.DeltaRequest{
				Ops: []server.DeltaOp{{Op: "insert", Rel: "R", Row: step.row}},
			}), http.StatusOK, nil)
		}
		var st server.StatsResponse
		decodeAs(t, do(t, h, "GET", "/stats", nil), http.StatusOK, &st)
		if st.Cache.SketchRefresh != step.want {
			t.Fatalf("after inserting %v: sketch_refresh %+v, want %+v", step.row, st.Cache.SketchRefresh, step.want)
		}
	}

	// Bad mode values and modes on non-quantile ops are 400s naming "mode".
	for _, bad := range []server.QueryRequest{
		{Dataset: "wide", Query: "R(x,y),S(y,z)", Rank: "sum(x,z)", Op: "quantile", Phi: 0.5, Mode: "bogus"},
		{Dataset: "wide", Query: "R(x,y),S(y,z)", Rank: "sum(x,z)", Op: "topk", K: 2, Mode: "approx"},
	} {
		var e server.ErrorResponse
		decodeAs(t, do(t, h, "POST", "/query", bad), http.StatusBadRequest, &e)
		if e.Field != "mode" {
			t.Fatalf("bad mode request: field %q, want mode (%s)", e.Field, e.Error)
		}
	}
}
