package server_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/server"
	"github.com/quantilejoins/qjoin/internal/workload"
)

// BenchmarkServerQuery — the serving layer's cached-plan hot path on the
// 32k-tuple acceptance instance, driven at the handler level (no TCP) so
// the numbers isolate serving overhead: JSON decode, validation, cache hit,
// engine query, JSON encode. It gates itself on a per-op allocation budget:
// the request path must stay a thin shell around the engine.
func BenchmarkServerQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	q, idb := workload.Path(rng, 2, 1<<14, 1<<18) // ≈1k answers from 32k tuples
	db := qjoin.WrapDB(idb)
	f := qjoin.Sum(q.Vars()...)
	phis := []float64{0.05, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9}

	srv := server.New(server.Config{Parallelism: 1})
	h := srv.Handler()
	load := server.LoadRequest{}
	for _, name := range db.Relations() {
		r := db.Unwrap().Get(name)
		rows := make([][]int64, r.Len())
		for i := range rows {
			rows[i] = r.RowValues(i)
		}
		load.Relations = append(load.Relations, server.RelationData{Name: name, Arity: r.Arity(), Rows: rows})
	}
	if w := do(b, h, "PUT", "/datasets/accept", load); w.Code != http.StatusOK {
		b.Fatalf("load: %d %s", w.Code, w.Body.String())
	}
	rankStr, err := qjoin.FormatRanking(f)
	if err != nil {
		b.Fatal(err)
	}
	queryBody := func(req server.QueryRequest) []byte {
		data, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		return data
	}
	run := func(b *testing.B, body []byte, allocBudget float64) {
		once := func() {
			req := httptest.NewRequest("POST", "/query", bytes.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("query: %d %s", w.Code, w.Body.String())
			}
		}
		// Warm: compile and cache the plan, warm the trim preparation.
		once()
		once()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			once()
		}
		b.StopTimer()
		perOp := testing.AllocsPerRun(3, once)
		b.ReportMetric(perOp, "allocs/req")
		if perOp > allocBudget {
			b.Fatalf("request path allocates %.0f allocs/op, budget %.0f — serving-layer allocation regression", perOp, allocBudget)
		}
	}

	// Single-φ quantile: the latency-critical interactive path. The engine
	// pays ~103 allocs per quantile on this instance, the HTTP shell (request
	// plumbing, JSON both ways, recorder) the rest. Budgets here are the
	// measurement plus 15%: 168 / 325 / 66 allocs per request (ISSUE 21).
	b.Run("quantile", func(b *testing.B) {
		run(b, queryBody(server.QueryRequest{
			Dataset: "accept", Query: qjoin.FormatQuery(q), Rank: rankStr, Op: "quantile", Phi: 0.5,
		}), 193)
	})
	// The 8-φ grid: one request amortizes decode/encode across the φ's, and
	// one shared descent the engine work (842 allocs when each φ ran alone).
	b.Run("grid8", func(b *testing.B) {
		run(b, queryBody(server.QueryRequest{
			Dataset: "accept", Query: qjoin.FormatQuery(q), Rank: rankStr, Op: "quantiles", Phis: phis,
		}), 374)
	})
	// count is pure cache: decode, hit, encode a cached big.Int.
	b.Run("count", func(b *testing.B) {
		run(b, queryBody(server.QueryRequest{
			Dataset: "accept", Query: qjoin.FormatQuery(q), Op: "count",
		}), 76)
	})
}
