package server_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/server"
)

// TestConcurrentMixedTraffic is the serving layer's -race workout: N reader
// goroutines issue quantile/count/topk traffic while a writer applies
// deltas (generation swaps) and a churner loads and evicts side datasets,
// all against one registry + plan cache through the HTTP handler. Every
// response is stamped with the generation it answered under; after the
// storm, every sampled answer is checked byte-identical to a freshly
// Prepared oracle on that generation's database — a migrated plan may never
// drift from a recompile.
func TestConcurrentMixedTraffic(t *testing.T) {
	// A small cache forces eviction churn alongside hits and migrations.
	srv := server.New(server.Config{CacheCap: 4})
	h := srv.Handler()

	// Base dataset: a binary join R(x,y) ⋈ S(y,z) with enough rows to make
	// answers non-trivial but keep the race run fast.
	rng := rand.New(rand.NewSource(77))
	nRows := 300
	rrows := make([][]int64, 0, nRows)
	srows := make([][]int64, 0, nRows)
	for i := 0; i < nRows; i++ {
		rrows = append(rrows, []int64{rng.Int63n(40), rng.Int63n(1000)})
		srows = append(srows, []int64{rng.Int63n(40), rng.Int63n(1000)})
	}
	decodeAs(t, do(t, h, "PUT", "/datasets/d", server.LoadRequest{Relations: []server.RelationData{
		{Name: "R", Arity: 2, Rows: rrows},
		{Name: "S", Arity: 2, Rows: srows},
	}}), 200, nil)

	// The writer mirrors every generation's database for the oracle pass.
	const generations = 6
	mirrors := make([]*qjoin.DB, generations+1) // index = generation - 1... mirrors[g] is gen g+1? keep explicit below
	base := qjoin.NewDB().MustAdd("R", 2, rrows).MustAdd("S", 2, srows)
	mirrors[1] = base // generation 1

	queries := []server.QueryRequest{
		{Dataset: "d", Query: "R(x,y),S(x,z)", Rank: "sum(y,z)", Op: "quantiles", Phis: []float64{0.1, 0.5, 0.9}},
		{Dataset: "d", Query: "R(x,y),S(x,z)", Rank: "max(y,z)", Op: "quantile", Phi: 0.25},
		{Dataset: "d", Query: "R(x,y),S(x,z)", Rank: "min(y)", Op: "quantile", Phi: 0.75},
		{Dataset: "d", Query: "R(x,y),S(x,z)", Rank: "sum(y,z)", Op: "topk", K: 3},
		{Dataset: "d", Query: "R(x,y),S(x,z)", Op: "count"},
	}

	type sample struct {
		gen  uint64
		qidx int
		body string // JSON of (answers, count) — the byte-identity subject
	}
	var (
		mu      sync.Mutex
		samples []sample
	)

	var wg sync.WaitGroup
	const readers = 6
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				qi := rng.Intn(len(queries))
				w := do(t, h, "POST", "/query", queries[qi])
				if w.Code != http.StatusOK {
					t.Errorf("query %d: status %d: %s", qi, w.Code, w.Body.String())
					return
				}
				var resp server.QueryResponse
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
					t.Error(err)
					return
				}
				body, _ := json.Marshal(struct {
					A []server.WireAnswer
					C string
				}{resp.Answers, resp.Count})
				mu.Lock()
				samples = append(samples, sample{gen: resp.Generation, qidx: qi, body: string(body)})
				mu.Unlock()
			}
		}(int64(1000 + r))
	}

	// The churner loads, queries and deletes side datasets, forcing cache
	// evictions (cap 4) and registry add/remove under fire.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			name := fmt.Sprintf("side%d", i%3)
			if w := do(t, h, "PUT", "/datasets/"+name, tinyLoad()); w.Code != 200 {
				t.Errorf("churn load: %d", w.Code)
				return
			}
			if w := do(t, h, "POST", "/query", server.QueryRequest{
				Dataset: name, Query: "R(x,y),S(y,z)", Rank: "sum(x,z)", Op: "quantile", Phi: 0.5,
			}); w.Code != 200 {
				t.Errorf("churn query: %d: %s", w.Code, w.Body.String())
				return
			}
			if i%5 == 4 {
				do(t, h, "DELETE", "/datasets/"+name, nil)
			}
		}
	}()

	// The writer applies deltas — inserts of fresh joining rows plus
	// deletes of rows it inserted earlier — mirroring each generation.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cur := base
		for g := 2; g <= generations; g++ {
			delta := qjoin.NewDelta()
			dr := server.DeltaRequest{}
			for j := 0; j < 4; j++ {
				row := []int64{int64(40 + g), int64(2000*g + j)}
				delta.Insert("R", row)
				dr.Ops = append(dr.Ops, server.DeltaOp{Op: "insert", Rel: "R", Row: row})
			}
			if g > 2 {
				// Delete one row inserted by the previous generation.
				row := []int64{int64(40 + g - 1), int64(2000 * (g - 1))}
				delta.Delete("R", row)
				dr.Ops = append(dr.Ops, server.DeltaOp{Op: "delete", Rel: "R", Row: row})
			}
			var dresp server.DeltaResponse
			w := do(t, h, "POST", "/datasets/d/delta", dr)
			if w.Code != 200 {
				t.Errorf("delta: %d: %s", w.Code, w.Body.String())
				return
			}
			if err := json.Unmarshal(w.Body.Bytes(), &dresp); err != nil {
				t.Error(err)
				return
			}
			if dresp.Generation != uint64(g) {
				t.Errorf("delta generation = %d, want %d", dresp.Generation, g)
				return
			}
			next, err := cur.Apply(delta)
			if err != nil {
				t.Errorf("mirror apply: %v", err)
				return
			}
			mu.Lock()
			mirrors[g] = next
			mu.Unlock()
			cur = next
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	// Oracle pass: for every (generation, query) pair sampled, a fresh
	// Prepare on the mirrored database must produce byte-identical output.
	oracle := make(map[string]string)
	for _, s := range samples {
		okey := fmt.Sprintf("%d/%d", s.gen, s.qidx)
		want, ok := oracle[okey]
		if !ok {
			if int(s.gen) >= len(mirrors) || mirrors[s.gen] == nil {
				t.Fatalf("sample at unknown generation %d", s.gen)
			}
			db := mirrors[s.gen]
			req := queries[s.qidx]
			q, f, err := qjoin.ParseQuerySpec(qjoin.QuerySpec{Query: req.Query, Rank: req.Rank})
			if err != nil {
				t.Fatal(err)
			}
			p, err := qjoin.Prepare(q, db, qjoin.Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			var answers []*qjoin.Answer
			var count string
			switch req.Op {
			case "count":
				count = p.Count().String()
			case "topk":
				answers, err = p.TopK(f, req.K)
			case "quantile":
				var a *qjoin.Answer
				a, err = p.Quantile(f, req.Phi)
				answers = []*qjoin.Answer{a}
			case "quantiles":
				answers, err = p.Quantiles(f, req.Phis)
			}
			if err != nil {
				t.Fatalf("oracle gen %d query %d: %v", s.gen, s.qidx, err)
			}
			var wa []server.WireAnswer
			for _, a := range answers {
				wa = append(wa, server.WireAnswer{
					Values: append([]int64(nil), a.Values...),
					Weight: server.WireWeight{K: a.Weight.K, Vec: a.Weight.Vec},
				})
			}
			data, _ := json.Marshal(struct {
				A []server.WireAnswer
				C string
			}{wa, count})
			want = string(data)
			oracle[okey] = want
		}
		if s.body != want {
			t.Fatalf("gen %d query %d: served answers diverge from fresh Prepare:\n got %s\nwant %s",
				s.gen, s.qidx, s.body, want)
		}
	}
	if len(oracle) < generations {
		t.Logf("note: sampled %d (gen, query) pairs across %d generations", len(oracle), generations)
	}
}
