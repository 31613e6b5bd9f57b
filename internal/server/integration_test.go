package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/server"
	"github.com/quantilejoins/qjoin/internal/workload"
)

// httpJSON posts a JSON body over a real TCP connection and decodes the
// response.
func httpJSON(t testing.TB, client *http.Client, method, url string, body, out any) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		t.Fatalf("%s %s: status %d: %s", method, url, resp.StatusCode, b.String())
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServerAcceptance is ISSUE 5's end-to-end gate, over real HTTP:
//
//  1. qjserve's handler answers an 8-φ grid over the 32k-tuple acceptance
//     join with cached-plan latency within 2× of the embedded
//     Prepared.Quantiles loop, and
//  2. a delta POST followed by the same query returns answers
//     byte-identical to a fresh Prepare on the mutated database.
func TestServerAcceptance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// The 32k-tuple acceptance instance, with ≈4k answers: the embedded grid —
	// one shared descent since ISSUE 16 — then costs about the millisecond the
	// loop of eight selections cost over ≈1k answers when the 2× gate below was
	// set, so the gate allows the shell what it always did, in both relative and
	// absolute terms (a loopback round trip alone is 0.2–0.3 ms).
	q, idb := workload.Path(rng, 2, 1<<14, 1<<16)
	db := qjoin.WrapDB(idb)
	f := qjoin.Sum(q.Vars()...)
	phis := []float64{0.05, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9}

	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// Bulk-load the instance over the wire.
	load := server.LoadRequest{}
	for _, name := range db.Relations() {
		r := db.Unwrap().Get(name)
		rows := make([][]int64, r.Len())
		for i := range rows {
			rows[i] = r.RowValues(i)
		}
		load.Relations = append(load.Relations, server.RelationData{Name: name, Arity: r.Arity(), Rows: rows})
	}
	var lresp server.LoadResponse
	httpJSON(t, client, "PUT", ts.URL+"/datasets/accept", load, &lresp)
	if lresp.Tuples != db.Size() {
		t.Fatalf("loaded %d tuples, want %d", lresp.Tuples, db.Size())
	}

	greq := server.QueryRequest{
		Dataset: "accept", Query: qjoin.FormatQuery(q), Rank: "sum(x1,x2,x3)",
		Op: "quantiles", Phis: phis,
	}
	rankStr, err := qjoin.FormatRanking(f)
	if err != nil {
		t.Fatal(err)
	}
	greq.Rank = rankStr

	// First request compiles the plan; the grid must equal the embedded
	// oracle byte for byte.
	var first server.QueryResponse
	httpJSON(t, client, "POST", ts.URL+"/query", greq, &first)
	if first.Cached {
		t.Fatal("first request claims a cache hit")
	}
	want := oracleAnswers(t, q, db, f, phis)
	if mustJSON(t, first.Answers) != mustJSON(t, want) {
		t.Fatalf("grid over HTTP:\n got %s\nwant %s", mustJSON(t, first.Answers), mustJSON(t, want))
	}

	// Warm both paths, then compare medians: HTTP grid latency (cached
	// plan, one round trip for all 8 φ) vs the embedded Prepared grid.
	p, err := qjoin.Prepare(q, db, qjoin.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Quantiles(f, phis); err != nil {
		t.Fatal(err)
	}
	const rounds = 15
	embedded := make([]time.Duration, 0, rounds)
	viaHTTP := make([]time.Duration, 0, rounds)
	var resp server.QueryResponse
	httpJSON(t, client, "POST", ts.URL+"/query", greq, &resp) // warm the connection
	if !resp.Cached {
		t.Fatal("warm request missed the cache")
	}
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if _, err := p.Quantiles(f, phis); err != nil {
			t.Fatal(err)
		}
		embedded = append(embedded, time.Since(start))

		start = time.Now()
		httpJSON(t, client, "POST", ts.URL+"/query", greq, &resp)
		viaHTTP = append(viaHTTP, time.Since(start))
		if !resp.Cached {
			t.Fatal("request missed the cache mid-benchmark")
		}
	}
	embMed, httpMed := median(embedded), median(viaHTTP)
	t.Logf("8-φ grid p50: embedded %v, HTTP %v (%.2fx)", embMed, httpMed, float64(httpMed)/float64(embMed))
	if httpMed > 2*embMed {
		t.Fatalf("cached-plan HTTP p50 %v exceeds 2x the embedded grid %v", httpMed, embMed)
	}

	// Delta POST, then the same grid: the served answers must be
	// byte-identical to re-Prepare on the mutated database.
	mkBatch := workload.UpdateBatches(db.Unwrap(), "R1", "R2")
	ins, del := mkBatch(64)
	delta := qjoin.NewDelta()
	dreq := server.DeltaRequest{}
	for _, row := range ins {
		delta.Insert("R1", row)
		dreq.Ops = append(dreq.Ops, server.DeltaOp{Op: "insert", Rel: "R1", Row: row})
	}
	for _, row := range del {
		delta.Delete("R2", row)
		dreq.Ops = append(dreq.Ops, server.DeltaOp{Op: "delete", Rel: "R2", Row: row})
	}
	var dresp server.DeltaResponse
	httpJSON(t, client, "POST", ts.URL+"/datasets/accept/delta", dreq, &dresp)
	if dresp.Generation != 2 || dresp.PlansMigrated < 1 {
		t.Fatalf("delta resp = %+v, want generation 2 with migrated plans", dresp)
	}

	mutated, err := db.Apply(delta)
	if err != nil {
		t.Fatal(err)
	}
	wantMut := oracleAnswers(t, q, mutated, f, phis)
	httpJSON(t, client, "POST", ts.URL+"/query", greq, &resp)
	if !resp.Cached {
		t.Fatal("post-delta query missed the cache: migration did not carry the plan over")
	}
	if resp.Generation != 2 {
		t.Fatalf("post-delta generation = %d", resp.Generation)
	}
	if mustJSON(t, resp.Answers) != mustJSON(t, wantMut) {
		t.Fatalf("post-delta grid diverges from re-Prepare on the mutated DB:\n got %s\nwant %s",
			mustJSON(t, resp.Answers), mustJSON(t, wantMut))
	}

	// Sanity: the pre-delta and post-delta grids differ (the delta touched
	// the join) — otherwise the byte-identity check above proves nothing.
	if mustJSON(t, want) == mustJSON(t, wantMut) {
		t.Fatalf("delta did not change the grid; pick a delta that moves the quantiles")
	}

	// /stats over HTTP sees the dataset at generation 2 and a busy cache.
	var stats server.StatsResponse
	req, _ := http.NewRequest("GET", ts.URL+"/stats", nil)
	sresp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Datasets) != 1 || stats.Datasets[0].Generation != 2 {
		t.Fatalf("stats datasets = %+v", stats.Datasets)
	}
	if stats.Cache.Hits < int64(rounds) || stats.Cache.Migrations < 1 {
		t.Fatalf("cache stats = %+v", stats.Cache)
	}
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// TestServerGracefulConcurrentLoadAndQuery drives the wire path once more
// with a second dataset name to ensure URL routing keeps datasets apart.
func TestServerDatasetIsolation(t *testing.T) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	httpJSON(t, client, "PUT", ts.URL+"/datasets/a", tinyLoad(), nil)
	bigger := tinyLoad()
	bigger.Relations[0].Rows = append(bigger.Relations[0].Rows, []int64{7, 2})
	httpJSON(t, client, "PUT", ts.URL+"/datasets/b", bigger, nil)

	var ra, rb server.QueryResponse
	creq := server.QueryRequest{Query: "R(x,y),S(y,z)", Op: "count"}
	creq.Dataset = "a"
	httpJSON(t, client, "POST", ts.URL+"/query", creq, &ra)
	creq.Dataset = "b"
	httpJSON(t, client, "POST", ts.URL+"/query", creq, &rb)
	if ra.Count != "3" || rb.Count != "4" {
		t.Fatalf("counts = %s / %s, want 3 / 4", ra.Count, rb.Count)
	}
	if fmt.Sprint(ra.Dataset, rb.Dataset) != "ab" {
		t.Fatalf("dataset echo = %s %s", ra.Dataset, rb.Dataset)
	}
}
