package server_test

import (
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/server"
	"github.com/quantilejoins/qjoin/internal/workload"
)

// shardedLoad is tinyLoad with a shard count attached.
func shardedLoad(shards int) server.LoadRequest {
	req := tinyLoad()
	req.Shards = shards
	return req
}

// TestLoadShardsValidation: absurd shard counts are 400s naming the field,
// before any state changes.
func TestLoadShardsValidation(t *testing.T) {
	h := server.New(server.Config{}).Handler()
	for _, bad := range []int{-1, qjoin.MaxShards + 1, 1 << 20} {
		var er server.ErrorResponse
		decodeAs(t, do(t, h, "PUT", "/datasets/tiny", shardedLoad(bad)), http.StatusBadRequest, &er)
		if er.Field != "shards" {
			t.Fatalf("shards=%d: error field %q, want \"shards\" (%s)", bad, er.Field, er.Error)
		}
	}
	// The count is checked before the relations are looked at: a body that is
	// bad in both ways is rejected for its shards.
	var er server.ErrorResponse
	decodeAs(t, do(t, h, "PUT", "/datasets/tiny", server.LoadRequest{Shards: -1}), http.StatusBadRequest, &er)
	if er.Field != "shards" {
		t.Fatalf("shards=-1 with no relations: error field %q, want \"shards\" (%s)", er.Field, er.Error)
	}
	// The failed loads must not have created the dataset.
	decodeAs(t, do(t, h, "GET", "/datasets/tiny", nil), http.StatusNotFound, nil)
}

// TestShardedDataset loads the same data sharded and unsharded and checks
// every operation byte-identical across the two datasets, before and after
// the same delta, plus the shard field in load and info responses.
func TestShardedDataset(t *testing.T) {
	h := server.New(server.Config{}).Handler()
	var load server.LoadResponse
	decodeAs(t, do(t, h, "PUT", "/datasets/flat", tinyLoad()), 200, &load)
	decodeAs(t, do(t, h, "PUT", "/datasets/shard", shardedLoad(4)), 200, &load)
	if load.Shards != 4 {
		t.Fatalf("load = %+v, want shards 4", load)
	}
	var info server.DatasetInfo
	decodeAs(t, do(t, h, "GET", "/datasets/shard", nil), 200, &info)
	if info.Shards != 4 {
		t.Fatalf("info = %+v", info)
	}

	query := func(ds string, req server.QueryRequest) server.QueryResponse {
		req.Dataset = ds
		var resp server.QueryResponse
		decodeAs(t, do(t, h, "POST", "/query", req), 200, &resp)
		resp.Dataset, resp.Generation, resp.Cached = "", 0, false
		return resp
	}
	reqs := []server.QueryRequest{
		{Query: "R(x,y),S(y,z)", Op: "count"},
		{Query: "R(x,y),S(y,z)", Rank: "sum(x,z)", Op: "quantile", Phi: 0.5},
		{Query: "R(x,y),S(y,z)", Rank: "sum(x,z)", Op: "quantiles", Phis: []float64{0, 0.5, 1}},
		{Query: "R(x,y),S(y,z)", Rank: "sum(x,z)", Op: "approx", Phi: 0.5, Eps: 0.25},
		{Query: "R(x,y),S(y,z)", Rank: "sum(x,z)", Op: "topk", K: 3},
		{Query: "R(x,y),S(y,z)", Rank: "lex(x,z)", Op: "median"},
	}
	for _, req := range reqs {
		flat, sharded := query("flat", req), query("shard", req)
		if !reflect.DeepEqual(flat, sharded) {
			t.Errorf("op %s: sharded %s diverged from unsharded %s",
				req.Op, mustJSON(t, sharded), mustJSON(t, flat))
		}
	}

	// Post-delta answers still match the unsharded dataset fed the same delta.
	row := []int64{7, 2}
	for _, ds := range []string{"shard", "flat"} {
		decodeAs(t, do(t, h, "POST", "/datasets/"+ds+"/delta", server.DeltaRequest{
			Ops: []server.DeltaOp{{Op: "insert", Rel: "R", Row: row}},
		}), 200, nil)
	}
	for _, req := range reqs {
		flat, sharded := query("flat", req), query("shard", req)
		if !reflect.DeepEqual(flat, sharded) {
			t.Errorf("post-delta op %s: sharded %s diverged from unsharded %s",
				req.Op, mustJSON(t, sharded), mustJSON(t, flat))
		}
	}
}

// TestShardedCyclicFallback: a cyclic query against a sharded dataset cannot
// shard (PrepareSharded returns ErrCyclicSharded), so the plan cache falls
// back to a single decomposed plan and still serves the exact answer.
func TestShardedCyclicFallback(t *testing.T) {
	h := server.New(server.Config{}).Handler()
	load := server.LoadRequest{
		Shards: 4,
		Relations: []server.RelationData{
			{Name: "A", Arity: 2, Rows: [][]int64{{1, 2}, {4, 4}}},
			{Name: "B", Arity: 2, Rows: [][]int64{{2, 3}, {4, 4}}},
			{Name: "C", Arity: 2, Rows: [][]int64{{3, 1}, {4, 4}}},
		},
	}
	decodeAs(t, do(t, h, "PUT", "/datasets/tri", load), 200, nil)
	var resp server.QueryResponse
	decodeAs(t, do(t, h, "POST", "/query", server.QueryRequest{
		Dataset: "tri", Query: "A(x,y),B(y,z),C(z,x)",
		Rank: "sum(x,y,z)", Op: "quantile", Phi: 0,
	}), 200, &resp)
	if len(resp.Answers) != 1 || resp.Answers[0].Weight.K != 6 {
		t.Fatalf("cyclic quantile on sharded dataset = %s", mustJSON(t, resp))
	}
	if !reflect.DeepEqual(resp.Answers[0].Values, []int64{1, 2, 3}) {
		t.Fatalf("phi=0 answer %v, want [1 2 3]", resp.Answers[0].Values)
	}
}

// TestShardedRegistryRace hammers a sharded dataset under -race: concurrent
// delta writers (each batch routed to the shard owning its rows) against
// concurrent readers querying through the full handler stack, then checks
// the final state byte-identical to a sequential replay.
func TestShardedRegistryRace(t *testing.T) {
	rng := rand.New(rand.NewSource(731))
	q, idb := workload.Path(rng, 2, 300, 20)
	db := qjoin.WrapDB(idb)
	qstr := qjoin.FormatQuery(q)
	rankStr := "sum(" + string(q.Vars()[0]) + ")"

	load := server.LoadRequest{Shards: 4}
	inner := db.Unwrap()
	for _, name := range db.Relations() {
		r := inner.Get(name)
		rows := make([][]int64, r.Len())
		for i := range rows {
			rows[i] = r.RowValues(i)
		}
		load.Relations = append(load.Relations, server.RelationData{Name: name, Arity: r.Arity(), Rows: rows})
	}

	srv := server.New(server.Config{})
	h := srv.Handler()
	decodeAs(t, do(t, h, "PUT", "/datasets/d", load), 200, nil)

	// Writers send disjoint fresh inserts (no delete/insert conflicts), so
	// every interleaving converges to the same multiset.
	const writers, rounds = 3, 4
	batches := make([][]server.DeltaOp, writers*rounds)
	for b := range batches {
		batches[b] = []server.DeltaOp{
			{Op: "insert", Rel: "R1", Row: []int64{int64(1000 + b), int64(rng.Intn(20))}},
		}
	}

	var wg sync.WaitGroup
	for wtr := 0; wtr < writers; wtr++ {
		wg.Add(1)
		go func(wtr int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				w := do(t, h, "POST", "/datasets/d/delta", server.DeltaRequest{Ops: batches[wtr*rounds+r]})
				if w.Code != 200 {
					t.Errorf("writer %d round %d: %d %s", wtr, r, w.Code, w.Body.String())
					return
				}
			}
		}(wtr)
	}
	for rd := 0; rd < 3; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				w := do(t, h, "POST", "/query", server.QueryRequest{
					Dataset: "d", Query: qstr, Rank: rankStr, Op: "quantile", Phi: 0.5,
				})
				if w.Code != 200 {
					t.Errorf("reader: %d %s", w.Code, w.Body.String())
					return
				}
			}
		}()
	}
	wg.Wait()

	// Sequential replay oracle: same data, all batches in any order (they
	// are disjoint inserts, so order cannot matter).
	cur := db
	var err error
	for _, ops := range batches {
		d := qjoin.NewDelta()
		for _, op := range ops {
			d.Insert(op.Rel, op.Row)
		}
		if cur, err = cur.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	f, err := qjoin.ParseRanking(rankStr)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := qjoin.PrepareSharded(q, cur, 4, qjoin.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantA, err := oracle.Quantile(f, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var resp server.QueryResponse
	decodeAs(t, do(t, h, "POST", "/query", server.QueryRequest{
		Dataset: "d", Query: qstr, Rank: rankStr, Op: "quantile", Phi: 0.5,
	}), 200, &resp)
	got := fmt.Sprintf("%v w=%d", resp.Answers[0].Values, resp.Answers[0].Weight.K)
	want := fmt.Sprintf("%v w=%d", wantA.Values, wantA.Weight.K)
	if got != want {
		t.Fatalf("final state: server answered %s, oracle %s", got, want)
	}
	var info server.DatasetInfo
	decodeAs(t, do(t, h, "GET", "/datasets/d", nil), 200, &info)
	if info.Shards != 4 {
		t.Fatalf("info = %+v", info)
	}
}
