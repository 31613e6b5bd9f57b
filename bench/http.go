package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/server"
)

// node is the system under test for the HTTP workloads: a server with its
// defaults (server.Config{} plus, for the durable workload, a store) behind
// an httptest listener, in the benchmark's own process.
type node struct {
	srv     *server.Server
	ts      *httptest.Server
	clients []*client
}

func newNode(cfg server.Config, clients int) *node {
	n := &node{srv: server.New(cfg)}
	n.ts = httptest.NewServer(n.srv.Handler())
	for i := 0; i < clients; i++ {
		n.clients = append(n.clients, &client{
			base: n.ts.URL,
			hc:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		})
	}
	return n
}

func (n *node) close() {
	for _, c := range n.clients {
		c.hc.CloseIdleConnections()
	}
	n.ts.Close()
}

func (n *node) stats() server.StatsResponse { return n.srv.StatsSnapshot() }

// client is one closed-loop caller with one connection.
type client struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer
}

// send performs one request and returns the reply body, which is valid until
// the client's next request. Any status but 200 is an error.
func (c *client) send(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := io.Copy(&c.buf, resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	return c.buf.Bytes(), nil
}

// query posts one /query body and decodes the reply.
func (c *client) query(body []byte) (*server.QueryResponse, error) {
	data, err := c.send("POST", "/query", body)
	if err != nil {
		return nil, err
	}
	var resp server.QueryResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// load PUTs a generated database as a dataset.
func (c *client) load(name string, db *relation.Database, shards int) error {
	req := server.LoadRequest{Shards: shards}
	for _, rn := range db.Names() {
		r := db.Get(rn)
		rows := make([][]int64, r.Len())
		for i := range rows {
			rows[i] = r.RowValues(i)
		}
		req.Relations = append(req.Relations, server.RelationData{Name: rn, Arity: r.Arity(), Rows: rows})
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	_, err = c.send("PUT", "/datasets/"+name, body)
	return err
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}

// answer is an expected (or received) answer row in wire form.
type answer = server.WireAnswer

func wireOf(a *qjoin.Answer) answer {
	return answer{Values: a.Values, Weight: server.WireWeight{K: a.Weight.K, Vec: a.Weight.Vec}}
}

func sameAnswer(got, want answer) bool {
	return slices.Equal(got.Values, want.Values) && got.Weight.K == want.Weight.K && slices.Equal(got.Weight.Vec, want.Weight.Vec)
}

// checkAnswer compares a one-answer reply with the oracle's.
func checkAnswer(resp *server.QueryResponse, want answer) error {
	if len(resp.Answers) != 1 {
		return fmt.Errorf("reply has %d answers, want 1", len(resp.Answers))
	}
	if !sameAnswer(resp.Answers[0], want) {
		return fmt.Errorf("oracle mismatch: got %v, want %v", resp.Answers[0], want)
	}
	return nil
}

// tracedQuery performs one /query op the way the server does, but from the
// benchmark, one span per layer: decode the body, parse the spec, fetch the
// plan from the server's own cache, answer, encode the reply. What it leaves
// out — HTTP, routing, admission, the detached answer goroutine — is the gap
// the trace file reports between decomposed and client-observed latency.
func tracedQuery(tr *tracer, n *node, body []byte) (*server.QueryResponse, error) {
	id := tr.startOp("op")
	defer tr.end(id)

	var req server.QueryRequest
	var err error
	tr.in("qjoin.json_decode", func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	})
	if err != nil {
		return nil, err
	}

	var q *qjoin.Query
	var f *qjoin.Ranking
	var qstr, rankStr string
	tr.in("qjoin.parse_spec", func() {
		if q, f, err = qjoin.ParseQuerySpec(qjoin.QuerySpec{Query: req.Query, Rank: req.Rank}); err != nil {
			return
		}
		qstr = qjoin.FormatQuery(q)
		if f != nil {
			rankStr, err = qjoin.FormatRanking(f)
		}
	})
	if err != nil {
		return nil, err
	}

	sp := tr.begin("server.cache_get")
	snap, ok := n.srv.Registry().Get(req.Dataset)
	if !ok {
		return nil, fmt.Errorf("dataset %q not loaded", req.Dataset)
	}
	resp := &server.QueryResponse{Dataset: req.Dataset, Op: req.Op, Generation: snap.Gen}
	plan, f, cached, err := n.srv.Cache().Get(context.Background(), req.Dataset, snap.Gen, qstr, rankStr, 0, f, nil,
		func() (qjoin.Plan, error) { return compile(q, snap) })
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if resp.Cached = cached; !cached {
		// A compile, not a lookup: keep it out of the warm-hit metric.
		tr.spans[sp].Name = "server.cache_miss"
	}

	switch {
	case req.Op == "count":
		tr.in("qjoin.count", func() { resp.Count = plan.Count().String() })
	case req.Mode == "approx":
		tr.in("qjoin.answer_sketch", func() {
			var a *qjoin.Answer
			if a, err = plan.Answer(f, qjoin.QuantileRequest{Phi: req.Phi, Mode: qjoin.ModeApprox}); err == nil {
				resp.Answers = []answer{wireOf(a)}
				resp.Source, resp.ErrorBound = a.Source, a.ErrorBound
			}
		})
	default:
		sp := tr.begin("core.answer")
		a, st, aerr := plan.AnswerStats(f, qjoin.QuantileRequest{Phi: req.Phi, Mode: qjoin.ModeExact}, qjoin.Options{CollectPhases: true})
		tr.end(sp)
		tr.phases(sp, st)
		if err = aerr; err == nil {
			resp.Answers = []answer{wireOf(a)}
		}
	}
	if err != nil {
		return nil, err
	}
	for _, v := range plan.Vars() {
		resp.Vars = append(resp.Vars, string(v))
	}
	tr.in("qjoin.json_encode", func() { err = json.NewEncoder(io.Discard).Encode(resp) })
	return resp, err
}

// compile is the server's plan compile on a cache miss (sharded datasets go
// through PrepareSharded, with its fall-back to one engine).
func compile(q *qjoin.Query, snap server.Snapshot) (qjoin.Plan, error) {
	if snap.Shards > 1 {
		sp, err := qjoin.PrepareSharded(q, snap.DB, snap.Shards)
		if err == nil {
			return sp, nil
		}
		if !errors.Is(err, qjoin.ErrNoShardKey) && !errors.Is(err, qjoin.ErrCyclicSharded) {
			return nil, err
		}
	}
	return qjoin.Prepare(q, snap.DB)
}
