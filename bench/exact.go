package main

import (
	"math/rand"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/server"
	"github.com/quantilejoins/qjoin/internal/workload"
)

// exact_dense and exact_sharded send the byte-identical request sequence —
// exact quantiles on a join whose answer set is far larger than its input —
// at the same data loaded unsharded and with four shards.

var exactDense = workloadDef{
	name:    "exact_dense",
	why:     "|Q(D)| is 8x |D|, so Algorithm 1's pivot, trim, derive and count loop is over 95% of each exact quantile and the request path is noise",
	clients: 1,
	warmup:  24,
	classes: exactRanks,
	oracle:  exactOracle,
	setup:   func(cfg config, o any) (world, error) { return setupExact(cfg, o.(*exactWant), 0) },
}

var exactSharded = workloadDef{
	name:    "exact_sharded",
	why:     "the same requests and data at shards=4: the serial loop over shard engines and the pivot merge, which a loop change must not pay for",
	clients: 1,
	warmup:  24,
	classes: exactRanks,
	oracle:  exactOracle,
	setup:   func(cfg config, o any) (world, error) { return setupExact(cfg, o.(*exactWant), 4) },
}

// exactRanks are the rankings the requests rotate over, one per trim
// construction: adjacent-pair SUM, MAX, LEX, MIN.
var exactRanks = []string{"sum(x1,x2,x3)", "max(x1,x3)", "lex(x1,x3)", "min(x1,x2,x3)"}

// exactPeriod is the length of the request table; a client cycles over it.
const exactPeriod = 396

// exactSeq is the seeded input of the exact workloads: the data and the
// request table.
type exactSeq struct {
	q   *query.Query
	db  *relation.Database
	ops []exactOp
}

type exactOp struct {
	rank int
	phi  int // hundredths
	body []byte
}

func newExactSeq(cfg config) *exactSeq {
	rng := rand.New(rand.NewSource(cfg.seed))
	n, dom := 1<<14, int64(1<<10)
	if cfg.quick {
		n, dom = 1<<10, 1<<7
	}
	s := &exactSeq{}
	s.q, s.db = workload.Path(rng, 2, n, dom)
	qstr := qjoin.FormatQuery(s.q)
	for i := 0; i < exactPeriod; i++ {
		op := exactOp{rank: i % len(exactRanks), phi: 1 + rng.Intn(99)}
		op.body = mustJSON(server.QueryRequest{
			Dataset: "dense", Query: qstr, Rank: exactRanks[op.rank], Op: "quantile", Phi: float64(op.phi) / 100,
		})
		s.ops = append(s.ops, op)
	}
	return s
}

func (s *exactSeq) opBytes(_, i int) []byte { return s.ops[i%len(s.ops)].body }

// exactWant holds the oracle's answer for every (ranking, φ) a request can
// name; the materialized join it came from is dropped.
type exactWant struct {
	want [][]answer // [rank][phi hundredths]
}

func exactOracle(cfg config) (any, error) {
	s := newExactSeq(cfg)
	m, err := materialize(s.q, s.db)
	if err != nil {
		return nil, err
	}
	o := &exactWant{want: make([][]answer, len(exactRanks))}
	for r, spec := range exactRanks {
		f := mustRanking(spec)
		m.rank(f)
		o.want[r] = make([]answer, 100)
		for p := 1; p < 100; p++ {
			a := m.at(f, float64(p)/100)
			a.Values = append([]int64(nil), a.Values...)
			o.want[r][p] = a
		}
	}
	return o, nil
}

type exactWorld struct {
	*node
	seq    *exactSeq
	want   *exactWant
	shards int
}

func setupExact(cfg config, want *exactWant, shards int) (world, error) {
	w := &exactWorld{node: newNode(server.Config{}, 1), seq: newExactSeq(cfg), want: want, shards: shards}
	if err := w.clients[0].load("dense", w.seq.db, shards); err != nil {
		w.close()
		return nil, err
	}
	// The first warm-up request compiles the plan and the first per ranking
	// fills its trim cache. The engine also keeps a full reduction, built by
	// the first answer that lands in a tie class at iteration 0 — which seeds
	// do and which do not is chance, and heap_retained_mb would show it. A
	// top-1 request builds it now, for every seed.
	top := server.QueryRequest{Dataset: "dense", Query: qjoin.FormatQuery(w.seq.q), Rank: exactRanks[0], Op: "topk", K: 1}
	if _, err := w.clients[0].query(mustJSON(top)); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *exactWorld) do(c, i int) (int, error) {
	op := &w.seq.ops[i%exactPeriod]
	resp, err := w.clients[c].query(op.body)
	if err != nil {
		return 0, err
	}
	return op.rank, checkAnswer(resp, w.want.want[op.rank][op.phi])
}

func (w *exactWorld) traced(tr *tracer, i int) error {
	op := &w.seq.ops[i%exactPeriod]
	resp, err := tracedQuery(tr, w.node, op.body)
	if err != nil {
		return err
	}
	return checkAnswer(resp, w.want.want[op.rank][op.phi])
}

func (w *exactWorld) finish() (int, int) { return 0, 0 }

func (w *exactWorld) probes(tr *tracer, _ *sample, named map[string]float64) error {
	if w.shards > 1 {
		sh, err := probeShards(tr, w.seq.q, w.seq.db, w.shards)
		if err != nil {
			return err
		}
		return probeLoop(tr, sh.Engines()[0])
	}
	eng, err := engine.NewWorkers(w.seq.q, w.seq.db, 0)
	if err != nil {
		return err
	}
	if err := probeLoop(tr, eng); err != nil {
		return err
	}
	return probeParallel(eng, named)
}
