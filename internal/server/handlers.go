package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/parallel"
)

// Config tunes a Server. The zero value is usable: GOMAXPROCS-parallel
// plans, an admission gate of 4× the worker count, 64 cached plans and a
// 30s request timeout.
type Config struct {
	// Parallelism is the default Options.Parallelism of every compiled plan
	// (0 = GOMAXPROCS, 1 = sequential). A query's workers field overrides
	// it per request.
	Parallelism int
	// MaxInflight bounds concurrently admitted load/delta/query requests.
	// 0 sizes the gate from Parallelism: 4× the resolved worker count, so
	// a few requests queue behind the cores while the rest wait at
	// admission instead of thrashing.
	MaxInflight int
	// CacheCap bounds the plan cache (0 = 64 plans).
	CacheCap int
	// RequestTimeout bounds each request end to end, admission wait
	// included (0 = 30s).
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies (0 = 1 GiB). Bulk loads of big
	// datasets dominate; query bodies are tiny.
	MaxBodyBytes int64
	// DefaultShards is the shard count for datasets loaded without an
	// explicit shards field (0 or 1 = unsharded). A load request's shards
	// field overrides it per dataset. Validated like the request field:
	// New panics on a count outside [0, qjoin.MaxShards].
	DefaultShards int
	// Store, when non-nil, makes the server durable: bulk loads persist a
	// dataset snapshot before the response goes out, deltas fsync a WAL
	// record inside the registry's writer critical section (an append
	// failure rejects the delta), and POST /datasets/{name}/snapshot
	// compacts the WAL into a fresh snapshot. Create one with NewStore;
	// cmd/qjserve wires it from -data-dir and replays the directory at boot.
	Store *Store
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4 * parallel.Workers(c.Parallelism)
	}
	if c.CacheCap <= 0 {
		c.CacheCap = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 30
	}
	return c
}

// Server is the serving layer: registry + plan cache + request execution.
// Create one with New and mount Handler on an http.Server.
type Server struct {
	cfg     Config
	reg     *Registry
	cache   *PlanCache
	gate    chan struct{}
	metrics Metrics
	start   time.Time
}

// New returns a Server with the given configuration.
func New(cfg Config) *Server {
	if err := qjoin.ValidateShards(cfg.DefaultShards); err != nil {
		panic(fmt.Sprintf("server: bad DefaultShards: %v", err))
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		reg:   NewRegistry(),
		cache: NewPlanCache(cfg.CacheCap),
		gate:  make(chan struct{}, cfg.MaxInflight),
		start: time.Now(),
	}
	expvarServer.Store(s)
	return s
}

// Registry exposes the dataset registry (tests and embedders).
func (s *Server) Registry() *Registry { return s.reg }

// Cache exposes the plan cache (tests and embedders).
func (s *Server) Cache() *PlanCache { return s.cache }

// Handler returns the HTTP handler serving the full API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /datasets/{name}", s.gated(&s.metrics.Requests.Load, &s.metrics.LoadLatency, s.handleLoad))
	mux.HandleFunc("POST /datasets/{name}/delta", s.gated(&s.metrics.Requests.Delta, &s.metrics.DeltaLatency, s.handleDelta))
	mux.HandleFunc("POST /query", s.gated(&s.metrics.Requests.Query, &s.metrics.QueryLatency, s.handleQuery))
	mux.HandleFunc("POST /datasets/{name}/snapshot", s.gated(&s.metrics.Requests.Snapshot, &s.metrics.SnapshotLatency, s.handleCompact))
	mux.HandleFunc("GET /datasets/{name}/snapshot", s.handleGetSnapshot)
	mux.HandleFunc("GET /datasets", s.handleListDatasets)
	mux.HandleFunc("GET /datasets/{name}", s.handleGetDataset)
	mux.HandleFunc("DELETE /datasets/{name}", s.handleDeleteDataset)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.Handle("GET /metrics", expvar.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// admitToken is one request's hold on an admission-gate slot. Detached
// work spawned on the request's behalf (a plan compile, a query that
// outlives its deadline) takes an extra hold; the slot frees only when the
// request AND all its detached work are done. That makes MaxInflight a
// bound on total concurrent engine work, not merely on open connections —
// a storm of timeouts cannot pile unbounded background joins.
type admitToken struct {
	n    atomic.Int32
	gate chan struct{}
}

// hold charges one more unit of work to the slot and returns its release.
func (t *admitToken) hold() func() {
	t.n.Add(1)
	return t.release
}

func (t *admitToken) release() {
	if t.n.Add(-1) == 0 {
		<-t.gate
	}
}

type admitKey struct{}

// admitFrom returns the request's admission token (nil outside gated).
func admitFrom(ctx context.Context) *admitToken {
	t, _ := ctx.Value(admitKey{}).(*admitToken)
	return t
}

// gated wraps a mutating/executing handler with the request deadline, the
// bounded-concurrency admission gate, the body-size bound, per-endpoint
// counters and the latency histogram. The histogram observes admitted
// requests end to end (execution, not gate wait), so it measures serving
// latency rather than queueing under overload.
func (s *Server) gated(counter interface{ Add(int64) int64 }, hist *Histogram, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		counter.Add(1)
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		select {
		case s.gate <- struct{}{}:
		case <-ctx.Done():
			s.metrics.Timeouts.Add(1)
			s.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("server saturated: admission wait exceeded %v", s.cfg.RequestTimeout), "")
			return
		}
		tok := &admitToken{gate: s.gate}
		tok.n.Store(1)
		defer tok.release()
		ctx = context.WithValue(ctx, admitKey{}, tok)
		s.metrics.Inflight.Add(1)
		defer s.metrics.Inflight.Add(-1)
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		start := time.Now()
		h(w, r.WithContext(ctx))
		hist.Observe(time.Since(start))
	}
}

// writeJSON writes a 200 JSON response.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeError writes a JSON error body with the given status.
func (s *Server) writeError(w http.ResponseWriter, status int, err error, field string) {
	s.metrics.Errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: err.Error(), Field: field})
}

// fail maps an error to its HTTP status: typed validation errors are 400s
// naming the field, oversized bodies are 413s, ErrDeleteAbsent is a 409
// (the delta conflicts with the dataset's state), missing datasets and
// empty answer sets are 404s, and anything else is a 400 (the request was
// executable but ill-formed — the engine has no internal failure modes
// that are the server's fault).
func (s *Server) fail(w http.ResponseWriter, err error) {
	var ae *qjoin.ArgError
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &ae):
		s.writeError(w, http.StatusBadRequest, err, ae.Field)
	case errors.As(err, &tooBig):
		s.writeError(w, http.StatusRequestEntityTooLarge, err, "")
	case errors.Is(err, qjoin.ErrDeleteAbsent):
		s.writeError(w, http.StatusConflict, err, "")
	case errors.Is(err, qjoin.ErrNoAnswers), errors.Is(err, errNotFound):
		s.writeError(w, http.StatusNotFound, err, "")
	case errors.Is(err, errStore):
		s.writeError(w, http.StatusInternalServerError, err, "")
	default:
		s.writeError(w, http.StatusBadRequest, err, "")
	}
}

// decode reads a JSON request body.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// handleLoad is PUT /datasets/{name}: bulk-load (or replace) a dataset.
// Replacing drops the previous lineage's cached plans — a reload is a new
// world, not a delta.
func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req LoadRequest
	if err := decode(r, &req); err != nil {
		s.fail(w, err)
		return
	}
	// The shard count is checked before the body's relations are built: a
	// bad count must not cost a database of up to MaxBodyBytes.
	if err := qjoin.ValidateShards(req.Shards); err != nil {
		s.fail(w, err)
		return
	}
	db, err := buildDB(&req)
	if err != nil {
		s.fail(w, err)
		return
	}
	shards := req.Shards
	if shards == 0 {
		shards = s.cfg.DefaultShards
	}
	prev, replaced := s.reg.Get(name)
	snap := s.reg.Load(name, db, shards)
	s.cache.DropDataset(name)
	if s.cfg.Store != nil {
		// Persist before acknowledging, under the writer lock so a delta
		// racing in cannot append to the WAL mid-compaction. A save failure
		// rolls the load back: acknowledging a dataset the store cannot
		// recover would break "acknowledged ⇒ durable".
		err := s.reg.WithWriter(name, func(cur Snapshot) error {
			return s.cfg.Store.SaveSnapshot(name, cur)
		})
		if err != nil {
			// SaveSnapshot commits by rename: on error the previous lineage's
			// snapshot and WAL files are untouched, so a failed replace
			// re-installs the prior in-memory state and leaves the files
			// alone — its acknowledged data stays durable and servable. Only
			// a failed create removes the name and whatever files the attempt
			// left behind.
			if replaced {
				s.reg.RollbackLoad(name, snap.Gen, prev)
			} else {
				s.reg.Delete(name)
				_ = s.cfg.Store.Remove(name)
			}
			s.cache.DropDataset(name)
			s.writeError(w, http.StatusInternalServerError, fmt.Errorf("persisting dataset: %w", err), "")
			return
		}
	}
	s.writeJSON(w, LoadResponse{
		Dataset: name, Generation: snap.Gen,
		Relations: len(db.Relations()), Tuples: db.Size(),
		Shards: snap.Shards,
	})
}

// RestoreDataset installs a dataset recovered by Store.LoadAll at its
// pre-crash generation (boot recovery; see cmd/qjserve).
func (s *Server) RestoreDataset(rec Recovered) Snapshot {
	return s.reg.Restore(rec.Name, rec.DB, rec.Gen, rec.Shards, rec.ShardGens)
}

// shardsTouched routes a delta's rows under the dataset's canonical
// first-column hash and returns the touched shards, ascending. Rows route by
// their first value — the dataset-level convention ShardGens is defined
// over; plans partition by their own join key, so this is bookkeeping of
// delta locality, not plan invalidation.
func shardsTouched(d *qjoin.Delta, shards int) []int {
	hit := make([]bool, shards)
	d.Ops(func(rel string, row []qjoin.Value, del bool) {
		if len(row) == 0 {
			for i := range hit {
				hit[i] = true
			}
			return
		}
		hit[qjoin.ShardOf(row[0], shards)] = true
	})
	out := make([]int, 0, shards)
	for i, h := range hit {
		if h {
			out = append(out, i)
		}
	}
	return out
}

// handleDelta is POST /datasets/{name}/delta: apply an insert/delete batch,
// migrating every cached plan of the dataset to the new generation inside
// the registry's writer critical section (see the package comment for the
// consistency model).
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req DeltaRequest
	if err := decode(r, &req); err != nil {
		s.fail(w, err)
		return
	}
	delta, err := buildDelta(&req)
	if err != nil {
		s.fail(w, err)
		return
	}
	migrated := 0
	var touched []int
	_, now, err := s.reg.Mutate(name, func(cur Snapshot, nextGen uint64) (*qjoin.DB, []int, error) {
		ndb, err := cur.DB.Apply(delta)
		if err != nil {
			return nil, nil, err
		}
		if cur.Shards > 1 {
			touched = shardsTouched(delta, cur.Shards)
		}
		if s.cfg.Store != nil {
			// The record is fsynced while the generation is still invisible,
			// so an acknowledged delta is always on disk, and an append
			// failure rejects the delta (the burned generation never reaches
			// the WAL). It runs before the plan cache migrates so a rejection
			// leaves the cache keyed at the still-current generation instead
			// of orphaning the dataset's warm plans on one that will never
			// publish.
			if err := s.cfg.Store.AppendDelta(name, nextGen, delta); err != nil {
				return nil, nil, fmt.Errorf("%w: persisting delta: %v", errStore, err)
			}
		}
		migrated = s.cache.Migrate(name, cur.Gen, nextGen, delta)
		return ndb, touched, nil
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	s.writeJSON(w, DeltaResponse{
		Dataset: name, Generation: now.Gen, Ops: delta.Len(), PlansMigrated: migrated,
		ShardsTouched: touched, ShardGens: now.ShardGens,
	})
}

// handleQuery is POST /query.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := decode(r, &req); err != nil {
		s.fail(w, err)
		return
	}
	start := time.Now()
	resp, err := s.execQuery(r.Context(), &req)
	if err != nil {
		// Classify by the returned error, not the context's current state:
		// a genuine 400/404 that happened to finish near the deadline must
		// not be relabeled as a timeout.
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.metrics.Timeouts.Add(1)
			s.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("query timed out after %v", s.cfg.RequestTimeout), "")
			return
		case errors.Is(err, context.Canceled):
			// The client went away; nobody reads this response and it is
			// not a server timeout.
			s.writeError(w, http.StatusServiceUnavailable, errors.New("request canceled"), "")
			return
		}
		s.fail(w, err)
		return
	}
	if req.Timing {
		resp.ElapsedUS = time.Since(start).Microseconds()
	}
	s.writeJSON(w, resp)
}

// execQuery resolves the request against the wire protocol (before touching
// any state, so a bad request never costs a Prepare), looks up the dataset
// snapshot, acquires the plan (cache hit, coalesced flight, or fresh Prepare)
// and runs the operation. The context deadline covers the Prepare: a compile
// that outlives the request keeps running in its flight (latecomers may still
// use it) but this request returns a timeout.
func (s *Server) execQuery(ctx context.Context, req *QueryRequest) (*QueryResponse, error) {
	if req.Dataset == "" {
		return nil, &qjoin.ArgError{Field: "dataset", Reason: "missing dataset name"}
	}
	wire := qjoin.Request{Query: req.Query, Rank: req.Rank, Op: req.Op, Mode: req.Mode,
		Phi: req.Phi, Phis: req.Phis, Eps: req.Eps, K: req.K, Workers: req.Workers}
	op, err := wire.Resolve()
	if err != nil {
		return nil, err
	}
	snap, ok := s.reg.Get(req.Dataset)
	if !ok {
		return nil, fmt.Errorf("dataset %q: %w", req.Dataset, errNotFound)
	}
	if op.Workers == 0 {
		op.Workers = s.cfg.Parallelism
	}
	// Cache keys use the canonical wire forms, so spelling variants of the
	// same query/ranking collide on one entry (and one interned ranking).
	qstr := qjoin.FormatQuery(op.Query)
	rankStr := ""
	if op.Rank != nil {
		// Cannot fail: the ranking came from ParseRanking, which never sets Weight.
		if rankStr, err = qjoin.FormatRanking(op.Rank); err != nil {
			return nil, err
		}
	}
	plan, f, cached, err := s.getPlan(ctx, req.Dataset, snap, op.Query, qstr, rankStr, op.Workers, op.Rank)
	if err != nil {
		return nil, err
	}
	op.Rank = f

	resp := &QueryResponse{Dataset: req.Dataset, Generation: snap.Gen, Op: op.Op, Cached: cached}
	if op.Op == "count" {
		resp.Count = plan.Count().String()
		return resp, nil
	}
	answers, err := runCtx(ctx, func() ([]*qjoin.Answer, error) { return plan.Run(op) })
	if err != nil {
		return nil, err
	}
	resp.Vars = varNames(plan.Vars())
	for _, a := range answers {
		resp.Answers = append(resp.Answers, wireAnswer(a))
	}
	if req.Mode != "" {
		// Source/ErrorBound are reported only on mode-aware requests, so
		// legacy request bodies keep byte-identical responses.
		for i, a := range answers {
			if i == 0 {
				resp.Source = a.Source
			} else if a.Source != resp.Source {
				resp.Source = "mixed"
			}
			if a.ErrorBound > resp.ErrorBound {
				resp.ErrorBound = a.ErrorBound
			}
		}
	}
	return resp, nil
}

// getPlan resolves the plan through the cache. A miss compiles in a
// cache-owned flight (see PlanCache.Get): this request waits under its own
// deadline while the compile — charged to this request's admission slot —
// always runs to completion and lands in the cache. Sharded datasets
// compile through PrepareSharded (answers stay byte-identical; see the
// qjoin.Plan contract), except for queries it rejects as unshardable — no
// join variable to partition on, or cyclic — which fall back to the
// one-engine plan of Prepare.
func (s *Server) getPlan(ctx context.Context, dataset string, snap Snapshot, q *qjoin.Query, qstr, rankStr string,
	workers int, f *qjoin.Ranking) (qjoin.Plan, *qjoin.Ranking, bool, error) {
	var hold func() func()
	if tok := admitFrom(ctx); tok != nil {
		hold = tok.hold
	}
	plan, f, cached, err := s.cache.Get(ctx, dataset, snap.Gen, qstr, rankStr, workers, f, hold,
		func() (qjoin.Plan, error) {
			if snap.Shards > 1 {
				sp, err := qjoin.PrepareSharded(q, snap.DB, snap.Shards, qjoin.Options{Parallelism: workers})
				if err == nil {
					return sp, nil
				}
				if !errors.Is(err, qjoin.ErrNoShardKey) && !errors.Is(err, qjoin.ErrCyclicSharded) {
					return nil, err
				}
			}
			return qjoin.Prepare(q, snap.DB, qjoin.Options{Parallelism: workers})
		})
	if err != nil {
		return nil, nil, false, err
	}
	return plan, f, cached, nil
}

// runCtx runs fn, bounding the caller's wait by the context. The engine's
// passes are not interruptible mid-flight, so on timeout the goroutine
// finishes in the background and its result is discarded; the work keeps
// holding the request's admission slot until it finishes, so MaxInflight
// bounds total concurrent engine work, stragglers included.
func runCtx[T any](ctx context.Context, fn func() (T, error)) (T, error) {
	var release func()
	if tok := admitFrom(ctx); tok != nil {
		release = tok.hold()
	}
	type result struct {
		v   T
		err error
	}
	ch := make(chan result, 1)
	go func() {
		if release != nil {
			defer release()
		}
		v, err := fn()
		ch <- result{v, err}
	}()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

func varNames(vars []qjoin.Var) []string {
	out := make([]string, len(vars))
	for i, v := range vars {
		out[i] = string(v)
	}
	return out
}

// handleCompact is POST /datasets/{name}/snapshot: write a fresh snapshot of
// the dataset's current generation and truncate its WAL. Runs under the
// dataset's writer lock, so no delta can slip a record into the WAL between
// the snapshot write and the truncation.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if s.cfg.Store == nil {
		s.writeError(w, http.StatusConflict, errors.New("server has no durable store (start with -data-dir)"), "")
		return
	}
	var gen uint64
	err := s.reg.WithWriter(name, func(cur Snapshot) error {
		gen = cur.Gen
		if err := s.cfg.Store.SaveSnapshot(name, cur); err != nil {
			return fmt.Errorf("%w: compacting: %v", errStore, err)
		}
		return nil
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	s.writeJSON(w, SnapshotResponse{Dataset: name, Generation: gen, Compacted: true})
}

// handleGetSnapshot is GET /datasets/{name}/snapshot: stream the current
// generation as a dataset snapshot. The bytes are encoded from the in-memory
// snapshot (immutable, so no lock is needed) rather than read from disk —
// the endpoint works without -data-dir and always reflects the generation a
// concurrent reader would observe. A blue/green standby can pipe the body to
// a file in its own data directory and boot from it.
func (s *Server) handleGetSnapshot(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	snap, ok := s.reg.Get(name)
	if !ok {
		s.fail(w, fmt.Errorf("dataset %q: %w", name, errNotFound))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("QJoin-Generation", fmt.Sprint(snap.Gen))
	meta := qjoin.DatasetMeta{Name: name, Gen: snap.Gen, Shards: snap.Shards, ShardGens: snap.ShardGens}
	// Mid-stream failures cannot change the status line; the container's end
	// marker (or its absence) tells the receiver whether the copy is whole.
	_ = qjoin.SnapshotDataset(w, snap.DB, meta)
}

// handleListDatasets is GET /datasets.
func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	infos := make([]DatasetInfo, 0)
	for _, name := range s.reg.Names() {
		if snap, ok := s.reg.Get(name); ok {
			infos = append(infos, datasetInfo(name, snap))
		}
	}
	s.writeJSON(w, infos)
}

// handleGetDataset is GET /datasets/{name}.
func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	snap, ok := s.reg.Get(name)
	if !ok {
		s.fail(w, fmt.Errorf("dataset %q: %w", name, errNotFound))
		return
	}
	s.writeJSON(w, datasetInfo(name, snap))
}

// handleDeleteDataset is DELETE /datasets/{name}.
func (s *Server) handleDeleteDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.reg.Delete(name) {
		s.fail(w, fmt.Errorf("dataset %q: %w", name, errNotFound))
		return
	}
	s.cache.DropDataset(name)
	if s.cfg.Store != nil {
		if err := s.cfg.Store.Remove(name); err != nil {
			s.writeError(w, http.StatusInternalServerError, fmt.Errorf("%w: removing files: %v", errStore, err), "")
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleStats is GET /stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.Stats.Add(1)
	s.writeJSON(w, s.StatsSnapshot())
}

// StatsSnapshot builds the /stats (and expvar) view.
func (s *Server) StatsSnapshot() StatsResponse {
	resp := StatsResponse{
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
		Datasets:      make([]DatasetInfo, 0),
		Cache:         s.cache.Stats(),
		Metrics:       s.metrics.Snapshot(),
	}
	for _, name := range s.reg.Names() {
		if snap, ok := s.reg.Get(name); ok {
			resp.Datasets = append(resp.Datasets, datasetInfo(name, snap))
		}
	}
	return resp
}
