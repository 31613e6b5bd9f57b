package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/core"
	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/server"
	"github.com/quantilejoins/qjoin/internal/snap"
	"github.com/quantilejoins/qjoin/internal/workload"
)

// serve_light and serve_writes run on the introduction's social-network
// join. serve_light is requests whose engine work is close to nothing, so
// the request path is the workload; serve_writes puts durable deltas beside
// exact and approximate reads of the same plans.

var serveLight = workloadDef{
	name:    "serve_light",
	why:     "sketch answers, counts and 2% guaranteed plan-cache misses: decode, validation, admission, cache lookup and JSON are the work; the ad-hoc keys overflow the plan cache, the rest fit",
	clients: lightClients,
	warmup:  10000,
	classes: []string{"approx", "count", "adhoc"},
	oracle:  snOracle,
	setup:   func(cfg config, o any) (world, error) { return setupLight(cfg, o.(*snWant)) },
}

var serveWrites = workloadDef{
	name:    "serve_writes",
	why:     "one fsynced delta per ten ops beside exact and approximate reads of the plans it migrates: a read-side gain paid for on the write path shows as p50 and ops/s moving apart",
	clients: serveClients,
	warmup:  30,
	classes: []string{"delta", "exact", "approx"},
	oracle:  snOracle,
	setup:   func(cfg config, o any) (world, error) { return setupWrites(cfg, o.(*snWant)) },
}

// Op classes, indexes into the workloads' classes.
const (
	classApprox = iota // serve_light
	classCount
	classAdhoc
)

const (
	classDelta = iota // serve_writes
	classExact
	classApproxRd
)

const (
	// serve_writes has two closed-loop clients, so that one reads while the
	// other writes. serve_light has one, and with it one processor on one
	// CPU: its ops are tens of microseconds, mostly wake-ups, and with two
	// processors which CPUs those cross decides the run's speed.
	serveClients = 2
	lightClients = 1

	snPeriod  = 1000 // length of a client's request table
	deltaRows = 8    // rows a delta inserts (and, after the first, deletes)

	// The ad-hoc query is the 2-path over the adhoc dataset, ranked by the
	// sum of its three variables, under whatever names a request gives them.
	adhocQueryTmpl = "R1(%s,%s),R2(%s,%s)"
	adhocRankTmpl  = "sum(%s,%s,%s)"
)

var (
	snRanks = []string{"sum(l2,l3)", "max(l2,l3)", "min(l2)"}
	snPhis  = []float64{0.1, 0.25, 0.5, 0.75, 0.9}
)

// snSeq is the seeded input of both serving workloads.
type snSeq struct {
	sn      *workload.SocialNetwork
	snQuery string
	adhocQ  *query.Query
	adhocDB *relation.Database
	// reads is the request table of each client (and of the traced pass's
	// extra caller): which ranking and φ read op i asks for, and for
	// serve_light which class op i is.
	reads [][]snRead
	// events and likes seed the rows the deltas insert: an event that
	// exists, so the row joins, and a like count.
	events []int64
	likes  []int64
}

type snRead struct {
	class     int
	rank, phi int
	approx    []byte // mode=approx body
	exact     []byte // exact body
	light     []byte // what serve_light sends: the approx body, or the count body for a count op
}

func newSnSeq(cfg config, clients int) *snSeq {
	rng := rand.New(rand.NewSource(cfg.seed))
	n, events, adhocN := 4000, 400, 1<<11
	if cfg.quick {
		n, events, adhocN = 200, 40, 1<<8
	}
	s := &snSeq{sn: workload.NewSocialNetwork(rng, n, events, 100)}
	s.snQuery = qjoin.FormatQuery(s.sn.Q)
	s.adhocQ, s.adhocDB = workload.Path(rng, 2, adhocN, int64(2*adhocN))
	for i := 0; i < 64; i++ {
		s.events = append(s.events, int64(rng.Intn(events)))
		s.likes = append(s.likes, rng.Int63n(100))
	}
	// Per 100 ops of serve_light: 68 sketch quantiles, 30 counts, 2 ad-hoc.
	mix := make([]int, 0, snPeriod)
	for i := 0; i < snPeriod; i++ {
		switch {
		case i%100 < 68:
			mix = append(mix, classApprox)
		case i%100 < 98:
			mix = append(mix, classCount)
		default:
			mix = append(mix, classAdhoc)
		}
	}
	count := mustJSON(server.QueryRequest{Dataset: "sn", Query: s.snQuery, Op: "count"})
	for c := 0; c <= clients; c++ {
		crng := rand.New(rand.NewSource(cfg.seed*1000003 + int64(c) + 1))
		crng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
		table := make([]snRead, snPeriod)
		for i := range table {
			r := s.read(crng.Intn(len(snRanks)), crng.Intn(len(snPhis)))
			r.class = mix[i]
			r.light = r.approx
			if r.class == classCount {
				r.light = count
			}
			table[i] = r
		}
		s.reads = append(s.reads, table)
	}
	return s
}

// read builds the exact and the approx request for one (ranking, φ).
func (s *snSeq) read(rank, phi int) snRead {
	req := server.QueryRequest{Dataset: "sn", Query: s.snQuery, Rank: snRanks[rank], Op: "quantile", Phi: snPhis[phi]}
	r := snRead{rank: rank, phi: phi, exact: mustJSON(req)}
	req.Mode = "approx"
	r.approx = mustJSON(req)
	return r
}

// adhocBody spells the ad-hoc query with variables no request has used
// before, so its canonical form — the plan-cache key — is new: a guaranteed
// miss, and past 64 of them an eviction each.
func (s *snSeq) adhocBody(client, i int) []byte {
	a, b, c := fmt.Sprintf("a%dn%d", client, i), fmt.Sprintf("b%dn%d", client, i), fmt.Sprintf("c%dn%d", client, i)
	return mustJSON(server.QueryRequest{
		Dataset: "adhoc", Query: fmt.Sprintf(adhocQueryTmpl, a, b, b, c), Rank: fmt.Sprintf(adhocRankTmpl, a, b, c), Op: "quantile", Phi: 0.5,
	})
}

// lightBytes is op i of a serve_light client, for the replay test.
func (s *snSeq) lightBytes(client, i int) []byte {
	r := &s.reads[client][i%snPeriod]
	if r.class == classAdhoc {
		return s.adhocBody(client, i)
	}
	return r.light
}

// Deltas: a client's k-th delta inserts deltaRows fresh Share rows that join
// an existing event and deletes the rows its previous delta inserted, so the
// dataset's size stays where it was.

func (s *snSeq) deltaRow(client, k, r int) []int64 {
	j := (k*deltaRows + r) % len(s.events)
	return []int64{1<<30 + int64(client)<<24 + int64(k*deltaRows+r), s.events[j], s.likes[j]}
}

func (s *snSeq) deltaOps(client, k int) []server.DeltaOp {
	var ops []server.DeltaOp
	for r := 0; r < deltaRows; r++ {
		ops = append(ops, server.DeltaOp{Op: "insert", Rel: "Share", Row: s.deltaRow(client, k, r)})
	}
	for r := 0; k > 0 && r < deltaRows; r++ {
		ops = append(ops, server.DeltaOp{Op: "delete", Rel: "Share", Row: s.deltaRow(client, k-1, r)})
	}
	return ops
}

func (s *snSeq) delta(client, k int) *qjoin.Delta {
	d := qjoin.NewDelta()
	for _, op := range s.deltaOps(client, k) {
		if op.Op == "insert" {
			d.Insert(op.Rel, op.Row)
		} else {
			d.Delete(op.Rel, op.Row)
		}
	}
	return d
}

// writesOp places op i of a client in the repeating pattern [delta, exact,
// approx, exact, approx, exact, approx, exact, approx, exact]; the second
// client starts five ops in. For a delta it also returns which of the
// client's deltas it is.
func writesOp(client, i int) (class, k int) {
	off := 5 * client
	pos := (i + off) % 10
	switch {
	case pos == 0:
		return classDelta, (i+off)/10 - (off+9)/10
	case pos%2 == 1:
		return classExact, 0
	}
	return classApproxRd, 0
}

// writesBytes is op i of a serve_writes client, for the replay test.
func (s *snSeq) writesBytes(client, i int) []byte {
	r := &s.reads[client][i%snPeriod]
	switch class, k := writesOp(client, i); class {
	case classDelta:
		return mustJSON(server.DeltaRequest{Ops: s.deltaOps(client, k)})
	case classExact:
		return r.exact
	}
	return r.approx
}

// snWant is the oracle of the serving workloads on the data as generated:
// the count, the exact grid, the library's sketch answers checked against
// the true ranks, and the ad-hoc median.
type snWant struct {
	count  string
	exact  [][]answer // [rank][phi]
	approx [][]answer
	adhoc  answer
}

func snOracle(cfg config) (any, error) {
	s := newSnSeq(cfg, 0)
	m, err := materialize(s.sn.Q, s.sn.DB)
	if err != nil {
		return nil, err
	}
	plan, err := qjoin.Prepare(s.sn.Q, qjoin.WrapDB(s.sn.DB))
	if err != nil {
		return nil, err
	}
	o := &snWant{count: fmt.Sprint(len(m.rows))}
	for _, spec := range snRanks {
		f := mustRanking(spec)
		sorted := m.weights(f)
		m.rank(f)
		var exact, approx []answer
		for _, phi := range snPhis {
			a := m.at(f, phi)
			a.Values = append([]int64(nil), a.Values...)
			exact = append(exact, a)
			sk, err := plan.Answer(f, qjoin.QuantileRequest{Phi: phi, Mode: qjoin.ModeApprox})
			if err != nil {
				return nil, err
			}
			if sk.ErrorBound > qjoin.DefaultSketchEps || !rankWithin(sorted, sk.Weight.K, phi, sk.ErrorBound) {
				return nil, fmt.Errorf("sketch answer for %s φ=%v (weight %d, bound %v) is outside its certified rank window",
					spec, phi, sk.Weight.K, sk.ErrorBound)
			}
			approx = append(approx, wireOf(sk))
		}
		o.exact, o.approx = append(o.exact, exact), append(o.approx, approx)
	}
	am, err := materialize(s.adhocQ, s.adhocDB)
	if err != nil {
		return nil, err
	}
	f := mustRanking(fmt.Sprintf(adhocRankTmpl, "x1", "x2", "x3"))
	am.rank(f)
	o.adhoc = am.at(f, 0.5)
	return o, nil
}

// checkApprox checks a sketch reply: it must certify a bound within the
// default resolution, and on unchanged data equal the verified answer.
func checkApprox(resp *server.QueryResponse, want *answer) error {
	if resp.Source != qjoin.SourceSketch || resp.ErrorBound > qjoin.DefaultSketchEps {
		return fmt.Errorf("approx reply from %q with error_bound %v, want a sketch within %v", resp.Source, resp.ErrorBound, qjoin.DefaultSketchEps)
	}
	if want == nil {
		return nil
	}
	return checkAnswer(resp, *want)
}

// ---- serve_light ----

type lightWorld struct {
	*node
	seq  *snSeq
	want *snWant
	// seen holds, per distinct approx or count request body, the reply
	// bytes that were decoded and checked in set-up; the data never changes,
	// so a measured reply is checked by comparing bytes.
	seen map[string][]byte
}

func setupLight(cfg config, want *snWant) (world, error) {
	w := &lightWorld{node: newNode(server.Config{}, lightClients), want: want, seen: make(map[string][]byte)}
	w.seq = newSnSeq(cfg, len(w.clients))
	cl := w.clients[0]
	if err := cl.load("sn", w.seq.sn.DB, 0); err != nil {
		w.close()
		return nil, err
	}
	if err := cl.load("adhoc", w.seq.adhocDB, 0); err != nil {
		w.close()
		return nil, err
	}
	// One request per distinct body compiles the plan and builds the sketch.
	for i := range w.seq.reads[0] {
		r := &w.seq.reads[0][i]
		if _, ok := w.seen[string(r.light)]; ok || r.class == classAdhoc {
			continue
		}
		data, err := cl.send("POST", "/query", r.light)
		if err == nil {
			err = w.checkStatic(r, data)
		}
		if err != nil {
			w.close()
			return nil, err
		}
		w.seen[string(r.light)] = bytes.Clone(data)
	}
	return w, nil
}

// checkStatic decodes a reply and checks it in full.
func (w *lightWorld) checkStatic(r *snRead, data []byte) error {
	var resp server.QueryResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return err
	}
	return w.checkReply(r, &resp)
}

// checkReply checks a decoded reply of any class against the oracle.
func (w *lightWorld) checkReply(r *snRead, resp *server.QueryResponse) error {
	switch r.class {
	case classAdhoc:
		return checkAnswer(resp, w.want.adhoc)
	case classCount:
		if resp.Count != w.want.count {
			return fmt.Errorf("count %s, want %s", resp.Count, w.want.count)
		}
		return nil
	}
	return checkApprox(resp, &w.want.approx[r.rank][r.phi])
}

func (w *lightWorld) do(c, i int) (int, error) {
	r := &w.seq.reads[c][i%snPeriod]
	data, err := w.clients[c].send("POST", "/query", w.seq.lightBytes(c, i))
	if err != nil {
		return r.class, err
	}
	if r.class != classAdhoc && bytes.Equal(data, w.seen[string(r.light)]) {
		return r.class, nil
	}
	return r.class, w.checkStatic(r, data)
}

func (w *lightWorld) traced(tr *tracer, i int) error {
	extra := len(w.clients) // the traced pass's own spelling of ad-hoc queries
	r := &w.seq.reads[extra][i%snPeriod]
	resp, err := tracedQuery(tr, w.node, w.seq.lightBytes(extra, i))
	if err != nil {
		return err
	}
	return w.checkReply(r, resp)
}

func (w *lightWorld) probes(tr *tracer, s *sample, named map[string]float64) error {
	// The handler alone, no sockets: a warm count into a recorder.
	count := mustJSON(server.QueryRequest{Dataset: "sn", Query: w.seq.snQuery, Op: "count"})
	h := w.srv.Handler()
	for r := 0; r < 200*probeReps; r++ {
		req := httptest.NewRequest("POST", "/query", bytes.NewReader(count))
		rec := httptest.NewRecorder()
		tr.probe("server.handler", func() { h.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler probe: status %d", rec.Code)
		}
	}
	named["server.http_overhead_us"] = median(s.lat[classCount])*1e3 - tr.selfTimes()["server.handler"].perOp()/1e3
	named["server.miss_ms"] = median(s.lat[classAdhoc])

	eng, err := engine.NewWorkers(w.seq.sn.Q, w.seq.sn.DB, 0)
	if err != nil {
		return err
	}
	for _, spec := range snRanks { // once each: a build is half a second
		f := mustRanking(spec)
		tr.probe("sketch.build", func() {
			sum, berr := core.BuildSummary(eng, f, core.DefaultSketchEps, core.Options{})
			if err = berr; err == nil {
				tr.count("sketch.entries", float64(len(sum.Entries)))
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *lightWorld) finish() (int, int) { return 0, 0 }

// ---- serve_writes ----

type writesWorld struct {
	*node
	seq   *snSeq
	want  *snWant
	dir   string
	store *server.Store
	// lastDelta is, per client, 1 + the index of its last acknowledged
	// delta: what the final check applies to the generated data.
	lastDelta []int
	// shadow is the traced pass's own copy of the write path's state.
	shadow *writeShadow
}

func setupWrites(cfg config, want *snWant) (world, error) {
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.scratch, "store-")
	if err != nil {
		return nil, err
	}
	store, err := server.NewStore(dir)
	if err != nil {
		return nil, err
	}
	w := &writesWorld{
		node: newNode(server.Config{Store: store}, serveClients),
		want: want, dir: dir, store: store,
	}
	w.seq = newSnSeq(cfg, len(w.clients))
	w.lastDelta = make([]int, len(w.clients))
	cl := w.clients[0]
	if err := cl.load("sn", w.seq.sn.DB, 0); err != nil {
		w.close()
		return nil, err
	}
	// Warm the plan, every ranking's trim cache and every sketch, checking
	// the unchanged data's grid on the way.
	for r := range snRanks {
		for p := range snPhis {
			rd := w.seq.read(r, p)
			if err := w.read(cl, &rd, classExact, &want.exact[r][p]); err != nil {
				w.close()
				return nil, err
			}
			if err := w.read(cl, &rd, classApproxRd, &want.approx[r][p]); err != nil {
				w.close()
				return nil, err
			}
		}
	}
	return w, nil
}

func (w *writesWorld) close() {
	w.node.close()
	w.store.Close()
	if w.shadow != nil {
		w.shadow.wal.Close()
	}
	os.RemoveAll(w.dir)
}

// read performs one read and checks it; want is nil once deltas have moved
// the data away from the oracle's (the final check covers that state).
func (w *writesWorld) read(cl *client, r *snRead, class int, want *answer) error {
	if class == classExact {
		resp, err := cl.query(r.exact)
		if err != nil {
			return err
		}
		if want != nil {
			return checkAnswer(resp, *want)
		}
		if len(resp.Answers) != 1 {
			return fmt.Errorf("reply has %d answers, want 1", len(resp.Answers))
		}
		return nil
	}
	resp, err := cl.query(r.approx)
	if err != nil {
		return err
	}
	return checkApprox(resp, want)
}

func (w *writesWorld) do(c, i int) (int, error) {
	class, k := writesOp(c, i)
	if class != classDelta {
		return class, w.read(w.clients[c], &w.seq.reads[c][i%snPeriod], class, nil)
	}
	data, err := w.clients[c].send("POST", "/datasets/sn/delta", w.seq.writesBytes(c, i))
	if err != nil {
		return class, err
	}
	var resp server.DeltaResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return class, err
	}
	if resp.PlansMigrated == 0 {
		return class, fmt.Errorf("delta %d migrated no plan", k)
	}
	w.lastDelta[c] = k + 1
	return class, nil
}

// finish compares the server's exact grid with a fresh Prepare over the
// generated data with the net delta applied by DB.Apply: each client's last
// acknowledged delta's inserts are what its chain leaves behind.
func (w *writesWorld) finish() (attempted, failed int) {
	net := qjoin.NewDelta()
	for c, last := range w.lastDelta {
		for r := 0; last > 0 && r < deltaRows; r++ {
			net.Insert("Share", w.seq.deltaRow(c, last-1, r))
		}
	}
	fail := func(err error) (int, int) {
		fmt.Fprintln(os.Stderr, "bench: final check:", err)
		return len(snRanks) * len(snPhis), len(snRanks) * len(snPhis)
	}
	db, err := qjoin.WrapDB(w.seq.sn.DB).Apply(net)
	if err != nil {
		return fail(err)
	}
	fresh, err := qjoin.Prepare(w.seq.sn.Q, db)
	if err != nil {
		return fail(err)
	}
	for r, spec := range snRanks {
		f := mustRanking(spec)
		for p, phi := range snPhis {
			attempted++
			want, err := fresh.Quantile(f, phi)
			if err == nil {
				var resp *server.QueryResponse
				if resp, err = w.clients[0].query(w.seq.read(r, p).exact); err == nil {
					err = checkAnswer(resp, wireOf(want))
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: final check %s φ=%v: %v\n", spec, phi, err)
				failed++
			}
		}
	}
	// The lowest-weight answer too. Besides being one more check, it leaves
	// every run with the plan's full reduction built: otherwise whether a
	// late exact read happened to build it after the last delta is chance,
	// and heap_retained_mb would show it.
	attempted++
	top := server.QueryRequest{Dataset: "sn", Query: w.seq.snQuery, Rank: snRanks[0], Op: "topk", K: 1}
	want, err := fresh.TopK(mustRanking(snRanks[0]), 1)
	if err == nil {
		var resp *server.QueryResponse
		if resp, err = w.clients[0].query(mustJSON(top)); err == nil && (len(resp.Answers) != 1 || resp.Answers[0].Weight.K != want[0].Weight.K) {
			err = fmt.Errorf("got %v, want weight %d", resp.Answers, want[0].Weight.K)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: final check top-1:", err)
		failed++
	}
	return attempted, failed
}

// writeShadow is the write path's state held by the benchmark itself, so the
// traced pass can take a delta through DB.Apply, the WAL, UpdatePlan and
// WarmSketches one call at a time.
type writeShadow struct {
	db   *qjoin.DB
	plan qjoin.Plan
	wal  *snap.WAL
	path string
	gen  uint64
	// deltas and rows count what the traced pass has put through it.
	deltas, rows int
}

// prepareTraced builds the shadow before the traced pass starts its clock.
func (w *writesWorld) prepareTraced() (err error) {
	w.shadow, err = w.newShadow()
	return err
}

func (w *writesWorld) newShadow() (*writeShadow, error) {
	sh := &writeShadow{db: qjoin.WrapDB(w.seq.sn.DB), path: filepath.Join(w.dir, "traced.wal")}
	plan, err := qjoin.Prepare(w.seq.sn.Q, sh.db)
	if err != nil {
		return nil, err
	}
	for _, spec := range snRanks { // the served plan carries one sketch per ranking
		if _, err := plan.Answer(mustRanking(spec), qjoin.QuantileRequest{Phi: 0.5, Mode: qjoin.ModeApprox}); err != nil {
			return nil, err
		}
	}
	sh.plan = plan
	sh.wal, err = snap.OpenWAL(sh.path)
	return sh, err
}

func (w *writesWorld) traced(tr *tracer, i int) error {
	extra := len(w.clients)
	class, _ := writesOp(0, i)
	if class != classDelta {
		r := &w.seq.reads[extra][i%snPeriod]
		body := r.exact
		if class == classApproxRd {
			body = r.approx
		}
		_, err := tracedQuery(tr, w.node, body)
		return err
	}
	sh := w.shadow
	d := w.seq.delta(extra, sh.deltas)
	sh.deltas++
	id := tr.startOp("op")
	defer tr.end(id)
	var err error
	tr.in("qjoin.db_apply", func() { sh.db, err = sh.db.Apply(d) })
	if err != nil {
		return err
	}
	sh.gen++
	tr.in("snap.wal_append", func() { err = sh.wal.Append(sh.gen, d) })
	if err != nil {
		return err
	}
	tr.in("qjoin.update", func() { sh.plan, err = sh.plan.UpdatePlan(d) })
	if err != nil {
		return err
	}
	tr.in("qjoin.warm_sketches", func() { err = sh.plan.WarmSketches() })
	sh.rows += d.Len()
	return err
}

func (w *writesWorld) probes(tr *tracer, s *sample, named map[string]float64) error {
	named["server.delta_ms"] = median(s.lat[classDelta])
	named["server.read_exact_ms"] = median(s.lat[classExact])
	named["server.read_approx_us"] = median(s.lat[classApproxRd]) * 1e3
	if w.shadow != nil && w.shadow.rows > 0 {
		st, err := os.Stat(w.shadow.path)
		if err != nil {
			return err
		}
		named["snap.wal_bytes_per_row"] = float64(st.Size()) / float64(w.shadow.rows)
	}
	return nil
}
