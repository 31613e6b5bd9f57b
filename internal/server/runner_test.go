package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/quantilejoins/qjoin"
)

// serve runs one request through h and returns its recorded response.
func serve(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, &buf))
	return w
}

// waitFor polls cond until it holds or a second has passed.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(time.Second); !cond(); {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// A query that times out answers 503 at its deadline, but its work goes on
// holding the admission slot: with one slot, the next request is refused as
// saturated until that work ends, and then succeeds.
func TestTimedOutWorkKeepsItsSlot(t *testing.T) {
	s := New(Config{MaxInflight: 1, RequestTimeout: 100 * time.Millisecond})
	unblock := make(chan struct{})
	first := true
	h := s.gated(&s.metrics.Requests.Query, &s.metrics.QueryLatency, func(w http.ResponseWriter, r *http.Request) {
		block := first // requests run one at a time: the gate has one slot
		first = false
		if _, err := runCtx(r.Context(), s.run, func() (int, error) {
			if block {
				<-unblock
			}
			return 0, nil
		}); err != nil {
			s.writeError(w, http.StatusServiceUnavailable, err, "")
			return
		}
		s.writeJSON(w, "ok")
	})
	if w := serve(t, h, "POST", "/query", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("blocked query: status %d, want 503", w.Code)
	}
	w := serve(t, h, "POST", "/query", nil)
	if w.Code != http.StatusServiceUnavailable || !bytes.Contains(w.Body.Bytes(), []byte("saturated")) {
		t.Fatalf("query behind the timed-out work: status %d %s, want 503 saturated", w.Code, w.Body.String())
	}
	close(unblock)
	if !waitFor(func() bool { return len(s.gate) == 0 }) {
		t.Fatal("the timed-out work never released its slot")
	}
	if w := serve(t, h, "POST", "/query", nil); w.Code != http.StatusOK {
		t.Fatalf("query after the work ended: status %d %s, want 200", w.Code, w.Body.String())
	}
}

// Sequential queries reuse the runner's goroutines: a few hundred of them
// leave at most MaxInflight goroutines waiting, and the process no more
// goroutines than that beyond where it started.
func TestRunnerKeepsAtMostMaxInflightIdle(t *testing.T) {
	const maxInflight = 2
	s := New(Config{MaxInflight: maxInflight})
	h := s.Handler()
	load := LoadRequest{Relations: []RelationData{
		{Name: "R", Arity: 2, Rows: [][]int64{{1, 2}, {3, 4}, {5, 6}, {7, 4}}},
		{Name: "S", Arity: 2, Rows: [][]int64{{2, 10}, {4, 20}, {6, 30}, {4, 5}}},
	}}
	if w := serve(t, h, "PUT", "/datasets/d", load); w.Code != http.StatusOK {
		t.Fatalf("load: %d %s", w.Code, w.Body.String())
	}
	before := runtime.NumGoroutine()
	for i := range 300 {
		req := QueryRequest{Dataset: "d", Query: "R(x,y),S(y,z)", Rank: "sum(x,z)", Op: "quantile", Phi: float64(i%11) / 10}
		if w := serve(t, h, "POST", "/query", req); w.Code != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, w.Code, w.Body.String())
		}
	}
	if idle := s.run.p.idle.Load(); idle > maxInflight {
		t.Fatalf("%d runner goroutines wait, want at most %d", idle, maxInflight)
	}
	if after := runtime.NumGoroutine(); after-before > maxInflight {
		t.Fatalf("%d goroutines after 300 queries, %d before: more than %d left behind", after, before, maxInflight)
	}
}

// Jobs that run at once each get a goroutine; when they end, the goroutines
// beyond maxIdle exit and the rest wait for the next job.
func TestRunnerParksAtMostMaxIdle(t *testing.T) {
	const maxIdle, jobs = 3, 12
	r := newRunner(maxIdle)
	before := runtime.NumGoroutine()
	var started, finished sync.WaitGroup
	release := make(chan struct{})
	started.Add(jobs)
	finished.Add(jobs)
	for range jobs {
		r.do(func() {
			defer finished.Done()
			started.Done()
			<-release
		})
	}
	started.Wait()
	if n := runtime.NumGoroutine() - before; n < jobs {
		t.Fatalf("%d goroutines run %d blocked jobs", n, jobs)
	}
	close(release)
	finished.Wait()
	if !waitFor(func() bool { return runtime.NumGoroutine()-before <= maxIdle && r.p.idle.Load() == maxIdle }) {
		t.Fatalf("%d goroutines beyond the start and %d idle, want %d", runtime.NumGoroutine()-before, r.p.idle.Load(), maxIdle)
	}
	done := make(chan struct{})
	r.do(func() { close(done) })
	<-done
}

// A cache made outside a Server compiles on a runner of its own, which keeps
// one goroutine waiting; once the cache is unreachable that goroutine exits.
func TestBareCacheRunnerLeavesWithIt(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		c := NewPlanCache(1)
		fail := errors.New("no plan")
		if _, _, _, err := c.Get(context.Background(), "d", 1, "R(x,y)", "", 1, nil, nil, func() (qjoin.Plan, error) { return nil, fail }); err != fail {
			t.Fatalf("Get: %v, want the compile's error", err)
		}
		if !waitFor(func() bool { return c.run.p.idle.Load() == 1 }) {
			t.Fatalf("%d goroutines wait on the cache's runner, want 1", c.run.p.idle.Load())
		}
	}()
	if !waitFor(func() bool { runtime.GC(); return runtime.NumGoroutine() <= before }) {
		t.Fatalf("%d goroutines after the cache is gone, %d before", runtime.NumGoroutine(), before)
	}
}

// A query pass that panics answers 500 and is counted in /stats; the
// runner's goroutine survives it, and the next job on it runs.
func TestPanickingQueryAnswers500(t *testing.T) {
	s := New(Config{MaxInflight: 1})
	boom := true
	h := s.gated(&s.metrics.Requests.Query, &s.metrics.QueryLatency, func(w http.ResponseWriter, r *http.Request) {
		v, err := runCtx(r.Context(), s.run, func() (int, error) {
			if boom {
				panic("boom")
			}
			return 7, nil
		})
		if err != nil {
			s.fail(w, err)
			return
		}
		s.writeJSON(w, v)
	})
	w := serve(t, h, "POST", "/query", nil)
	if w.Code != http.StatusInternalServerError || !bytes.Contains(w.Body.Bytes(), []byte("boom")) {
		t.Fatalf("panicking query: status %d %s, want 500", w.Code, w.Body.String())
	}
	if got := s.StatsSnapshot().Metrics.Panics; got != 1 {
		t.Fatalf("/stats counts %d panics, want 1", got)
	}
	if !waitFor(func() bool { return s.run.p.idle.Load() == 1 }) {
		t.Fatalf("%d runner goroutines wait after the panic, want 1", s.run.p.idle.Load())
	}
	boom = false
	if w := serve(t, h, "POST", "/query", nil); w.Code != http.StatusOK || w.Body.String() != "7\n" {
		t.Fatalf("query after the panic: status %d %q, want 200 7", w.Code, w.Body.String())
	}
}

// A compile that panics fails its flight at once, for its caller and for a
// request coalesced onto it, and leaves nothing behind: the next Get of the
// key compiles again.
func TestPanickingCompileFailsItsFlight(t *testing.T) {
	s := New(Config{})
	c := s.Cache()
	db := qjoin.NewDB().MustAdd("R", 2, [][]int64{{1, 2}})
	q := qjoin.NewQuery(qjoin.NewAtom("R", "x", "y"))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	compiles := 0
	started, release := make(chan struct{}), make(chan struct{})
	get := func() (qjoin.Plan, error) {
		p, _, _, err := c.Get(ctx, "d", 1, "R(x,y)", "", 0, nil, nil, func() (qjoin.Plan, error) {
			compiles++
			if compiles == 1 {
				close(started)
				<-release
				panic("boom")
			}
			return qjoin.Prepare(q, db)
		})
		return p, err
	}
	errs := make(chan error, 2)
	go func() { _, err := get(); errs <- err }()
	<-started
	go func() { _, err := get(); errs <- err }() // coalesces onto the flight
	if !waitFor(func() bool { return c.Stats().Coalesced == 1 }) {
		t.Fatal("the second request never joined the flight")
	}
	close(release)
	for range 2 {
		if err := <-errs; !errors.Is(err, errPanic) {
			t.Fatalf("Get during the panicking compile: %v, want the panic's error", err)
		}
	}
	if got := s.StatsSnapshot().Metrics.Panics; got != 1 {
		t.Fatalf("/stats counts %d panics, want 1", got)
	}
	if p, err := get(); err != nil || p == nil || compiles != 2 {
		t.Fatalf("Get after the panic: plan %v, err %v, %d compiles, want a plan from a second compile", p, err, compiles)
	}
}
