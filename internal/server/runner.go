package server

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
)

// runner runs a Server's detached work — a query's engine pass (runCtx) and
// a plan compile (PlanCache.Get) — on long-lived goroutines. A job goes to an
// idle goroutine when one waits and to a new one otherwise; a goroutine that
// finishes a job waits for the next unless maxIdle goroutines already wait,
// and then exits. The engine's descent is recursive, so a goroutine that
// served one query has grown its stack to what the next needs: reusing it
// saves the fresh goroutine's stack growth on every request. The runner
// bounds only idle goroutines; how many jobs run at once is the admission
// gate's business (a job holds its request's slot until it returns).
//
// The waiting goroutines see only the pool, never the runner: once the
// runner is unreachable (its Server and PlanCache are gone), a cleanup
// closes the job channel and they exit.
type runner struct {
	p      *pool
	panics atomic.Int64 // jobs whose work panicked (recovered)
}

type pool struct {
	jobs    chan func() // unbuffered: a send succeeds only into a waiting goroutine
	idle    atomic.Int32
	maxIdle int32
}

// newRunner returns a runner that keeps at most maxIdle goroutines waiting.
func newRunner(maxIdle int) *runner {
	r := &runner{p: &pool{jobs: make(chan func()), maxIdle: int32(maxIdle)}}
	runtime.AddCleanup(r, func(p *pool) { close(p.jobs) }, r.p)
	return r
}

// do runs job on a goroutine of the runner and returns at once.
func (r *runner) do(job func()) {
	select {
	case r.p.jobs <- job:
	default:
		go r.p.serve(job)
	}
}

// serve runs job, then the jobs handed to it while it waits.
func (p *pool) serve(job func()) {
	for ok := true; ok; {
		job()
		if p.idle.Add(1) > p.maxIdle {
			p.idle.Add(-1)
			return
		}
		job, ok = <-p.jobs
		p.idle.Add(-1)
	}
}

// errPanic marks the error of a job whose work panicked; the HTTP layer maps
// it to a 500.
var errPanic = errors.New("server: internal error")

// recovered runs a job's work and turns a panic into an error wrapping
// errPanic, counted on run. A panic on a runner goroutine would end the
// process, since net/http recovers only its own handler goroutines; this way
// the job reports to whoever waits on it, and its goroutine goes on to the
// next job.
func recovered[T any](run *runner, work func() (T, error)) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			run.panics.Add(1)
			err = fmt.Errorf("%w: %v", errPanic, p)
		}
	}()
	return work()
}
