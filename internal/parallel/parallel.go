// Package parallel resolves a worker-count knob to a number. Nothing in the
// library reads the result: every pass of the engine runs on the calling
// goroutine, since Algorithm 1's quasilinear bound is sequential and no
// chunked pass measured faster than its serial body. The benchmark module's
// probes still call Workers, and it goes with them.
package parallel

import "runtime"

// Workers resolves a Parallelism knob to a concrete worker count: values
// <= 0 select GOMAXPROCS, everything else is taken as-is.
func Workers(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}
