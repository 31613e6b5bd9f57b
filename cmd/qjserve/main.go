// Command qjserve is the quantile-join serving daemon: a long-lived HTTP
// process over the prepared-query engine, with a named-dataset registry, a
// migrating plan cache and bounded-concurrency admission.
//
// Usage:
//
//	qjserve -addr :8080 -cache 64 -inflight 0 -timeout 30s
//
// -shards N makes N-way hash-sharded datasets the default for loads that
// omit the shards field (a load request's own shards value still wins);
// sharded datasets answer through per-shard engines and a merged global
// pivot loop, byte-identical to unsharded ones.
//
// -data-dir DIR makes the daemon durable: every bulk load persists a binary
// dataset snapshot under DIR before the response goes out, every delta fsyncs
// a WAL record before its generation publishes, and at boot the directory is
// recovered — snapshot plus WAL replay — to exactly the last acknowledged
// generation, so a kill -9 loses nothing and post-restart responses report
// the same generation numbers. See the README "Durability" section.
//
// Endpoints (JSON; see the README "Serving" section for a full table):
//
//	PUT    /datasets/{name}           bulk-load (or replace) a dataset
//	POST   /datasets/{name}/delta     apply an insert/delete batch
//	POST   /datasets/{name}/snapshot  compact the WAL into a fresh snapshot
//	GET    /datasets/{name}/snapshot  stream the dataset as a binary snapshot
//	POST   /query                     quantile / quantiles / median / approx / topk / count
//	GET    /datasets                  list datasets
//	GET    /datasets/{name}           one dataset's relations and generation
//	DELETE /datasets/{name}           drop a dataset
//	GET    /stats                     registry, cache and latency statistics
//	GET    /metrics                   expvar counters (includes the qjserve var)
//	GET    /healthz                   liveness probe
//
// The daemon prints "qjserve: listening on HOST:PORT" once the socket is
// bound (with -addr :0 the printed port is the kernel-assigned one), and
// shuts down gracefully on SIGINT/SIGTERM: the listener closes, in-flight
// requests get -grace to finish, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (use :0 for a kernel-assigned port)")
	inflight := flag.Int("inflight", 0, "max concurrently admitted requests (0 = 4x GOMAXPROCS)")
	cacheCap := flag.Int("cache", 64, "max plan-cache entries, one per (plan, ranking) (LRU)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout, admission wait included")
	grace := flag.Duration("grace", 10*time.Second, "shutdown grace period for in-flight requests")
	maxBody := flag.Int64("max-body", 0, "max request body bytes (0 = 1 GiB)")
	shards := flag.Int("shards", 0, "default shard count for datasets loaded without one (0 = unsharded; a load's shards field overrides)")
	dataDir := flag.String("data-dir", "", "durable data directory: datasets persist as snapshot+WAL and are recovered at boot (empty = in-memory only)")
	flag.Parse()

	if err := qjoin.ValidateShards(*shards); err != nil {
		fmt.Fprintln(os.Stderr, "qjserve:", err)
		os.Exit(1)
	}
	var store *server.Store
	var recovered []server.Recovered
	if *dataDir != "" {
		var err error
		if store, err = server.NewStore(*dataDir); err != nil {
			fmt.Fprintln(os.Stderr, "qjserve: opening data directory:", err)
			os.Exit(1)
		}
		defer store.Close()
		if recovered, err = store.LoadAll(); err != nil {
			fmt.Fprintln(os.Stderr, "qjserve: recovering data directory:", err)
			os.Exit(1)
		}
	}
	s := server.New(server.Config{
		MaxInflight:    *inflight,
		CacheCap:       *cacheCap,
		RequestTimeout: *timeout,
		MaxBodyBytes:   *maxBody,
		DefaultShards:  *shards,
		Store:          store,
	})
	for _, rec := range recovered {
		s.RestoreDataset(rec)
		fmt.Printf("qjserve: recovered dataset %q at generation %d (%d tuples, %d WAL records replayed)\n",
			rec.Name, rec.Gen, rec.DB.Size(), rec.Replayed)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qjserve:", err)
		os.Exit(1)
	}
	// Printed on stdout so supervisors (and the CI integration script) can
	// scrape the bound address even with -addr :0.
	fmt.Printf("qjserve: listening on %s\n", ln.Addr())

	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "qjserve:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop()
		fmt.Println("qjserve: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "qjserve: forced shutdown:", err)
			os.Exit(1)
		}
	}
}
