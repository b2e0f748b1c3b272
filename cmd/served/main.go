// Command served runs the encoding service: an HTTP/JSON API over the
// P-1/P-2/P-3 solvers with bounded concurrency, request coalescing, a
// result cache and graceful shutdown.
//
//	served -addr :8080
//
// Endpoints:
//
//	POST   /v1/encode       solve a constraint set (modes: feasible, exact, heuristic)
//	POST   /v1/encode/batch solve N constraint sets; duplicates coalesce to one solve
//	POST   /v1/pipeline     run the KISS2 synthesis pipeline
//	POST   /v1/jobs         submit an async encode/pipeline job (202 + job id)
//	GET    /v1/jobs         list the calling tenant's jobs (credential required)
//	GET    /v1/jobs/{id}    poll one job; ?wait=5s long-polls until terminal
//	DELETE /v1/jobs/{id}    cancel a queued or running job
//	GET    /v1/healthz      liveness (503 while draining)
//	GET    /v1/stats        service metrics as JSON
//	GET    /v1/trace        recent solve traces (stage spans), newest first
//	GET    /v1/trace/{id}   one solve trace by the id from the encode response
//	GET    /debug/vars      expvar, including encoding_server_stats (-debug only)
//	GET    /debug/pprof/    Go profiling endpoints (-debug only)
//
// Tenants are keyed by bearer token (Authorization: Bearer <tok> or
// X-API-Key); requests without credentials share the anonymous tenant.
// -tenant-active and -tenant-jobs bound each tenant's concurrent solves
// and live jobs; exhausted quotas answer 429 with Retry-After.
//
// Solves slower than -slow-solve emit one structured log line with the
// stage breakdown and trace id.
//
// On SIGINT/SIGTERM the server stops intake, drains in-flight solves for
// -drain, then cancels whatever is still running and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/encodingapi"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "pool workers: concurrent solves (0 = all CPUs)")
	queue := flag.Int("queue", server.DefaultQueueDepth, "pending-solve queue depth before shedding load with 429")
	cacheEntries := flag.Int("cache", server.DefaultCacheEntries, "result-cache entries (0 = default, negative disables caching)")
	timeout := flag.Duration("timeout", server.DefaultTimeout, "default solve budget per request")
	maxTimeout := flag.Duration("max-timeout", server.DefaultMaxTimeout, "ceiling on client-requested solve budgets")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	debug := flag.Bool("debug", false, "mount /debug/pprof and /debug/vars on the service listener")
	slowSolve := flag.Duration("slow-solve", server.DefaultSlowSolve, "log solves slower than this (negative disables)")
	traceBuffer := flag.Int("trace-buffer", server.DefaultTraceBuffer, "recent solve traces retained for /v1/trace (negative disables)")
	maxBatch := flag.Int("max-batch", server.DefaultMaxBatchItems, "items accepted per /v1/encode/batch request")
	jobTTL := flag.Duration("job-ttl", 0, "retention of finished jobs before eviction (0 = default 10m)")
	maxJobs := flag.Int("max-jobs", 0, "jobs retained in the store before submits shed with 429 (0 = default 1024)")
	maxJobWait := flag.Duration("max-job-wait", server.DefaultMaxJobWait, "ceiling on ?wait= long-poll windows")
	tenantActive := flag.Int("tenant-active", 0, "concurrent solves per tenant before shedding with 429 (0 = unlimited)")
	tenantJobs := flag.Int("tenant-jobs", 0, "live jobs per tenant before submits shed with 429 (0 = unlimited)")
	decompose := flag.Bool("decompose", false, "solve exact requests by connected-component decomposition (per-component caching)")
	backend := flag.String("backend", "", "default exact-mode unate covering backend: bb (branch-and-bound) or sat")
	flag.Parse()
	if _, ok := encodingapi.ParseBackend(*backend); !ok {
		fatal(fmt.Errorf("unknown backend %q (want bb or sat)", *backend))
	}

	srv := server.New(server.Config{
		Addr:               *addr,
		Workers:            *workers,
		QueueDepth:         *queue,
		CacheEntries:       *cacheEntries,
		DefaultTimeout:     *timeout,
		MaxTimeout:         *maxTimeout,
		Debug:              *debug,
		SlowSolveThreshold: *slowSolve,
		TraceBuffer:        *traceBuffer,
		MaxBatchItems:      *maxBatch,
		JobTTL:             *jobTTL,
		MaxJobs:            *maxJobs,
		MaxJobWait:         *maxJobWait,
		TenantMaxActive:    *tenantActive,
		TenantMaxJobs:      *tenantJobs,
		Decompose:          *decompose,
		Backend:            *backend,
	})
	srv.PublishExpvar()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "served: listening on %s\n", *addr)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintf(os.Stderr, "served: draining (up to %s)\n", *drain)

	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "served: shutdown complete")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "served:", err)
	os.Exit(1)
}
