// Package server turns the encoding library into a long-running service:
// an HTTP/JSON API over the P-1/P-2/P-3 solvers with bounded concurrency,
// load shedding, per-tenant admission control, request coalescing, result
// caching, batch submission, an async job lifecycle and first-class
// observability.
//
// # Request lifecycle
//
// Every solve — synchronous, batch item or async job, decomposed or not —
// flows through one spine (execute):
//
//	parse    → decode + validate (constraints or KISS2)
//	cache    → LRU keyed by the canonical 128-bit request key — hit
//	           answers immediately
//	admit    → per-tenant concurrency quota (429 quota_exhausted; batch
//	           items and jobs wait for a slot instead of shedding)
//	coalesce → singleflight: identical in-flight problems share one solve
//	solve    → bounded worker pool (sync: full queue sheds with 429 +
//	           Retry-After; async: waits) → encoding engines under a
//	           context deadline. A decomposed exact request runs
//	           decomp's component loop instead: each component answers
//	           from its own cache entry or goes through its own
//	           singleflight to the pool, at most one per pool worker
//	render   → mode-specific JSON + delivery metadata (cached, coalesced,
//	           trace id)
//
// The endpoints differ only in how they enter and leave the spine:
// POST /v1/encode and /v1/pipeline run it inline; POST /v1/encode/batch
// fans N items through it concurrently (duplicate items dedupe to one
// solve before the spine ever runs); POST /v1/jobs runs it from a runner
// goroutine with the outcome parked in the job store for GET /v1/jobs/{id}
// polling (?wait= long-poll) and DELETE cancellation.
//
// Every stage is observable through /v1/stats (and expvar): request
// outcomes, queue depth, cache hit ratio, coalescing counts, batch/job
// counters, per-tenant admission and a latency histogram.
//
// # Lifecycle
//
// New builds a Server; Handler exposes it to any http mux; ListenAndServe
// runs it standalone. Shutdown is graceful: intake stops (new requests get
// 503), in-flight requests and job runners drain, the pool finishes
// accepted work, and only when the shutdown context expires are running
// solves canceled through their contexts. A panicking solve is isolated to
// its request (500) and never takes down a worker.
package server

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"time"

	"repro/encodingapi"
	"repro/internal/jobs"
	"repro/internal/trace"
)

// Server is the encoding service. Create with New; safe for concurrent use.
type Server struct {
	cfg     Config
	metrics *Metrics
	cache   *resultCache
	flights *flightGroup
	pool    *pool
	traces  *traceRing
	jobs    *jobs.MemStore
	tenants *tenantLimiter

	// baseCtx parents every solve context, so canceling it aborts all
	// running solves during a forced shutdown.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	mux  *http.ServeMux
	http *http.Server

	reqWG    sync.WaitGroup // in-flight HTTP requests
	draining sync.Once
	drained  chan struct{} // closed once draining starts

	// solveFn runs one parsed request to completion; defaults to the
	// real engines (solveLibrary) and is replaceable by tests that need
	// deterministic slow/blocking/panicking solves.
	solveFn func(ctx context.Context, req *solveRequest) (*encodingapi.EncodeResult, error)
}

// New returns a Server for cfg (zero fields defaulted via
// Config.Normalize). The worker pool starts immediately; callers must
// eventually Shutdown (or Close) to release it.
func New(cfg Config) *Server {
	cfg = cfg.Normalize()
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		cfg:     cfg,
		metrics: newMetrics(),
		cache:   newResultCache(cfg.CacheEntries),
		flights: newFlightGroup(),
		pool:    newPool(workers, cfg.QueueDepth),
		traces:  newTraceRing(cfg.TraceBuffer),
		jobs:    jobs.NewMemStore(jobs.Config{TTL: cfg.JobTTL, MaxJobs: cfg.MaxJobs}),
		tenants: newTenantLimiter(cfg.TenantMaxActive),
		drained: make(chan struct{}),
	}
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	s.solveFn = s.solveLibrary

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/encode", s.handleEncode)
	s.mux.HandleFunc("/v1/encode/batch", s.handleBatch)
	s.mux.HandleFunc("/v1/pipeline", s.handlePipeline)
	s.mux.HandleFunc("/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("/v1/jobs/", s.handleJob)
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/trace", s.handleTraceList)
	s.mux.HandleFunc("/v1/trace/", s.handleTraceGet)
	if cfg.Debug {
		// Diagnostic endpoints are opt-in: pprof exposes heap contents
		// and expvar the process state, neither of which belongs on an
		// unauthenticated production listener by default.
		s.mux.Handle("/debug/vars", expvar.Handler())
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the service's HTTP handler for mounting under an
// existing server or httptest.
func (s *Server) Handler() http.Handler { return s.mux }

// Stats snapshots the service metrics, including the job-store gauges
// and the per-tenant admission breakdown.
func (s *Server) Stats() Stats {
	s.jobs.Sweep() // retention is observed here; evict before reporting
	st := s.metrics.snapshot(s.cache.Len())
	st.JobsActive = s.jobs.Active("")
	st.JobsRetained = s.jobs.Len()
	if tenants := s.tenants.seen(); len(tenants) > 0 {
		st.Tenants = make(map[string]TenantStats, len(tenants))
		for _, t := range tenants {
			st.Tenants[t] = TenantStats{
				ActiveSolves:    s.tenants.active(t),
				ActiveJobs:      s.jobs.Active(t),
				QuotaRejections: s.tenants.rejections(t),
			}
		}
	}
	return st
}

// expvarOnce guards the process-global expvar name: only the first Server
// to call PublishExpvar is exported (one service per process in practice).
var expvarOnce sync.Once

// PublishExpvar exports this server's Stats under the expvar key
// "encoding_server_stats", readable on /debug/vars.
func (s *Server) PublishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("encoding_server_stats", expvar.Func(func() any { return s.Stats() }))
	})
}

// ListenAndServe serves on cfg.Addr until Shutdown. It returns
// http.ErrServerClosed after a graceful shutdown, matching net/http.
func (s *Server) ListenAndServe() error {
	s.http = &http.Server{
		Addr:              s.cfg.Addr,
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s.http.ListenAndServe()
}

// isDraining reports whether Shutdown has begun.
func (s *Server) isDraining() bool {
	select {
	case <-s.drained:
		return true
	default:
		return false
	}
}

// Shutdown drains the service: intake stops immediately (new requests are
// answered 503), in-flight requests, job runners and accepted pool work
// run to completion, and the pool and job store are torn down. If ctx
// expires before the drain finishes, running solves are canceled through
// their contexts (job contexts included — outstanding jobs finish
// Cancelled or Failed, never dangle) and the drain completes promptly;
// ctx.Err() is then returned. Safe to call more than once; later calls
// wait for the same drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Do(func() { close(s.drained) })

	var err error
	if s.http != nil {
		err = s.http.Shutdown(ctx)
	}

	done := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Drain budget exhausted: abort running solves cooperatively and
		// finish the drain fast.
		s.cancelBase()
		<-done
		if err == nil {
			err = ctx.Err()
		}
	}
	s.pool.close()
	s.jobs.Close()
	s.cancelBase()
	return err
}

// Close is Shutdown with no drain budget: running solves are canceled
// immediately.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		err = nil
	}
	return err
}

// budget clamps the request's solve budget to the configured window.
func (s *Server) budget(requested time.Duration) time.Duration {
	if requested <= 0 {
		return s.cfg.DefaultTimeout
	}
	if requested > s.cfg.MaxTimeout {
		return s.cfg.MaxTimeout
	}
	return requested
}

// runSolve is the post-cache, post-coalesce execution path of one problem:
// enqueue on the bounded pool and wait for the outcome or the context. The
// queued task re-checks the context before starting, so budgets burned
// waiting in the queue never start a doomed solve; a panic inside the
// engines is recovered and surfaced as an error. wait selects blocking
// submission (async jobs) over shed-on-full (sync requests); see
// pool.submitWait.
//
// Instrumentation: queue wait and engine execution are observed into
// separate histograms (Stats decomposes latency into contention vs. solve
// time), and when ctx carries a trace recorder the same split is recorded
// as "server.queue" and "server.solve" spans bracketing the engine stages.
func (s *Server) runSolve(ctx context.Context, req *solveRequest, wait bool) (*encodingapi.EncodeResult, error) {
	type outcome struct {
		res *encodingapi.EncodeResult
		err error
	}
	done := make(chan outcome, 1)
	enqueued := time.Now()
	qsp := trace.StartSpan(ctx, "server.queue")
	task := func() {
		s.metrics.Queued.Add(-1)
		s.metrics.QueueWait.observe(time.Since(enqueued))
		qsp.End()
		defer func() {
			if p := recover(); p != nil {
				s.metrics.SolvePanics.Add(1)
				done <- outcome{err: fmt.Errorf("server: solve panicked: %v", p)}
			}
		}()
		if err := ctx.Err(); err != nil {
			done <- outcome{err: err}
			return
		}
		if req.onStart != nil {
			req.onStart()
		}
		s.metrics.Solves.Add(1)
		solveStart := time.Now()
		ssp := trace.StartSpan(ctx, "server.solve")
		res, err := s.solveFn(ctx, req)
		ssp.SetBool("failed", err != nil).End()
		s.metrics.SolveTime.observe(time.Since(solveStart))
		done <- outcome{res: res, err: err}
	}
	s.metrics.Queued.Add(1)
	submit := s.pool.submit
	if wait {
		submit = func(t func()) error { return s.pool.submitWait(ctx, t) }
	}
	if err := submit(task); err != nil {
		s.metrics.Queued.Add(-1)
		return nil, err
	}
	select {
	case out := <-done:
		return out.res, out.err
	case <-ctx.Done():
		// The task still drains from the queue eventually; it sees the
		// dead context and aborts without starting a solve.
		return nil, ctx.Err()
	}
}
