package server

import (
	"log/slog"
	"time"

	"repro/encodingapi"
)

// Config tunes the encoding service. The zero value is a sensible
// single-machine deployment; Normalize fills defaults.
type Config struct {
	// Addr is the listen address for ListenAndServe; defaults to
	// ":8080". Handlers obtained via Handler ignore it.
	Addr string

	// Workers is the size of the solver pool: how many encoding problems
	// run concurrently. 0 means runtime.GOMAXPROCS(0). Each solve itself
	// runs with the engine parallelism its request names in "workers"
	// (0 = all CPUs, capped at runtime.GOMAXPROCS(0)).
	Workers int

	// QueueDepth bounds how many accepted requests may wait for a pool
	// slot beyond the ones already running. A request arriving with the
	// queue full is rejected with 429 and a Retry-After header. 0 means
	// DefaultQueueDepth, negative means no queue (a request is shed
	// unless a worker is free).
	QueueDepth int

	// CacheEntries bounds the LRU result cache; 0 means
	// DefaultCacheEntries, negative disables caching.
	CacheEntries int

	// DefaultTimeout is the per-request solve budget applied when the
	// request carries none; 0 means 30s.
	DefaultTimeout time.Duration

	// MaxTimeout caps client-requested budgets; 0 means 2m.
	MaxTimeout time.Duration

	// MaxBodyBytes bounds the request body; 0 means 1 MiB.
	MaxBodyBytes int64

	// RetryAfter is the hint returned with 429 responses; 0 means 1s.
	RetryAfter time.Duration

	// Debug mounts the Go diagnostic endpoints on the service handler:
	// /debug/pprof/* (CPU and memory profiles, goroutine dumps, execution
	// traces) and /debug/vars (expvar). Off by default — these endpoints
	// expose process internals and belong behind an operator flag, not on
	// every deployment.
	Debug bool

	// SlowSolveThreshold is the latency above which a completed solve
	// emits one structured log line (logger "slow solve", with the stage
	// breakdown and trace id). 0 means DefaultSlowSolve; negative
	// disables slow-solve logging.
	SlowSolveThreshold time.Duration

	// TraceBuffer is how many recent solve traces the server retains for
	// GET /v1/trace and /v1/trace/{id}. 0 means DefaultTraceBuffer;
	// negative disables trace retention (the endpoints then serve an
	// empty list / 404).
	TraceBuffer int

	// MaxBatchItems bounds the items of one POST /v1/encode/batch
	// request; 0 means DefaultMaxBatchItems.
	MaxBatchItems int

	// JobTTL is how long finished async jobs stay pollable before
	// eviction; 0 means jobs.DefaultTTL.
	JobTTL time.Duration

	// MaxJobs bounds retained jobs (active + finished); 0 means
	// jobs.DefaultMaxJobs. Submissions finding the store full of active
	// jobs are shed with 429.
	MaxJobs int

	// MaxJobWait caps the ?wait= long-poll duration of GET /v1/jobs/{id};
	// 0 means DefaultMaxJobWait.
	MaxJobWait time.Duration

	// TenantMaxActive is the per-tenant concurrent-solve quota (slots
	// held across sync requests, batch items and running jobs); 0 means
	// unlimited. The sync path sheds over-quota requests with 429
	// quota_exhausted; batch items and jobs wait for a slot instead.
	TenantMaxActive int

	// TenantMaxJobs caps one tenant's outstanding (queued + running)
	// async jobs; 0 means unlimited.
	TenantMaxJobs int

	// Decompose routes every exact request through connected-component
	// decomposition by default (requests may still opt in individually
	// via the "decompose" field). Disconnected constraint sets gain
	// per-component caching and parallel component solves; the assembled
	// codes may differ from a monolithic solve's, so the choice is part of
	// the cache identity.
	Decompose bool

	// Backend is the exact-mode unate covering backend applied when a
	// request names none: "bb" (branch-and-bound, the default) or "sat"
	// (the CNF/DPLL backend). Requests may still pick their own via the
	// "backend" field. Distance-2/non-face sets always cover through the
	// CNF backend. Like Decompose this changes the concrete codes a
	// request may receive (both backends prove the same optimum, but may
	// select different minimum covers), so it participates in cache
	// identity.
	Backend string

	// Logger receives the service's structured log lines (slow solves).
	// nil means slog.Default().
	Logger *slog.Logger
}

// Defaults for the zero Config.
const (
	DefaultQueueDepth    = 64
	DefaultCacheEntries  = 256
	DefaultTimeout       = 30 * time.Second
	DefaultMaxTimeout    = 2 * time.Minute
	DefaultMaxBodyBytes  = 1 << 20
	DefaultRetryAfter    = time.Second
	DefaultSlowSolve     = time.Second
	DefaultTraceBuffer   = 64
	DefaultMaxBatchItems = 64
	DefaultMaxJobWait    = 30 * time.Second
)

// Normalize returns cfg with zero fields replaced by defaults.
func (cfg Config) Normalize() Config {
	if cfg.Addr == "" {
		cfg.Addr = ":8080"
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = DefaultCacheEntries
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = DefaultTimeout
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = DefaultMaxTimeout
	}
	if cfg.DefaultTimeout > cfg.MaxTimeout {
		cfg.DefaultTimeout = cfg.MaxTimeout
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.SlowSolveThreshold == 0 {
		cfg.SlowSolveThreshold = DefaultSlowSolve
	}
	if cfg.TraceBuffer == 0 {
		cfg.TraceBuffer = DefaultTraceBuffer
	}
	if cfg.MaxBatchItems <= 0 {
		cfg.MaxBatchItems = DefaultMaxBatchItems
	}
	if cfg.MaxJobWait <= 0 {
		cfg.MaxJobWait = DefaultMaxJobWait
	}
	if cfg.TenantMaxActive < 0 {
		cfg.TenantMaxActive = 0
	}
	if cfg.TenantMaxJobs < 0 {
		cfg.TenantMaxJobs = 0
	}
	if cfg.Backend == "" {
		cfg.Backend = encodingapi.BackendBranchBound.String()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	return cfg
}
