// Package par holds the parallelism and time-budget configuration shared by
// every solver stage. Each stage's Options type (prime.Options,
// cover.Options, heuristic.Options, core.ExactOptions) embeds a Parallelism,
// so the two knobs are spelled — and behave — identically everywhere, and a
// pipeline-level default can flow into stages with FillFrom instead of
// hand-copied field assignments. ForEach is the index fan-out the stages
// share.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Parallelism is the worker-count/deadline pair accepted by every parallel
// solver stage.
//
// Every engine in this repository returns identical results for any
// Workers value whenever its search completes. A search that a node or
// time budget cut short (an anytime solve, returned with Optimal=false)
// may return a different incumbent for another worker count, or on
// another run, because how far each worker got depends on scheduling.
// TimeLimit can change results the same way, as a caller-supplied context
// deadline would.
type Parallelism struct {
	// Workers sets the degree of parallelism: 0 means
	// runtime.GOMAXPROCS(0), 1 forces the sequential code path. Every
	// stage returns identical results for any value whenever its search
	// completes; a budget-truncated result may differ.
	Workers int
	// TimeLimit bounds wall-clock time; 0 means unlimited. It is applied
	// as a context deadline, layered under whatever deadline the caller's
	// context already carries.
	TimeLimit time.Duration
}

// Workers returns a Parallelism with the given worker count, for concise
// option literals: Options{Parallelism: par.Workers(4)}.
func Workers(n int) Parallelism { return Parallelism{Workers: n} }

// Budget returns a Parallelism with the given time limit.
func Budget(d time.Duration) Parallelism { return Parallelism{TimeLimit: d} }

// WorkerCount resolves the effective worker count: Workers when positive,
// runtime.GOMAXPROCS(0) otherwise.
func (p Parallelism) WorkerCount() int {
	if p.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.Workers
}

// WorkersFor resolves the worker count a stage should actually use for a
// problem of the given size: 1 — the sequential code path — when size is
// below cutoff, WorkerCount() otherwise.
//
// Every parallel engine in this repository pays a fixed fan-out cost
// (frontier expansion, per-worker scratch arenas, goroutine spawn and join)
// on the order of 0.1–1 ms before any useful concurrent work happens.
// Instances whose sequential solve time is comparable to that overhead are
// strictly slower through the parallel engine no matter how many CPUs are
// free, so each stage gates its engine on a size proxy measured against its
// kernel benchmarks (see the ParallelCutoff* constants in cover, prime and
// heuristic). Because every completed search is deterministic in the
// worker count, falling back to the sequential path never changes its
// result — it only removes the overhead, so `-j` never regresses small
// instances.
func (p Parallelism) WorkersFor(size, cutoff int) int {
	if size < cutoff {
		return 1
	}
	return p.WorkerCount()
}

// FillFrom returns p with zero-valued fields filled from def: an explicit
// per-stage setting always wins over the inherited pipeline default.
func (p Parallelism) FillFrom(def Parallelism) Parallelism {
	if p.Workers == 0 {
		p.Workers = def.Workers
	}
	if p.TimeLimit == 0 {
		p.TimeLimit = def.TimeLimit
	}
	return p
}

// Context layers TimeLimit (when set) under ctx as a deadline. The returned
// cancel function must always be called; with no TimeLimit it is a no-op and
// ctx is returned unchanged.
func (p Parallelism) Context(ctx context.Context) (context.Context, context.CancelFunc) {
	if p.TimeLimit > 0 {
		return context.WithTimeout(ctx, p.TimeLimit)
	}
	return ctx, func() {}
}

// ForEach runs fn(i) for every i in [0, n) on up to workers goroutines,
// which pull indices from a shared atomic counter; workers ≤ 1 (or n < 2)
// degrades to a plain loop on the calling goroutine. fn must only write
// state owned by index i. ForEach returns once every call has returned.
func ForEach(n, workers int, fn func(i int)) {
	if workers <= 1 || n < 2 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	workers = min(workers, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
