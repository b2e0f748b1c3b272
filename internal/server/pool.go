package server

import (
	"context"
	"errors"
	"sync"
)

// errOverloaded is returned by submit when the queue is full; the handler
// maps it to 429 + Retry-After.
var errOverloaded = errors.New("server: worker pool queue full")

// errPoolClosed is returned by submit after close; the handler maps it to
// 503 (draining).
var errPoolClosed = errors.New("server: worker pool closed")

// pool is a bounded worker pool with a bounded queue: the backpressure
// stage of the request pipeline. Submission never blocks — a full queue
// fails fast with errOverloaded so the caller can shed load — and close
// drains everything already accepted before returning, which is what makes
// the server's graceful shutdown lossless.
type pool struct {
	tasks   chan func()
	workers int
	wg      sync.WaitGroup // worker goroutines

	mu     sync.RWMutex
	closed bool
}

// newPool starts `workers` goroutines servicing a queue of depth
// `queueDepth` (pending tasks beyond the ones being executed).
func newPool(workers, queueDepth int) *pool {
	if workers <= 0 {
		workers = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	p := &pool{tasks: make(chan func(), queueDepth), workers: workers}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *pool) worker() {
	defer p.wg.Done()
	for task := range p.tasks {
		runIsolated(task)
	}
}

// runIsolated executes task, swallowing any panic that escaped the task's
// own recovery so one poisoned request can never take a worker down. Tasks
// are expected to recover and report panics themselves (the server's solve
// wrapper does); this is the terminal backstop.
func runIsolated(task func()) {
	defer func() { _ = recover() }()
	task()
}

// submit enqueues task for execution. It fails fast with errOverloaded when
// the queue is full and errPoolClosed after close.
func (p *pool) submit(task func()) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return errPoolClosed
	}
	select {
	case p.tasks <- task:
		return nil
	default:
		return errOverloaded
	}
}

// submitWait enqueues task, waiting for queue space instead of shedding:
// the asynchronous surface's contract is to absorb the contention the
// sync path rejects. Holding the read lock across the blocked send is
// what makes this close-safe (close takes the write lock, so the channel
// cannot be closed mid-send); it cannot deadlock close because workers
// keep draining the queue until the channel is closed, and the server
// additionally orders close after the request waitgroup that tracks
// every submitWait caller.
func (p *pool) submitWait(ctx context.Context, task func()) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return errPoolClosed
	}
	select {
	case p.tasks <- task:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// close stops intake and blocks until every accepted task has finished.
// Safe to call more than once.
func (p *pool) close() {
	p.mu.Lock()
	alreadyClosed := p.closed
	p.closed = true
	p.mu.Unlock()
	if !alreadyClosed {
		close(p.tasks)
	}
	p.wg.Wait()
}
