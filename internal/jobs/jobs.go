// Package jobs is the asynchronous job subsystem behind the service's
// POST /v1/jobs surface: MemStore, a bounded in-process store of solve jobs
// with an explicit lifecycle (queued → running → done/failed/cancelled),
// TTL-based retention of finished jobs, context-linked cancellation, and
// completion notification for long-poll and streaming clients.
//
// # Lifecycle
//
// Create registers a job in state Queued and derives a job context from the
// caller's parent context; the runner executes the solve under that context.
// Start transitions Queued → Running when the solve actually begins (a job
// answered from a result cache may finish without ever running). Finish
// records the terminal outcome: Done on success, Failed on error, and
// Cancelled when a Cancel preceded a context-cancellation error. Cancel is
// valid in any state: a queued job becomes Cancelled immediately, a running
// job has its context cancelled and becomes Cancelled when the runner
// observes the cancellation and calls Finish, and a terminal job is left
// untouched (cancellation is idempotent).
//
// Every terminal transition closes the job's notification channel, so Wait
// long-polls without spinning. Finished jobs are retained for the
// configured TTL and then evicted; Create at capacity evicts the
// submitting tenant's own oldest finished job first (the global oldest
// only when that tenant has none, so one tenant's flood cannot shorten
// another's retention), and fails with ErrStoreFull only when every
// retained job is still active.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// State is a job's lifecycle state.
type State string

// The job lifecycle: Queued → Running → one of the terminal states. A job
// may also move Queued → Done/Failed (answered without running, e.g. from a
// result cache) or Queued → Cancelled.
const (
	Queued    State = "queued"
	Running   State = "running"
	Done      State = "done"
	Failed    State = "failed"
	Cancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == Done || s == Failed || s == Cancelled
}

// ErrStoreFull is returned by Create when the store is at capacity and
// every retained job is still active (nothing finished can be evicted).
var ErrStoreFull = errors.New("jobs: store full")

// ErrNotFound is returned by Wait for an unknown (or already evicted) job.
var ErrNotFound = errors.New("jobs: job not found")

// Snapshot is an immutable view of one job, safe to hold across store
// mutations. Result and Err are only meaningful in terminal states.
type Snapshot struct {
	ID       string
	Tenant   string
	Kind     string
	State    State
	Created  time.Time
	Started  time.Time // zero until the job ran
	Finished time.Time // zero until terminal
	Result   any
	Err      error
}

// Config tunes a MemStore.
type Config struct {
	// TTL is how long finished jobs are retained for polling before
	// eviction; 0 means DefaultTTL, negative means evict eagerly on the
	// next sweep.
	TTL time.Duration
	// MaxJobs bounds retained jobs (active + finished); 0 means
	// DefaultMaxJobs.
	MaxJobs int
	// Now is the clock, injectable for deterministic retention tests;
	// nil means time.Now.
	Now func() time.Time
}

// Defaults for the zero Config.
const (
	DefaultTTL     = 10 * time.Minute
	DefaultMaxJobs = 1024
)

// job is the mutable record behind a Snapshot; all fields are guarded by
// the store mutex.
type job struct {
	snap        Snapshot
	cancel      context.CancelFunc
	cancelAsked bool          // Cancel was called before the job finished
	done        chan struct{} // closed on the terminal transition
	seq         uint64        // creation order, for List and eviction
}

// MemStore is the in-process job store. Safe for concurrent use.
type MemStore struct {
	cfg Config

	mu     sync.Mutex
	jobs   map[string]*job
	seq    uint64
	closed bool
}

// NewMemStore returns an empty store for cfg.
func NewMemStore(cfg Config) *MemStore {
	if cfg.TTL == 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = DefaultMaxJobs
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &MemStore{cfg: cfg, jobs: make(map[string]*job)}
}

// newID returns an unguessable job id: jobs are addressable by id alone, so
// in a multi-tenant deployment the id space must not be enumerable.
func newID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("jobs: reading random id: %v", err))
	}
	return "j-" + hex.EncodeToString(b[:])
}

// Create registers a new queued job owned by tenant and returns its
// snapshot plus the context the runner must execute under: cancelling the
// job cancels that context, and cancelling parent (server shutdown)
// cancels every job context derived from it. It sweeps expired jobs first.
func (s *MemStore) Create(parent context.Context, tenant, kind string) (Snapshot, context.Context, error) {
	now := s.cfg.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Snapshot{}, nil, errors.New("jobs: store closed")
	}
	s.sweepLocked(now)
	if len(s.jobs) >= s.cfg.MaxJobs && !s.evictOldestFinishedLocked(tenant) {
		return Snapshot{}, nil, ErrStoreFull
	}
	ctx, cancel := context.WithCancel(parent)
	s.seq++
	j := &job{
		snap: Snapshot{
			ID:      newID(),
			Tenant:  tenant,
			Kind:    kind,
			State:   Queued,
			Created: now,
		},
		cancel: cancel,
		done:   make(chan struct{}),
		seq:    s.seq,
	}
	s.jobs[j.snap.ID] = j
	return j.snap, ctx, nil
}

// Start transitions a queued job to Running; it reports false (and does
// nothing) when the job is unknown or not queued.
func (s *MemStore) Start(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || j.snap.State != Queued {
		return false
	}
	j.snap.State = Running
	j.snap.Started = s.cfg.Now()
	return true
}

// Finish records the job's terminal outcome from Queued or Running: Done
// when err is nil, Cancelled when Cancel was requested and err reflects
// the cancellation, Failed on any other error — so a solve that wins the
// race against its own cancellation still reports its (valid) result. It
// reports false when the job is unknown or already terminal.
func (s *MemStore) Finish(id string, result any, err error) (Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || j.snap.State.Terminal() {
		if ok {
			return j.snap, false
		}
		return Snapshot{}, false
	}
	switch {
	case err == nil:
		j.snap.State = Done
		j.snap.Result = result
	case j.cancelAsked && errors.Is(err, context.Canceled):
		j.snap.State = Cancelled
		j.snap.Err = err
	default:
		j.snap.State = Failed
		j.snap.Err = err
	}
	s.finalizeLocked(j)
	return j.snap, true
}

// Cancel requests cancellation: a queued job becomes Cancelled
// immediately, a running job has its context cancelled (the runner
// completes the transition via Finish), and a terminal job is untouched.
// The returned snapshot is the post-call state; the bool reports whether
// this call had any effect.
func (s *MemStore) Cancel(id string) (Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	switch j.snap.State {
	case Queued:
		// Never started: terminal immediately. The runner's later Start
		// and Finish calls see a terminal job and no-op.
		j.cancelAsked = true
		j.cancel()
		j.snap.State = Cancelled
		j.snap.Err = context.Canceled
		s.finalizeLocked(j)
		return j.snap, true
	case Running:
		// The solve observes the context cancellation and the runner
		// completes the transition through Finish.
		j.cancelAsked = true
		j.cancel()
		return j.snap, true
	default:
		return j.snap, false
	}
}

// finalizeLocked stamps the terminal time, releases the job's context
// resources and wakes every waiter.
func (s *MemStore) finalizeLocked(j *job) {
	j.snap.Finished = s.cfg.Now()
	j.cancel() // release the context's resources; terminal either way
	close(j.done)
}

// Get returns the job's current snapshot.
func (s *MemStore) Get(id string) (Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	return j.snap, true
}

// Wait blocks until the job reaches a terminal state or ctx is done,
// returning the job's snapshot at that moment. Waiting on an unknown job
// fails with ErrNotFound.
func (s *MemStore) Wait(ctx context.Context, id string) (Snapshot, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Snapshot{}, ErrNotFound
	}
	done := j.done
	s.mu.Unlock()
	select {
	case <-done:
	case <-ctx.Done():
	}
	// Report whatever state the job is in now; a long-poll that timed out
	// returns the still-active snapshot with a nil error (the caller
	// distinguishes by State).
	snap, ok := s.Get(id)
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	return snap, nil
}

// List returns the retained jobs for tenant (every tenant when tenant is
// ""), newest first.
func (s *MemStore) List(tenant string) []Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	js := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if tenant == "" || j.snap.Tenant == tenant {
			js = append(js, j)
		}
	}
	sort.Slice(js, func(a, b int) bool { return js[a].seq > js[b].seq })
	out := make([]Snapshot, len(js))
	for i, j := range js {
		out[i] = j.snap
	}
	return out
}

// Active counts non-terminal jobs for tenant ("" counts all).
func (s *MemStore) Active(tenant string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if !j.snap.State.Terminal() && (tenant == "" || j.snap.Tenant == tenant) {
			n++
		}
	}
	return n
}

// Len is the number of retained jobs, terminal included.
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// Sweep evicts finished jobs past their retention TTL and reports how many
// were removed.
func (s *MemStore) Sweep() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sweepLocked(s.cfg.Now())
}

func (s *MemStore) sweepLocked(now time.Time) int {
	evicted := 0
	for id, j := range s.jobs {
		if j.snap.State.Terminal() && now.Sub(j.snap.Finished) >= s.cfg.TTL {
			delete(s.jobs, id)
			evicted++
		}
	}
	return evicted
}

// evictOldestFinishedLocked frees one slot by dropping the submitting
// tenant's own longest-finished terminal job, falling back to the global
// oldest only when that tenant has none — so one tenant flooding the
// store reclaims its own retained results before it can shorten any
// other tenant's retention. It reports false when every job is still
// active.
func (s *MemStore) evictOldestFinishedLocked(tenant string) bool {
	var own, any string
	var ownSeq, anySeq uint64
	for id, j := range s.jobs {
		if !j.snap.State.Terminal() {
			continue
		}
		if any == "" || j.seq < anySeq {
			any, anySeq = id, j.seq
		}
		if j.snap.Tenant == tenant && (own == "" || j.seq < ownSeq) {
			own, ownSeq = id, j.seq
		}
	}
	victim := any
	if own != "" {
		victim = own
	}
	if victim == "" {
		return false
	}
	delete(s.jobs, victim)
	return true
}

// Close cancels every non-terminal job's context and releases the store.
// The store is unusable afterwards.
func (s *MemStore) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for _, j := range s.jobs {
		if !j.snap.State.Terminal() {
			j.cancelAsked = true
			j.cancel()
		}
	}
}
