// Package prime generates prime encoding-dichotomies: maximal compatibles of
// a list of seed encoding-dichotomies (Section 5.1 of the paper).
//
// Two engines are provided. Engine CSPS is a faithful implementation of the
// paper's Figure 2: pairwise incompatibilities form a 2-CNF
// product-of-sums; the cs/ps recursion with single-cube containment converts
// it to the irredundant sum-of-products whose terms are the minimal vertex
// covers, and the complement of each term is a maximal compatible. Engine
// BronKerbosch enumerates maximal cliques of the compatibility graph
// directly; it produces the identical set of primes and scales to the large
// benchmark instances. Both engines honor a configurable prime-count limit,
// mirroring the paper's 50 000-prime abort on planet and vmecont.
//
// # Cancellation
//
// Generation is bounded cooperatively through context.Context: GenerateCtx
// and GenerateSetsCtx poll ctx between recursion steps, so deadlines and
// explicit cancellation abort the exponential search promptly. The
// context-free entry points wrap context.Background() and derive a deadline
// from Options.TimeLimit, preserving the original API. ErrTimeout wraps
// context.DeadlineExceeded, so errors.Is(err, context.DeadlineExceeded)
// works on either path.
//
// # Parallelism
//
// With Options.Workers > 1 the Bron–Kerbosch engine fans the search tree
// out over a worker pool: the leftmost branches are peeled off sequentially
// into an ordered task list and the tasks are then consumed by the pool,
// with the prime-count limit enforced through one shared atomic counter so
// ErrLimit fires under exactly the same condition as the sequential engine.
// The parallel engine returns the primes in the identical order as the
// sequential one, so results are byte-for-byte reproducible regardless of
// worker count.
package prime

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/dichotomy"
	"repro/internal/par"
	"repro/internal/trace"
)

// Engine selects the maximal-compatible generation algorithm.
type Engine int

const (
	// BronKerbosch enumerates maximal cliques of the compatibility graph
	// with pivoting. Default engine; the only one that parallelizes.
	BronKerbosch Engine = iota
	// CSPS is the paper's Figure-2 cs/ps recursion over the 2-CNF of
	// pairwise incompatibilities.
	CSPS
)

// ErrLimit is returned when more maximal compatibles exist than the
// configured limit.
var ErrLimit = errors.New("prime: maximal compatible limit exceeded")

// ErrTimeout is returned when generation exceeds the configured time
// budget; like ErrLimit it marks an instance as too large, matching the
// paper's starred Table-1 entries. It wraps context.DeadlineExceeded, so
// errors.Is(err, context.DeadlineExceeded) also reports true.
var ErrTimeout = fmt.Errorf("prime: generation time limit exceeded: %w", context.DeadlineExceeded)

// Options configures prime generation.
type Options struct {
	// Parallelism supplies the Workers/TimeLimit pair shared by all
	// solver stages. Workers drives the BronKerbosch engine only (CSPS is
	// inherently sequential and ignores it); TimeLimit bounds generation
	// wall-clock time, applied as a context deadline layered under
	// whatever deadline the caller's context already carries.
	par.Parallelism
	// Limit bounds the number of maximal compatibles generated; 0 means
	// DefaultLimit.
	Limit int
	// Engine selects the algorithm; default BronKerbosch.
	Engine Engine
}

// DefaultLimit matches the paper's experimental cut-off.
const DefaultLimit = 50000

func (o Options) limit() int {
	if o.Limit <= 0 {
		return DefaultLimit
	}
	return o.Limit
}

// ParallelCutoffSeeds is the seed count below which the Bron–Kerbosch
// engine and the compatibility pair sweep run sequentially regardless of
// Options.Workers. The parallel engine's fixed cost — peeling the search
// frontier, one scratch arena and result slab per worker, goroutine
// spawn/join — was measured at the same order as the whole sequential solve
// of the 48-seed kernel benchmark instance (~0.25 ms), where the snapshot
// recorded the parallel engine *slower* than sequential; below this cutoff
// fan-out cannot pay for itself on any machine.
const ParallelCutoffSeeds = 64

// parallelCutoffSeeds is the live gate value; tests lower it to force the
// parallel engine onto small instances.
var parallelCutoffSeeds = ParallelCutoffSeeds

// workersFor applies the adaptive sequential-fallback threshold for a
// problem of n seeds.
func (o Options) workersFor(n int) int {
	return o.WorkersFor(n, parallelCutoffSeeds)
}

// GenerateCtx returns the prime encoding-dichotomies of seeds: the unions
// of every maximal compatible subset. The seed order determines the output
// order deterministically. Generation stops with ErrTimeout when the
// context deadline expires and with the context's error when it is
// canceled.
func GenerateCtx(ctx context.Context, seeds []dichotomy.D, opts Options) ([]dichotomy.D, error) {
	sets, err := GenerateSetsCtx(ctx, seeds, opts)
	if err != nil {
		return nil, err
	}
	primes := make([]dichotomy.D, 0, len(sets))
	for _, s := range sets {
		primes = append(primes, unionOf(seeds, s))
	}
	return primes, nil
}

// GenerateSetsCtx returns the maximal compatibles themselves, each as a
// set of seed indices; see GenerateCtx for the cancellation contract.
//
// When the context carries a trace recorder (internal/trace), generation
// records one "prime.generate" span with seed/prime counts, the recursion
// nodes the engine entered (Bron–Kerbosch calls, the same for every worker
// count; cs steps for CSPS) and the worker count it ran with; with no
// recorder the instrumentation is a zero-allocation no-op.
func GenerateSetsCtx(ctx context.Context, seeds []dichotomy.D, opts Options) ([]bitset.Set, error) {
	ctx, cancel := opts.Context(ctx)
	defer cancel()
	sp := trace.StartSpan(ctx, "prime.generate")
	var sets []bitset.Set
	var nodes int
	var err error
	workers := 1
	switch opts.Engine {
	case CSPS:
		sets, nodes, err = csps(ctx, seeds, opts)
	case BronKerbosch:
		if workers = opts.workersFor(len(seeds)); workers > 1 {
			sets, nodes, err = bronKerboschParallel(ctx, seeds, opts)
		} else {
			sets, nodes, err = bronKerbosch(ctx, seeds, opts)
		}
	default:
		return nil, fmt.Errorf("prime: unknown engine %d", opts.Engine)
	}
	sp.Set("seeds", len(seeds)).Set("primes", len(sets)).Set("nodes", nodes).
		Set("workers", workers).SetBool("failed", err != nil)
	sp.End()
	return sets, err
}

// ctxErr translates a context failure into the package's error vocabulary:
// a missed deadline becomes ErrTimeout (the paper's "too large" marker),
// an explicit cancellation surfaces as a wrapped context.Canceled.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); errors.Is(err, context.DeadlineExceeded) {
		return ErrTimeout
	}
	return fmt.Errorf("prime: generation canceled: %w", context.Cause(ctx))
}

func unionOf(seeds []dichotomy.D, members bitset.Set) dichotomy.D {
	var u dichotomy.D
	members.ForEach(func(i int) bool {
		u.L.UnionWith(seeds[i].L)
		u.R.UnionWith(seeds[i].R)
		return true
	})
	return u
}

// compatibility builds the compatibility adjacency of the seeds:
// adj[i] holds j ≠ i iff seeds i and j are compatible (Definition 3.2).
// The quadratic pair sweep is spread over the worker pool; the result is
// independent of the worker count.
func compatibility(seeds []dichotomy.D, opts Options) []bitset.Set {
	n := len(seeds)
	workers := opts.workersFor(n)
	// upper[i] holds the compatible j > i; each row has a single writer, so
	// the first pass is embarrassingly parallel.
	upper := make([]bitset.Set, n)
	par.ForEach(n, workers, func(i int) {
		upper[i] = bitset.New(n)
		for j := i + 1; j < n; j++ {
			if seeds[i].Compatible(seeds[j]) {
				upper[i].Add(j)
			}
		}
	})
	// Symmetrize: adj[i] = upper[i] ∪ {j < i : i ∈ upper[j]}, in place.
	// This pass stays sequential: adj[i] shares upper[i]'s words, so a
	// parallel pass would write row i while other rows' readers load the
	// same words — a data race, though on bits those readers never test.
	adj := make([]bitset.Set, n)
	for i := range adj {
		adj[i] = upper[i]
		for j := 0; j < i; j++ {
			if upper[j].Has(i) {
				adj[i].Add(j)
			}
		}
	}
	return adj
}
