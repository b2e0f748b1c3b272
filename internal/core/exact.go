package core

import (
	"context"
	"errors"

	"repro/internal/constraint"
	"repro/internal/cover"
	"repro/internal/dichotomy"
	"repro/internal/hypercube"
	"repro/internal/par"
	"repro/internal/prime"
	"repro/internal/sat"
	"repro/internal/trace"
)

// ErrInfeasible is returned by the exact encoder when the constraints admit
// no encoding.
var ErrInfeasible = errors.New("core: constraints are infeasible")

// ExactOptions tunes the exact encoder.
type ExactOptions struct {
	// Parallelism is the pipeline-wide Workers/TimeLimit default: it
	// flows into every stage (prime generation, covering solve) that did
	// not set its own. Every stage returns identical results for any
	// worker count whenever its search completes; a covering search that
	// a node or time budget cut short (Optimal=false) may return a
	// different incumbent. TimeLimit bounds each stage's wall clock
	// individually.
	par.Parallelism
	// Prime configures maximal-compatible generation (engine, limit).
	Prime prime.Options
	// Cover configures the final unate covering solve; its TimeLimit also
	// bounds the binate solve of distance-2/non-face sets.
	Cover cover.Options
	// Exhaustive, when true, bypasses prime generation and enumerates
	// every valid total encoding column (2^n - 2 candidates); only
	// feasible for small symbol counts but globally optimal by
	// construction. Used as ground truth in tests.
	Exhaustive bool
	// Backend selects the unate covering engine: branch-and-bound
	// (default) or the CNF/SAT backend. Both prove the same optima; see
	// Backend.
	Backend Backend
}

// stageOptions resolves the per-stage parallelism configs: the
// pipeline-wide ExactOptions.Parallelism flows into stages that did not set
// their own fields.
func (o ExactOptions) stageOptions() (prime.Options, cover.Options) {
	p, c := o.Prime, o.Cover
	p.Parallelism = p.Parallelism.FillFrom(o.Parallelism)
	c.Parallelism = c.Parallelism.FillFrom(o.Parallelism)
	return p, c
}

// ExactResult is the output of ExactEncode.
type ExactResult struct {
	Encoding *Encoding
	// Seeds, Raised and Primes expose the pipeline stages (Figure 7).
	Seeds  []dichotomy.D
	Raised []dichotomy.D
	Primes []dichotomy.D
	// SelectedColumns are the covering columns chosen (already completed
	// into total columns).
	SelectedColumns []dichotomy.D
	// Optimal is true when the covering solver proved minimality over the
	// candidate column pool.
	Optimal bool
	// Trace is the stage-span report of this solve when the caller's
	// context carried a trace recorder (internal/trace); empty otherwise.
	Trace trace.Trace
}

// ExactEncodeCtx solves P-2: it finds codes of minimum length satisfying all
// input and output constraints (Figure 7), or returns ErrInfeasible. It is
// the one exact entry point for every constraint class.
//
// Pipeline: generate initial encoding-dichotomies; delete invalid ones;
// maximally raise the rest, deleting any that become invalid; check
// coverage (Theorem 6.1); generate prime encoding-dichotomies from the
// raised set; re-raise and validity-filter the primes; exactly cover the
// initial dichotomies with the valid primes; derive the codes from the
// chosen columns.
//
// In addition to the paper's pipeline the candidate pool always includes
// the raised dichotomies themselves: primes are unions of compatible raised
// dichotomies and a union can be invalidated by constraint interaction even
// when each piece is individually realizable, so retaining the pieces
// guarantees a cover exists whenever CheckFeasible succeeds.
//
// The Section-8 extensions change only the covering step. Without them the
// covering is unate and opts.Backend picks its engine. Distance-2 and
// non-face constraints turn it binate (see coverExtended), which the CNF
// backend solves whatever the Backend. Chain constraints are not
// expressible as covering clauses at all (Section 8.4) and go to the direct
// search of SolveWithChains.
//
// The context is threaded into prime generation (cooperative cancellation
// of the exponential search), the covering solve (anytime: cancellation
// yields the incumbent with Optimal=false) and the chain search.
// Prime-generation cancellation aborts the pipeline with the wrapped
// context error (or prime.ErrTimeout on a missed deadline), chain-search
// cancellation with the context error.
func ExactEncodeCtx(ctx context.Context, cs *constraint.Set, opts ExactOptions) (*ExactResult, error) {
	if err := cs.Validate(); err != nil {
		return nil, err
	}
	if len(cs.Chains) > 0 {
		ctx, cancel := opts.Context(ctx) // TimeLimit bounds the search
		defer cancel()
		enc, err := SolveWithChains(ctx, cs, cs.N())
		if err != nil {
			return nil, err
		}
		return &ExactResult{Encoding: enc, Optimal: true}, nil
	}
	n := cs.N()
	if n == 0 {
		return &ExactResult{Encoding: NewEncoding(cs.Syms, 0, nil), Optimal: true}, nil
	}

	ssp := trace.StartSpan(ctx, "core.seeds")
	p1 := NewFeasibilityState(cs).Report()
	seeds, raised := p1.Seeds, p1.Raised
	ssp.Set("seeds", len(seeds)).Set("raised", len(raised)).End()
	if !p1.Feasible {
		return nil, newInfeasibleError(ctx, cs, p1.Uncovered)
	}

	primeOpts, coverOpts := opts.stageOptions()
	// Optimal means minimal over the candidate pool. For plain P-2 that
	// pool is the re-raised primes plus the raised seeds, and it is not
	// complete: ValidRaised drops the primes whose re-raised union is
	// invalid, and a dropped prime can hide a shorter code — a valid
	// column inside it that no surviving candidate dominates (ROADMAP's
	// first open item, "Complete the candidate pool"). Once
	// distance-2/non-face clauses restrict which columns may be selected
	// together, a minimum-length solution may also need valid columns that
	// are not primes. Small universes then use the complete column pool;
	// larger ones keep the primes and claim no optimality.
	hasExt := len(cs.Distance2s) > 0 || len(cs.NonFaces) > 0
	poolComplete := opts.Exhaustive || (hasExt && n <= extendedExhaustiveLimit)
	var candidates []dichotomy.D
	var err error
	if poolComplete {
		candidates = enumerateValidColumns(cs)
	} else {
		candidates, err = prime.GenerateCtx(ctx, raised, primeOpts)
		if err != nil {
			return nil, err
		}
		// Re-raise each prime: unions of raised dichotomies may imply new
		// placements; primes that contradict are discarded. Retain the
		// raised seeds themselves as fallback columns.
		candidates = dichotomy.ValidRaised(candidates, cs)
		candidates = dichotomy.Distinct(append(candidates, raised...))
	}

	var cols []dichotomy.D
	var optimal bool
	if hasExt {
		cols, optimal, err = coverExtended(ctx, cs, seeds, candidates, coverOpts.TimeLimit)
		if err != nil {
			return nil, err
		}
		optimal = optimal && poolComplete
	} else {
		if coverOpts.LowerBound == 0 {
			// No encoding can use fewer than ceil(log2 n) columns:
			// uniqueness rows force pairwise-distinct codes. Lets the
			// search stop early.
			coverOpts.LowerBound = hypercube.MinBits(n)
		}
		sol, err := coverSeeds(ctx, seeds, candidates, coverOpts, opts.Backend)
		if err != nil {
			if errors.Is(err, cover.ErrInfeasible) {
				return nil, newInfeasibleError(ctx, cs, nil)
			}
			return nil, err
		}
		cols = make([]dichotomy.D, 0, len(sol.Cols))
		for _, c := range sol.Cols {
			cols = append(cols, candidates[c])
		}
		optimal = sol.Optimal
	}

	res := &ExactResult{
		Encoding:        FromColumns(cs.Syms, cols),
		Seeds:           seeds,
		Raised:          raised,
		Primes:          candidates,
		SelectedColumns: cols,
		Optimal:         optimal,
	}
	if rec := trace.FromContext(ctx); rec != nil {
		res.Trace = rec.Snapshot()
	}
	return res, nil
}

// coverSeeds builds and solves the unate covering of the canonical seed
// rows by the candidate columns. The incidence matrix comes from
// dichotomy.Coverage. The backend selects the engine: branch-and-bound
// over the matrix, or the CNF compilation of its reduced core with a
// k-search over cover cost (internal/sat).
func coverSeeds(ctx context.Context, seeds, candidates []dichotomy.D, opts cover.Options, backend Backend) (cover.Solution, error) {
	msp := trace.StartSpan(ctx, "core.matrix")
	rows := dichotomy.Rows(seeds)
	p := cover.Problem{NumCols: len(candidates), RowCols: dichotomy.Coverage(rows, candidates)}
	msp.Set("rows", len(rows)).Set("candidates", len(candidates)).End()
	if backend == BackendSAT {
		return sat.SolveCoverCtx(ctx, &p, sat.CoverOptions{
			LowerBound: opts.LowerBound,
			TimeLimit:  opts.TimeLimit,
		})
	}
	return p.SolveExactCtx(ctx, opts)
}

// enumerateValidColumns returns every total encoding column over n symbols
// that satisfies the output constraints, excluding the all-0 and all-1
// columns which carry no information (Section 4).
func enumerateValidColumns(cs *constraint.Set) []dichotomy.D {
	n := cs.N()
	if n > 22 {
		panic("core: exhaustive enumeration limited to 22 symbols")
	}
	var out []dichotomy.D
	for pat := uint64(1); pat < (uint64(1)<<uint(n))-1; pat++ {
		var d dichotomy.D
		for s := 0; s < n; s++ {
			if pat&(1<<uint(s)) != 0 {
				d.R.Add(s)
			} else {
				d.L.Add(s)
			}
		}
		if dichotomy.Valid(d, cs) {
			out = append(out, d)
		}
	}
	return out
}
