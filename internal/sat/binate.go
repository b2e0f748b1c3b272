package sat

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/trace"
)

// BinateProblem asks for a minimum-cost assignment of column variables such
// that every clause holds: a clause is satisfied when some positive literal
// is assigned true or some negative literal is assigned false (Section 4).
// Column c is variable c, so clauses are written with Pos(c) and Neg(c).
type BinateProblem struct {
	NumCols int
	// Cost per column charged when the column is selected (assigned
	// true); nil means unit costs.
	Cost []int
	// Clauses in product-of-sums form over the column variables.
	Clauses [][]Lit
}

// BinateSolution is the result of a binate solve.
type BinateSolution struct {
	// Selected lists columns assigned true, ascending.
	Selected []int
	Cost     int
	Optimal  bool
}

// ErrBinateInfeasible is returned when no assignment satisfies all clauses.
var ErrBinateInfeasible = errors.New("sat: binate problem infeasible")

// SolveBinateCtx solves a binate covering problem through the CNF backend.
// The clause matrix is already product-of-sums, so the lowering is direct;
// minimization first decides feasibility without a cardinality layer
// (UNSAT there is ErrBinateInfeasible), then walks k from LowerBound up to
// the first model's cost. Zero-cost columns (the encoder's non-face
// auxiliaries) contribute no literals to the cardinality layer.
//
// The solve is anytime like SolveCoverCtx: once a model exists, budget or
// context exhaustion returns the best one with Optimal=false; before that
// it returns the context error, or ErrBudget when the conflict budget ran
// out. A "sat.binate" trace span records the column and clause counts, the
// number of cardinality-bounded SAT calls (k_steps), the conflicts of every
// SAT call, the feasibility solve's included, and the verdict.
func SolveBinateCtx(ctx context.Context, p *BinateProblem, opts CoverOptions) (BinateSolution, error) {
	ctx, cancel := opts.contextFor(ctx)
	defer cancel()
	sp := trace.StartSpan(ctx, "sat.binate")
	var search kSearch
	sol, err := solveBinate(ctx, p, opts, &search)
	sp.Set("cols", p.NumCols).Set("clauses", len(p.Clauses)).
		Set("k_steps", search.steps).Set64("conflicts", search.conflicts).
		SetBool("optimal", sol.Optimal).SetBool("failed", err != nil)
	sp.End()
	return sol, err
}

// solveBinate is SolveBinateCtx's search; search counts its work.
func solveBinate(ctx context.Context, p *BinateProblem, opts CoverOptions, search *kSearch) (BinateSolution, error) {
	// Feasibility first: any model bounds the search from above.
	res := search.solve(ctx, clauseCNF(p.NumCols, p.Clauses))
	switch res.Status {
	case Unsat:
		return BinateSolution{}, ErrBinateInfeasible
	case Unknown:
		if err := ctx.Err(); err != nil {
			return BinateSolution{}, err
		}
		return BinateSolution{}, fmt.Errorf("sat: binate feasibility undecided: %w", ErrBudget)
	}
	weight := costFunc(p.Cost)
	selected := modelCols(res.Model, p.NumCols)
	incumbent := BinateSolution{Selected: selected, Cost: costOf(selected, weight)}
	res = search.minimize(ctx, p.NumCols, p.Clauses, weightedLits(p.NumCols, weight), opts.LowerBound, incumbent.Cost)
	switch res.Status {
	case Sat:
		sel := modelCols(res.Model, p.NumCols)
		return BinateSolution{Selected: sel, Cost: costOf(sel, weight), Optimal: true}, nil
	case Unsat:
		incumbent.Optimal = true
	}
	return incumbent, nil
}
