package sat

import (
	"context"
	"errors"
	"time"

	"repro/internal/cover"
)

// ErrBudget is returned when the solver budget (conflicts or context) ran
// out before even feasibility was decided, so there is no incumbent to
// fall back on. The differential harness classifies it as a skip, like a
// branch-and-bound deadline.
var ErrBudget = errors.New("sat: solver budget exhausted")

// CoverOptions tunes the SAT-backed covering solves.
type CoverOptions struct {
	// LowerBound is a proven lower bound on the optimal cost (for the
	// encoder: ceil(log2 n) from the uniqueness rows); the k-search
	// starts there.
	LowerBound int
	// MaxConflicts bounds each individual SAT call; 0 means
	// DefaultMaxConflicts. Exhaustion degrades the answer to the
	// incumbent with Optimal=false, mirroring branch-and-bound's anytime
	// contract.
	MaxConflicts int64
	// TimeLimit bounds the whole k-search wall clock; 0 means none.
	TimeLimit time.Duration
	// Solver overrides the embedded DPLL solver (e.g. an external DIMACS
	// solver adapter). It must be deterministic.
	Solver Solver
}

func (o CoverOptions) solver() Solver {
	if o.Solver != nil {
		return o.Solver
	}
	return &DPLL{MaxConflicts: o.MaxConflicts}
}

func (o CoverOptions) contextFor(ctx context.Context) (context.Context, context.CancelFunc) {
	if o.TimeLimit > 0 {
		return context.WithTimeout(ctx, o.TimeLimit)
	}
	return context.WithCancel(ctx)
}

// SolveCoverCtx solves a unate covering problem through the CNF backend:
// one selection variable per column, one positive clause per row, and a
// linear search over the cover cardinality k from the lower bound up to a
// greedy upper bound. The first satisfiable k is the proven minimum (the
// cardinality layer is complete, so a smaller cover would have satisfied
// an earlier step); if every k below the greedy cost is unsatisfiable the
// greedy cover itself is proven optimal. Weighted columns are supported by
// counting a column's literal Cost-many times.
//
// The contract matches Problem.SolveExactCtx: ErrInfeasible when a row has
// no covering column, and anytime semantics — on budget or context
// exhaustion the best cover found so far is returned with Optimal=false.
func SolveCoverCtx(ctx context.Context, p *cover.Problem, opts CoverOptions) (cover.Solution, error) {
	ctx, cancel := opts.contextFor(ctx)
	defer cancel()
	if len(p.RowCols) == 0 {
		return cover.Solution{Optimal: true}, nil
	}
	greedy, err := p.SolveGreedy()
	if err != nil {
		return cover.Solution{}, err
	}
	incumbent := cover.Solution{Cols: greedy.Cols, Cost: greedy.Cost, Optimal: false}
	ub := greedy.Cost
	lb := opts.LowerBound
	if lb < 0 {
		lb = 0
	}
	if ub <= lb {
		incumbent.Optimal = true
		return incumbent, nil
	}

	weight := func(c int) int {
		if p.Cost == nil {
			return 1
		}
		return p.Cost[c]
	}
	base := func() *CNF {
		f := NewCNF(p.NumCols)
		for _, row := range p.RowCols {
			lits := make([]Lit, len(row))
			for i, c := range row {
				lits[i] = Pos(c)
			}
			f.AddClause(lits...)
		}
		return f
	}
	solver := opts.solver()
	for k := lb; k < ub; k++ {
		if ctx.Err() != nil {
			return incumbent, nil
		}
		f := base()
		f.AddAtMostK(weightedLits(p.NumCols, weight), k)
		res := solver.Solve(ctx, Simplify(f))
		switch res.Status {
		case Sat:
			cols := modelCols(res.Model, p.NumCols)
			return cover.Solution{Cols: cols, Cost: costOf(cols, weight), Optimal: true}, nil
		case Unsat:
			continue
		default: // budget or cancellation: fall back to the incumbent
			return incumbent, nil
		}
	}
	// Every cost below the greedy cover is unsatisfiable: greedy is optimal.
	incumbent.Optimal = true
	return incumbent, nil
}

// weightedLits returns the cardinality-layer literals: column c appears
// weight(c) times, so "at most k literals true" means "total cost ≤ k".
func weightedLits(numCols int, weight func(int) int) []Lit {
	var lits []Lit
	for c := 0; c < numCols; c++ {
		for w := weight(c); w > 0; w-- {
			lits = append(lits, Pos(c))
		}
	}
	return lits
}

// modelCols extracts the true column variables of a model, ascending.
func modelCols(model []bool, numCols int) []int {
	var cols []int
	for c := 0; c < numCols; c++ {
		if model[c] {
			cols = append(cols, c)
		}
	}
	return cols
}

func costOf(cols []int, weight func(int) int) int {
	total := 0
	for _, c := range cols {
		total += weight(c)
	}
	return total
}
