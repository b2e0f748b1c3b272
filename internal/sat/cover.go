package sat

import (
	"context"
	"errors"
	"time"

	"repro/internal/cover"
	"repro/internal/trace"
)

// ErrBudget is returned when the solver budget (conflicts or context) ran
// out before even feasibility was decided, so there is no incumbent to
// fall back on. The differential harness classifies it as a skip, like a
// branch-and-bound deadline.
var ErrBudget = errors.New("sat: solver budget exhausted")

// CoverOptions tunes the SAT-backed covering solves. Each SAT call runs
// the embedded DPLL solver under DefaultMaxConflicts; exhausting it
// degrades the answer to the incumbent with Optimal=false, mirroring
// branch-and-bound's anytime contract.
type CoverOptions struct {
	// LowerBound is a proven lower bound on the optimal cost (for the
	// encoder: ceil(log2 n) from the uniqueness rows); the k-search
	// starts there.
	LowerBound int
	// TimeLimit bounds the whole k-search wall clock; 0 means none.
	TimeLimit time.Duration
}

func (o CoverOptions) contextFor(ctx context.Context) (context.Context, context.CancelFunc) {
	if o.TimeLimit > 0 {
		return context.WithTimeout(ctx, o.TimeLimit)
	}
	return context.WithCancel(ctx)
}

// SolveCoverCtx solves a unate covering problem through the CNF backend.
// It lowers the cyclic core, not the raw matrix: cover.Problem.Reduce runs
// the branch-and-bound's root reductions (duplicate and empty columns,
// essential columns, row and column dominance), and the core gets one
// selection variable per column and one positive clause per row. A linear
// search over the core's cover cost k then runs from the lower bound less
// the essentials' cost up to the greedy incumbent's cost less the same.
// The first satisfiable k is the proven minimum (the cardinality layer is
// complete, so a smaller cover would have satisfied an earlier step); if
// every k below is unsatisfiable the incumbent itself is proven optimal,
// and a core the reductions emptied is proven that way with no SAT call.
// Weighted columns are supported by counting a column's literal Cost-many
// times.
//
// The contract matches Problem.SolveExactCtx: ErrInfeasible when a row has
// no covering column, and anytime semantics — on budget or context
// exhaustion the best cover found so far is returned with Optimal=false.
// The context is polled before every step and before any claim of
// optimality, so a canceled solve never reports Optimal=true. A "sat.cover"
// trace span records the problem and core sizes, the essential columns, the
// SAT calls made (k_steps), their conflicts and the verdict.
func SolveCoverCtx(ctx context.Context, p *cover.Problem, opts CoverOptions) (cover.Solution, error) {
	ctx, cancel := opts.contextFor(ctx)
	defer cancel()
	sp := trace.StartSpan(ctx, "sat.cover")
	sol, st, err := solveCover(ctx, p, opts)
	sp.Set("rows", len(p.RowCols)).Set("cols", p.NumCols).
		Set("core_rows", st.coreRows).Set("core_cols", st.coreCols).Set("essentials", st.essentials).
		Set("k_steps", st.search.steps).Set64("conflicts", st.search.conflicts).
		SetBool("optimal", sol.Optimal).SetBool("failed", err != nil)
	sp.End()
	return sol, err
}

// coverStats is the work of one SolveCoverCtx call, for its trace span.
type coverStats struct {
	coreRows, coreCols, essentials int
	search                         kSearch
}

// solveCover is SolveCoverCtx's search on the reduced core.
func solveCover(ctx context.Context, p *cover.Problem, opts CoverOptions) (cover.Solution, coverStats, error) {
	var st coverStats
	red, err := p.Reduce()
	if err != nil {
		return cover.Solution{}, st, err
	}
	core := red.Core
	st.coreRows, st.coreCols, st.essentials = len(core.RowCols), core.NumCols, len(red.Essential)
	// The incumbent is the cheaper of two greedy covers, the essentials
	// plus greedy on the core and greedy on the whole matrix: neither
	// dominates, and every instance one of them proves at the lower bound
	// skips the SAT call.
	greedy, err := core.SolveGreedy()
	if err != nil {
		return cover.Solution{}, st, err
	}
	essCost := costOf(red.Essential, costFunc(p.Cost))
	incumbent := cover.Solution{Cols: red.Lift(greedy.Cols), Cost: essCost + greedy.Cost}
	if whole, err := p.SolveGreedy(); err == nil && whole.Cost < incumbent.Cost {
		incumbent = whole
	}

	weight := costFunc(core.Cost)
	rows := make([][]Lit, len(core.RowCols))
	for r, row := range core.RowCols {
		rows[r] = make([]Lit, len(row))
		for i, c := range row {
			rows[r][i] = Pos(c)
		}
	}
	res := st.search.minimize(ctx, core.NumCols, rows, weightedLits(core.NumCols, weight),
		opts.LowerBound-essCost, incumbent.Cost-essCost)
	switch res.Status {
	case Sat:
		sel := modelCols(res.Model, core.NumCols)
		return cover.Solution{Cols: red.Lift(sel), Cost: essCost + costOf(sel, weight), Optimal: true}, st, nil
	case Unsat:
		incumbent.Optimal = true
	}
	return incumbent, st, nil
}

// kSearch is the minimality search both solves share, with its work
// counters for their trace spans.
type kSearch struct {
	solver    DPLL
	steps     int   // SAT calls under a cardinality bound
	conflicts int64 // over every call, bounded or not
}

// solve decides f and counts its conflicts.
func (s *kSearch) solve(ctx context.Context, f *CNF) Result {
	res := s.solver.Solve(ctx, f)
	s.conflicts += res.Conflicts
	return res
}

// minimize asks, for each k from max(lb, 0) up to ub-1, whether the
// clauses over numVars column variables have a model with at most k of
// lits true, and returns the first model: the at-most-k layer is complete,
// so a cheaper model would have satisfied an earlier step, and the model
// is proven minimal. Status Unsat means every k below ub is
// unsatisfiable, which proves a caller's incumbent of cost ub optimal;
// Unknown means the conflict budget or the context ran out. The context is
// polled before every step and before that proof, so a canceled search
// never returns Unsat.
func (s *kSearch) minimize(ctx context.Context, numVars int, clauses [][]Lit, lits []Lit, lb, ub int) Result {
	for k := max(lb, 0); ; k++ {
		if ctx.Err() != nil {
			return Result{Status: Unknown}
		}
		if k >= ub {
			return Result{Status: Unsat}
		}
		f := clauseCNF(numVars, clauses)
		f.AddAtMostK(lits, k)
		s.steps++
		if res := s.solve(ctx, f); res.Status != Unsat {
			return res
		}
	}
}

// clauseCNF returns the formula of clauses over numVars variables.
func clauseCNF(numVars int, clauses [][]Lit) *CNF {
	f := NewCNF(numVars)
	for _, cl := range clauses {
		f.AddClause(cl...)
	}
	return f
}

// costFunc returns the column weight function of a cost vector; nil means
// unit costs.
func costFunc(cost []int) func(int) int {
	if cost == nil {
		return func(int) int { return 1 }
	}
	return func(c int) int { return cost[c] }
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
