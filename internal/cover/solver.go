// Reusable exact-solver state. The one-shot Problem.SolveExactCtx entry
// point builds a Solver per call; callers with a solve-in-a-loop shape (the
// encoding pipeline's column-generation loops, the kernel benchmarks) build
// one Solver and amortize every structure below across solves.

package cover

import (
	"context"
	"sort"

	"repro/internal/bitset"
	"repro/internal/trace"
)

// Solver is a reusable exact branch-and-bound solver bound to one Problem.
// Construction performs all the per-problem work — incidence bitsets, the
// root column dedupe, the search arena and every working buffer — so a
// steady-state Solve allocates nothing: repeated solves of the same problem
// run entirely out of memory owned by the Solver.
//
// The bound Problem must not be mutated while the Solver is alive. A Solver
// is not safe for concurrent use (build one per goroutine; the underlying
// Problem may be shared). Solutions returned by Solve alias a buffer owned
// by the Solver and are valid only until the next Solve call — callers that
// retain a Solution across solves must copy Cols.
type Solver struct {
	p    *Problem
	opts Options
	m    *matrix

	// Root active sets, fixed at construction: all rows, and the columns
	// surviving the duplicate/empty-column dedupe.
	rootRows, rootCols bitset.Set

	// Per-solve working state, reused across solves.
	rows, cols bitset.Set // active sets, overwritten from the root sets
	sc         *scratch   // sequential walker scratch (arena, order buffers)
	ub         ubScratch  // greedy upper-bound harness + incumbent
	seq        solver     // sequential searchCtl, reset per solve
	selBuf     []int      // branch()'s root selection buffer
	out        []int      // Solution.Cols buffer, valid until the next Solve
}

// NewSolver validates p and builds a Solver with the given options bound
// in. It returns ErrInfeasible when some row has no covering column, or an
// error when a row references a column out of range or Cost is not one
// non-negative cost per column.
func NewSolver(p *Problem, opts Options) (*Solver, error) {
	m, err := newMatrix(p)
	if err != nil {
		return nil, err
	}
	nRows := len(p.RowCols)
	sv := &Solver{p: p, opts: opts, m: m}
	sv.rootRows = fullSet(nRows)
	sv.rootCols = fullSet(p.NumCols)
	// Root simplification: drop duplicate columns (same row coverage) and
	// empty columns once, before any solve. The dedupe depends only on the
	// problem, so hoisting it out of the solve loop cannot change results.
	m.dedupeColumns(sv.rootRows, sv.rootCols)

	sv.rows = bitset.New(nRows)
	sv.cols = bitset.New(p.NumCols)
	sv.sc = newScratch(m)
	// Pre-size the selection buffer to the column count so the append
	// chains down the search tree never reallocate.
	sv.selBuf = make([]int, 0, p.NumCols)
	return sv, nil
}

// Solve runs the exact solve under context.Background(). See SolveCtx.
func (sv *Solver) Solve() (Solution, error) {
	return sv.SolveCtx(context.Background())
}

// SolveCtx runs one exact solve, reusing every buffer the Solver owns. It
// has exactly the semantics of Problem.SolveExactCtx — anytime behavior
// under cancellation, identical solutions — except that the returned
// Solution's Cols slice is owned by the Solver and valid only until the
// next Solve.
func (sv *Solver) SolveCtx(ctx context.Context) (Solution, error) {
	ctx, cancel := sv.opts.Context(ctx)
	defer cancel()
	sp := trace.StartSpan(ctx, "cover.solve")
	sol, st, err := sv.solve(ctx)
	endSpan(sp, sv.p, sol, st, err)
	return sol, err
}

// searchStats are one solve's work counters for the cover.solve span.
type searchStats struct {
	nodes       int // branch-and-bound nodes entered
	entryPruned int // of those, nodes the entry test pruned
}

// endSpan annotates and ends a cover.solve span; sp may be nil.
func endSpan(sp *trace.Span, p *Problem, sol Solution, st searchStats, err error) {
	if sp == nil {
		return
	}
	sp.Set("rows", len(p.RowCols)).Set("cols", p.NumCols).Set("nodes", st.nodes).
		Set("entry_pruned", st.entryPruned).SetBool("optimal", sol.Optimal).Set("cost", sol.Cost).
		SetBool("failed", err != nil)
	sp.End()
}

// solve is the solve body shared by SolveCtx and Problem.SolveExactCtx (which
// applies the TimeLimit context and trace span itself), returning the search
// counters alongside the solution for the trace span.
func (sv *Solver) solve(ctx context.Context) (Solution, searchStats, error) {
	m := sv.m
	sv.rows.CopyFrom(sv.rootRows)
	sv.cols.CopyFrom(sv.rootCols)
	sv.sc.entryPruned = 0

	// Upper bound: several diversified greedy runs plus a
	// multiplicative-weights greedy loop, each cover cleaned by redundancy
	// elimination; the incumbent drives branch-and-bound pruning.
	ub := &sv.ub
	ub.cost, ub.found = -1, false
	for variant := 0; variant < 8; variant++ {
		g, ok := m.greedyVariant(ub, sv.rows, sv.cols, variant)
		if !ok {
			if variant == 0 {
				return Solution{}, searchStats{}, ErrInfeasible
			}
			continue
		}
		m.consider(ub, sv.rows, g)
	}
	m.weightedGreedy(ub, sv.rows, sv.cols, 24)

	s := &sv.seq
	bestSel := append(s.bestSel[:0], ub.sel...)
	*s = solver{
		m:        m,
		ctx:      ctx,
		maxNodes: sv.opts.maxNodes(),
		lb:       sv.opts.LowerBound,
		bestCost: ub.cost,
		bestSel:  bestSel,
		found:    ub.found,
	}
	if s.lb <= 0 || s.bestCost > s.lb {
		if w := sv.opts.WorkersFor(len(sv.p.RowCols)*sv.p.NumCols, parallelCutoffCells); w > 1 {
			s.solveParallel(sv.rows, sv.cols, w)
		} else {
			m.branch(s, sv.sc, sv.rows, sv.cols, sv.selBuf[:0], 0, true)
			s.entryPruned = sv.sc.entryPruned
		}
	}

	st := searchStats{nodes: s.nodes, entryPruned: s.entryPruned}
	if !s.found {
		return Solution{}, st, ErrInfeasible
	}
	sv.out = append(sv.out[:0], s.bestSel...)
	sort.Ints(sv.out)
	return Solution{Cols: sv.out, Cost: s.bestCost, Optimal: !s.budget}, st, nil
}
