package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/constraint"
	"repro/internal/dichotomy"
	"repro/internal/hypercube"
	"repro/internal/sat"
	"repro/internal/trace"
)

// extendedExhaustiveLimit is the largest universe for which a set with
// distance-2 or non-face constraints swaps the prime-dichotomy candidate
// pool for the complete set of valid columns (2^n - 2 of them before
// validity filtering). Beyond it the restricted pool is kept and the result
// no longer claims optimality.
const extendedExhaustiveLimit = 10

// coverExtended is the covering step of ExactEncodeCtx when distance-2 or
// non-face constraints are present. They are lowered to extra binate
// clauses on top of the unate seed rows, as sketched in Sections 8.2 and
// 8.3, and the problem is solved by the CNF backend (internal/sat):
//
//   - distance-2 (a,b): at least two selected columns must separate a and
//     b; encoded as the clause family {∨(S∖{s}) : s ∈ S} over the set S of
//     separating candidate columns.
//   - non-face (F): some symbol outside F must intrude into F's face, i.e.
//     for some non-member t no selected column may separate F from t;
//     encoded with one zero-cost auxiliary variable u_t per non-member:
//     (∨_t u_t) ∧ (¬u_t ∨ ¬p) for every candidate column p separating F
//     from t.
//
// It returns the selected candidate columns and whether the solve proved
// them minimal over the pool.
func coverExtended(ctx context.Context, cs *constraint.Set, seeds, candidates []dichotomy.D, timeLimit time.Duration) ([]dichotomy.D, bool, error) {
	n := cs.N()
	csp := trace.StartSpan(ctx, "core.clauses")
	// A column only reliably separates a pair or isolates a face when the
	// placement survives completion: completion sends unassigned symbols
	// to the right block, so separation of (a,b) needs one of them in L.
	completed := make([]dichotomy.D, len(candidates))
	for i, c := range candidates {
		completed[i] = complete(c, n)
	}

	var p sat.BinateProblem
	for _, cols := range dichotomy.Coverage(dichotomy.Rows(seeds), candidates) {
		var clause []sat.Lit
		for _, ci := range cols {
			clause = append(clause, sat.Pos(ci))
		}
		p.Clauses = append(p.Clauses, clause)
	}

	// Distance-2 clauses.
	for _, d2 := range cs.Distance2s {
		var sep []int
		for ci := range candidates {
			if completed[ci].Separates(d2.A, d2.B) {
				sep = append(sep, ci)
			}
		}
		if len(sep) < 2 {
			return nil, false, &InfeasibleError{}
		}
		for skip := range sep {
			var clause []sat.Lit
			for i, c := range sep {
				if i != skip {
					clause = append(clause, sat.Pos(c))
				}
			}
			p.Clauses = append(p.Clauses, clause)
		}
	}

	// Non-face clauses with zero-cost auxiliaries.
	nAux := 0
	costs := make([]int, len(candidates))
	for i := range costs {
		costs[i] = 1
	}
	for _, nf := range cs.NonFaces {
		var auxClause []sat.Lit
		for t := 0; t < n; t++ {
			if nf.Members.Has(t) {
				continue
			}
			aux := len(candidates) + nAux
			nAux++
			costs = append(costs, 0)
			auxClause = append(auxClause, sat.Pos(aux))
			for ci, c := range completed {
				// Column ci separates F from t when F lies in one block
				// and t in the other.
				if (nf.Members.SubsetOf(c.L) && c.R.Has(t)) ||
					(nf.Members.SubsetOf(c.R) && c.L.Has(t)) {
					p.Clauses = append(p.Clauses, []sat.Lit{sat.Neg(aux), sat.Neg(ci)})
				}
			}
		}
		if len(auxClause) == 0 {
			return nil, false, &InfeasibleError{}
		}
		p.Clauses = append(p.Clauses, auxClause)
	}
	p.NumCols = len(candidates) + nAux
	p.Cost = costs
	csp.Set("clauses", len(p.Clauses)).Set("candidates", len(candidates)).Set("aux", nAux).End()

	// Every encoding pays at least ceil(log2 n) priced columns (the
	// uniqueness rows force pairwise-distinct codes), so the k-search can
	// start there; the zero-cost auxiliaries are free.
	sol, err := sat.SolveBinateCtx(ctx, &p, sat.CoverOptions{
		LowerBound: hypercube.MinBits(n),
		TimeLimit:  timeLimit,
	})
	if err != nil {
		if errors.Is(err, sat.ErrBinateInfeasible) {
			return nil, false, &InfeasibleError{}
		}
		return nil, false, err
	}
	var cols []dichotomy.D
	for _, c := range sol.Selected {
		if c < len(candidates) {
			cols = append(cols, candidates[c])
		}
	}
	return cols, sol.Optimal, nil
}

// complete returns the total column obtained by sending every unassigned
// symbol of d to the right block.
func complete(d dichotomy.D, n int) dichotomy.D {
	c := d.Clone()
	for s := 0; s < n; s++ {
		if !c.L.Has(s) && !c.R.Has(s) {
			c.R.Add(s)
		}
	}
	return c
}

// chainPollInterval is how many search nodes SolveWithChains visits between
// context checks.
const chainPollInterval = 1024

// SolveWithChains performs a direct branch-and-bound search for codes
// satisfying a constraint set that includes chain constraints, for small
// symbol counts. It searches code lengths from the information-theoretic
// minimum upward to maxBits and returns the first satisfying assignment
// found, which is therefore of minimum length when maxBits allows it.
// Exponential — a demonstration of the Section-8.4 open problem, not a
// scalable algorithm. The context is polled every chainPollInterval search
// nodes; cancellation or a missed deadline returns the context error.
func SolveWithChains(ctx context.Context, cs *constraint.Set, maxBits int) (*Encoding, error) {
	if err := cs.Validate(); err != nil {
		return nil, err
	}
	n := cs.N()
	if n > 14 {
		return nil, fmt.Errorf("core: SolveWithChains limited to 14 symbols, got %d", n)
	}
	for bits := hypercube.MinBits(n); bits <= maxBits; bits++ {
		s := &chainSearch{
			ctx:   ctx,
			cs:    cs,
			bits:  bits,
			codes: make([]hypercube.Code, n),
			used:  make(map[hypercube.Code]bool, n),
		}
		if s.assign(0) {
			return NewEncoding(cs.Syms, bits, s.codes), nil
		}
		if s.err != nil {
			return nil, s.err
		}
	}
	return nil, ErrInfeasible
}

// chainSearch is the state of one fixed-length SolveWithChains search.
type chainSearch struct {
	ctx   context.Context
	cs    *constraint.Set
	bits  int
	codes []hypercube.Code
	used  map[hypercube.Code]bool
	nodes int
	err   error // context error that aborted the search
}

// assign tries every unused code for symbol next, in ascending order, and
// recurses; it reports whether a complete satisfying assignment was found.
func (s *chainSearch) assign(next int) bool {
	if s.nodes++; s.nodes%chainPollInterval == 0 {
		if s.err = s.ctx.Err(); s.err != nil {
			return false
		}
	}
	if next == s.cs.N() {
		enc := NewEncoding(s.cs.Syms, s.bits, s.codes)
		return len(Verify(s.cs, enc)) == 0
	}
	limit := hypercube.Code(1) << uint(s.bits)
	for c := hypercube.Code(0); c < limit; c++ {
		if s.used[c] {
			continue
		}
		s.codes[next] = c
		if !partialOK(s.cs, s.bits, next, s.codes) {
			continue
		}
		s.used[c] = true
		if s.assign(next + 1) {
			return true
		}
		if s.err != nil {
			return false
		}
		delete(s.used, c)
	}
	return false
}

// partialOK prunes assignments violating pairwise-checkable constraints
// among the first next+1 symbols.
func partialOK(cs *constraint.Set, bits, next int, codes []hypercube.Code) bool {
	assigned := func(s int) bool { return s <= next }
	for _, d := range cs.Dominances {
		if assigned(d.Big) && assigned(d.Small) && !hypercube.Covers(codes[d.Big], codes[d.Small]) {
			return false
		}
	}
	for _, d := range cs.Distance2s {
		if assigned(d.A) && assigned(d.B) && hypercube.Distance(codes[d.A], codes[d.B]) < 2 {
			return false
		}
	}
	mask := hypercube.Code(1)<<uint(bits) - 1
	for _, ch := range cs.Chains {
		for i := 0; i+1 < len(ch.Seq); i++ {
			a, b := ch.Seq[i], ch.Seq[i+1]
			if assigned(a) && assigned(b) && codes[b] != (codes[a]+1)&mask {
				return false
			}
		}
	}
	return true
}
