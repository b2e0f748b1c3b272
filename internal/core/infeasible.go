package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/constraint"
	"repro/internal/dichotomy"
)

// conflictMinimizeLimit bounds the constraint count above which the greedy
// conflict minimization is skipped: its one deletion pass re-runs the
// polynomial feasibility check per constraint, so it is O(constraints·check),
// and a pathological set should not stall the error path.
const conflictMinimizeLimit = 256

// InfeasibleError is the typed form of ErrInfeasible: it satisfies
// errors.Is(err, ErrInfeasible) and additionally carries the evidence —
// the uncovered initial dichotomies of the Theorem-6.1 check and a minimal
// infeasible subset of the offending constraints, so callers (and the HTTP
// service) can report *which* constraints conflict rather than a bare
// verdict.
type InfeasibleError struct {
	// Uncovered are the initial encoding-dichotomies not covered by any
	// valid maximally raised dichotomy; empty when infeasibility surfaced
	// only in a later stage (e.g. the extended covering clauses).
	Uncovered []dichotomy.D
	// Conflict is a minimal infeasible subset of the input constraint set
	// (dropping any one of its constraints makes the remainder feasible).
	// Nil when minimization was skipped — extension-induced infeasibility,
	// a set larger than the minimization bound, or a solve whose context
	// ended first.
	Conflict *constraint.Set
}

// Error renders the verdict with the conflicting constraints when known.
func (e *InfeasibleError) Error() string {
	var b strings.Builder
	b.WriteString(ErrInfeasible.Error())
	if len(e.Uncovered) > 0 {
		fmt.Fprintf(&b, " (%d uncovered dichotomies)", len(e.Uncovered))
	}
	if e.Conflict != nil {
		b.WriteString("; minimal conflicting subset:\n")
		b.WriteString(strings.TrimRight(e.Conflict.String(), "\n"))
	}
	return b.String()
}

// Unwrap makes errors.Is(err, ErrInfeasible) hold for the typed error.
func (e *InfeasibleError) Unwrap() error { return ErrInfeasible }

// newInfeasibleError builds the typed error, minimizing the conflict
// subset when the set is small enough for the one deletion pass and the
// solve's context leaves time for it.
func newInfeasibleError(ctx context.Context, cs *constraint.Set, uncovered []dichotomy.D) *InfeasibleError {
	return &InfeasibleError{Uncovered: uncovered, Conflict: MinimizeInfeasible(ctx, cs)}
}

// MinimizeInfeasible greedily shrinks cs to a minimal infeasible subset
// under the polynomial P-1 check: one pass drops each constraint in turn
// whenever the remainder stays infeasible, after which no single removal
// preserves infeasibility. Returns nil when cs is feasible by the check
// (infeasibility lies outside Theorem 6.1's scope, e.g. in extension
// constraints), when the set exceeds the minimization bound, or when ctx
// ends first: the context is polled before every check, so a canceled or
// expired solve stops minimizing within one check. The result shares cs's
// symbol table.
func MinimizeInfeasible(ctx context.Context, cs *constraint.Set) *constraint.Set {
	// Extensions are invisible to the feasibility check; a conflict subset
	// containing them would be misleading, and they do not count towards
	// the bound.
	checked := &constraint.Set{Syms: cs.Syms, Faces: cs.Faces, Dominances: cs.Dominances,
		Disjunctives: cs.Disjunctives, ExtDisjunctives: cs.ExtDisjunctives}
	if n := checked.Len(); n == 0 || n > conflictMinimizeLimit {
		return nil
	}
	if ctx.Err() != nil || CheckFeasible(cs).Feasible {
		return nil
	}
	// One deletion pass is minimal: dropping a constraint never makes a
	// feasible set infeasible (fewer output constraints only shrink the
	// raises, and the uniqueness seeds a dropped face releases are
	// blockwise subsets of its covered seeds, valid by hereditary
	// validity). So a constraint kept because the remainder was feasible
	// stays necessary in every subset the pass goes on to keep.
	cur := checked.Clone()
	for i := 0; i < cur.Len(); i++ {
		if ctx.Err() != nil {
			return nil
		}
		if cand := cur.Without(i); !CheckFeasible(cand).Feasible {
			cur = cand
			i-- // same index now names the next constraint
		}
	}
	return cur
}
