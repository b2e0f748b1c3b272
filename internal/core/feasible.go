package core

import (
	"context"

	"repro/internal/bitset"
	"repro/internal/constraint"
	"repro/internal/dichotomy"
	"repro/internal/trace"
)

// Feasibility reports the outcome of the polynomial satisfiability check of
// Theorem 6.1 together with its intermediate artifacts, which the paper's
// Figure-4 walk-through displays.
type Feasibility struct {
	Feasible bool
	// Seeds is the set I of initial encoding-dichotomies (both
	// orientations).
	Seeds []dichotomy.D
	// Raised is the set D of valid, maximally raised dichotomies.
	Raised []dichotomy.D
	// Uncovered lists the members of I not covered by any member of D;
	// empty iff Feasible.
	Uncovered []dichotomy.D
}

// CheckFeasible decides P-1: whether the input and output constraints admit
// any encoding. The constraints are satisfiable iff every initial
// encoding-dichotomy is covered by some valid, maximally raised
// encoding-dichotomy (Theorem 6.1). The algorithm is polynomial in the
// number of symbols and constraints (Figure 6).
func CheckFeasible(cs *constraint.Set) Feasibility {
	return CheckFeasibleCtx(context.Background(), cs)
}

// CheckFeasibleCtx is CheckFeasible with stage tracing: when ctx carries a
// trace recorder (internal/trace) the check records one "core.feasible"
// span with its seed/raised/uncovered counts. The check itself is
// polynomial and never blocks, so the context is used only for tracing.
func CheckFeasibleCtx(ctx context.Context, cs *constraint.Set) Feasibility {
	sp := trace.StartSpan(ctx, "core.feasible")
	f := NewFeasibilityState(cs).Report()
	sp.Set("seeds", len(f.Seeds)).Set("raised", len(f.Raised)).Set("uncovered", len(f.Uncovered)).End()
	return f
}

// FeasibilityState is the P-1 check of Theorem 6.1 kept per seed, for a
// constraint set that grows one output constraint at a time. It holds the
// initial encoding-dichotomies, each one's maximal raise and whether that
// raise is contradiction-free, and each seed's mirror.
//
// A seed is covered when its own raise or its mirror's is contradiction-free
// (a raise contains the dichotomy it started from); only otherwise does the
// check scan the other raises, so a verdict costs one pass over the seeds
// instead of CoveredBySome's seeds × raises. Adding an output constraint
// re-raises only the seeds the constraint can touch, starting from their
// current raises: a raise is a fix-point of the smaller set, and raising it
// under the grown set gives what raising the seed from scratch would.
type FeasibilityState struct {
	cs     *constraint.Set
	seeds  []dichotomy.D
	mirror []int // seeds[mirror[i]] is seeds[i].Mirror()
	raised []dichotomy.D
	ok     []bool
	// The seeds re-raised for the constraint under test and their previous
	// raises, restored when the grown set is infeasible.
	undo []int
	prev []dichotomy.D
}

// NewFeasibilityState raises every initial encoding-dichotomy of cs. The
// state shares cs: AddDominance and AddDisjunctive append to it.
func NewFeasibilityState(cs *constraint.Set) *FeasibilityState {
	seeds := dichotomy.Initial(cs)
	s := &FeasibilityState{
		cs:     cs,
		seeds:  seeds,
		mirror: make([]int, len(seeds)),
		raised: make([]dichotomy.D, len(seeds)),
		ok:     make([]bool, len(seeds)),
	}
	c := dichotomy.Compile(cs)
	slab := bitset.NewSlab(cs.N())
	for i, d := range seeds {
		// Initial emits every seed next to its mirror; a seed without one
		// would stand in for its own.
		m := i ^ 1
		if m >= len(seeds) || !seeds[m].L.Equal(d.R) || !seeds[m].R.Equal(d.L) {
			m = i
		}
		s.mirror[i] = m
		s.raised[i] = dichotomy.D{L: slab.CloneInto(d.L), R: slab.CloneInto(d.R)}
		s.ok[i] = c.RaiseInPlace(&s.raised[i])
	}
	return s
}

// feasible reports whether every seed is covered: the P-1 verdict for the
// current set. It stops at the first uncovered seed.
func (s *FeasibilityState) feasible() bool {
	for i, d := range s.seeds {
		if s.ok[i] || s.ok[s.mirror[i]] {
			continue
		}
		covered := false
		for j, r := range s.raised {
			if s.ok[j] && r.Covers(d) {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// Report returns the check's artifacts for the current set: the seeds, the
// deduplicated contradiction-free raises in seed order (ValidRaised's
// result, copied out of the state) and every uncovered seed.
func (s *FeasibilityState) Report() Feasibility {
	f := Feasibility{Seeds: s.seeds}
	seen := make(map[string]bool)
	for i, r := range s.raised {
		if !s.ok[i] {
			continue
		}
		if k := r.Key(); !seen[k] {
			seen[k] = true
			f.Raised = append(f.Raised, r.Clone())
		}
	}
	for i, d := range s.seeds {
		if !s.ok[i] && !s.ok[s.mirror[i]] && !dichotomy.CoveredBySome(d, f.Raised) {
			f.Uncovered = append(f.Uncovered, d)
		}
	}
	f.Feasible = len(f.Uncovered) == 0
	return f
}

// AddDominance appends d to the set when the grown set stays feasible and
// reports whether it did; otherwise the set and the state are unchanged.
// Only raises with d.Big in L or d.Small in R can move.
func (s *FeasibilityState) AddDominance(d constraint.Dominance) bool {
	s.cs.Dominances = append(s.cs.Dominances, d)
	if s.admit(func(r dichotomy.D) bool { return r.L.Has(d.Big) || r.R.Has(d.Small) }) {
		return true
	}
	s.cs.Dominances = s.cs.Dominances[:len(s.cs.Dominances)-1]
	return false
}

// AddDisjunctive appends d to the set when the grown set stays feasible
// and reports whether it did; otherwise the set and the state are
// unchanged. Its rules can fire on any raise, so every one is re-raised.
func (s *FeasibilityState) AddDisjunctive(d constraint.Disjunctive) bool {
	s.cs.Disjunctives = append(s.cs.Disjunctives, d)
	if s.admit(nil) {
		return true
	}
	s.cs.Disjunctives = s.cs.Disjunctives[:len(s.cs.Disjunctives)-1]
	return false
}

// admit re-raises, under the already grown set, every contradiction-free
// raise that touched reports (all of them when touched is nil), and keeps
// the new raises when the grown set is feasible. A raise that contradicts
// stays contradictory as the set grows, so those are never revisited.
func (s *FeasibilityState) admit(touched func(dichotomy.D) bool) bool {
	c := dichotomy.Compile(s.cs)
	s.undo = s.undo[:0]
	for i := range s.seeds {
		if !s.ok[i] || (touched != nil && !touched(s.raised[i])) {
			continue
		}
		k := len(s.undo)
		if k == len(s.prev) {
			s.prev = append(s.prev, dichotomy.D{})
		}
		s.undo = append(s.undo, i)
		s.prev[k].L.CopyFrom(s.raised[i].L)
		s.prev[k].R.CopyFrom(s.raised[i].R)
		s.ok[i] = c.RaiseInPlace(&s.raised[i])
	}
	if s.feasible() {
		return true
	}
	for k, i := range s.undo {
		s.raised[i], s.prev[k] = s.prev[k], s.raised[i]
		s.ok[i] = true
	}
	return false
}
