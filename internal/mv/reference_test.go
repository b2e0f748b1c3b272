package mv

import (
	"repro/internal/constraint"
	"repro/internal/core"
)

// This file keeps the from-scratch admission loop that the incremental
// P-1 state replaced, unchanged but for its name, as the reference oracle
// of the admission tests: OutputConstraints must admit exactly the set
// refOutputConstraints admits, in the same order.

// RefOutputConstraints exposes the reference to the external test package.
var RefOutputConstraints = (*SymbolicCover).refOutputConstraints

// refOutputConstraints appends the dominance and disjunctive output
// constraints discovered on the (already minimized) symbolic cover to cs,
// greedily in gain order with each admission re-checked for feasibility.
func (sc *SymbolicCover) refOutputConstraints(cs *constraint.Set, opts OutputOptions) {
	m := sc.M
	maxDom := opts.MaxDominance
	if maxDom == 0 {
		maxDom = m.NumStates()/3 + 1
	}
	maxDisj := opts.MaxDisjunctive
	if maxDisj == 0 {
		maxDisj = 2
	}

	doms := sc.dominanceCandidates(opts.AggressiveDominance)
	admitted := 0
	hasEdge := map[[2]int]bool{}
	reach := newReach(m.NumStates())
	for _, d := range doms {
		if admitted >= maxDom {
			break
		}
		if hasEdge[[2]int{d.big, d.small}] || reach.path(d.small, d.big) {
			continue // duplicate or would close a dominance cycle
		}
		cs.Dominances = append(cs.Dominances, constraint.Dominance{Big: d.big, Small: d.small})
		if core.CheckFeasible(cs).Feasible {
			hasEdge[[2]int{d.big, d.small}] = true
			reach.add(d.big, d.small)
			admitted++
		} else {
			cs.Dominances = cs.Dominances[:len(cs.Dominances)-1]
		}
	}

	disj := sc.disjunctiveCandidates()
	admittedD := 0
	for _, dj := range disj {
		if admittedD >= maxDisj {
			break
		}
		cs.Disjunctives = append(cs.Disjunctives, dj)
		if core.CheckFeasible(cs).Feasible {
			admittedD++
		} else {
			cs.Disjunctives = cs.Disjunctives[:len(cs.Disjunctives)-1]
		}
	}
}
