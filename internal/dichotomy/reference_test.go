package dichotomy_test

import (
	"repro/internal/bitset"
	"repro/internal/constraint"
	"repro/internal/dichotomy"
)

// This file keeps the code that the package's kernels replaced as the
// reference oracles of their tests. The rule-scanning raise is unchanged
// but for its name and package qualifiers: dichotomy.Raise must agree with
// refRaise on ok for every dichotomy and on the raised blocks whenever ok
// holds.

// refRaise maximally raises d with respect to the output constraints in cs
// (Definitions 6.1/6.2, procedure raise_dichotomy in Figure 5): symbols
// forced by the constraints are inserted into the blocks until a fix-point.
//
// Propagation rules, all sound implications of the bit semantics L→0, R→1:
//
//	dominance a > b:      a∈L ⇒ b∈L;   b∈R ⇒ a∈R
//	disjunctive p = ∨cᵢ:  implied dominances p > cᵢ for every child, plus
//	                      all cᵢ∈L ⇒ p∈L, and
//	                      p∈R with exactly one child not in L ⇒ that child∈R
//	ext disj  ∨ⱼ∧cⱼᵢ ≥ p: every conjunction hit in L ⇒ p∈L;
//	                      p∈R with exactly one unhit conjunction ⇒ all of
//	                      that conjunction's children ∈R
//
// The second return value is false when raising derives a contradiction
// (some symbol forced into both blocks) or the raised dichotomy violates an
// output constraint; such dichotomies must be discarded.
func refRaise(d dichotomy.D, cs *constraint.Set) (dichotomy.D, bool) {
	r := d.Clone()
	for {
		changed := false
		add := func(s *bitset.Set, e int) {
			if !s.Has(e) {
				s.Add(e)
				changed = true
			}
		}
		for _, dom := range cs.Dominances {
			if r.L.Has(dom.Big) {
				add(&r.L, dom.Small)
			}
			if r.R.Has(dom.Small) {
				add(&r.R, dom.Big)
			}
		}
		for _, dj := range cs.Disjunctives {
			// Implied dominances parent > child.
			for _, c := range dj.Children {
				if r.L.Has(dj.Parent) {
					add(&r.L, c)
				}
				if r.R.Has(c) {
					add(&r.R, dj.Parent)
				}
			}
			// All children 0 forces the parent to 0.
			allLeft := true
			notLeft := -1
			numNotLeft := 0
			for _, c := range dj.Children {
				if !r.L.Has(c) {
					allLeft = false
					notLeft = c
					numNotLeft++
				}
			}
			if allLeft {
				add(&r.L, dj.Parent)
			}
			// Parent 1 with a single candidate child forces that child to 1.
			if r.R.Has(dj.Parent) && numNotLeft == 1 {
				add(&r.R, notLeft)
			}
		}
		for _, ed := range cs.ExtDisjunctives {
			allHit := true
			unhit := -1
			numUnhit := 0
			for ci, conj := range ed.Conjunctions {
				hit := false
				for _, c := range conj {
					if r.L.Has(c) {
						hit = true
						break
					}
				}
				if !hit {
					allHit = false
					unhit = ci
					numUnhit++
				}
			}
			if allHit {
				add(&r.L, ed.Parent)
			}
			if r.R.Has(ed.Parent) && numUnhit == 1 {
				for _, c := range ed.Conjunctions[unhit] {
					add(&r.R, c)
				}
			}
		}
		if !changed {
			break
		}
		if r.L.Intersects(r.R) {
			return r, false
		}
	}
	return r, dichotomy.Valid(r, cs)
}

// refCoverage is the rows × columns loop that dichotomy.Coverage replaced
// in the exact encoder and the Tracey assigner: every column tested
// against every row with Covers.
func refCoverage(rows, cols []dichotomy.D) [][]int {
	out := make([][]int, len(rows))
	for ri, r := range rows {
		for ci, c := range cols {
			if c.Covers(r) {
				out[ri] = append(out[ri], ci)
			}
		}
	}
	return out
}
