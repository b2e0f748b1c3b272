package mv

import (
	"sort"

	"repro/internal/bitset"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/espresso"
	"repro/internal/fsm"
)

// OutputOptions bounds output-constraint generation.
type OutputOptions struct {
	// MaxDominance caps the number of dominance constraints emitted;
	// 0 means states/3 + 1.
	MaxDominance int
	// MaxDisjunctive caps the number of disjunctive constraints; 0 means 2.
	MaxDisjunctive int
	// AggressiveDominance widens the dominance candidate pool to every
	// ordered state pair with any merging affinity, for instances whose
	// prime count must be pruned hard (the paper's tbk carried 98 output
	// constraints).
	AggressiveDominance bool
}

// GenerateConstraints runs the full mixed-constraint generation the paper's
// Table 1 uses: face constraints from MV minimization, plus dominance and
// disjunctive output constraints discovered on the minimized symbolic cover
// (an extension of DeMicheli's procedure "that also generates good
// disjunctive effects"). Candidate output constraints are admitted greedily
// in gain order, each admission re-checked with the polynomial feasibility
// test so the emitted set is always satisfiable — mirroring how symbolic
// minimizers only commit to constraint sets they can realize.
func GenerateConstraints(m *fsm.FSM, opts OutputOptions) *constraint.Set {
	sc := Cover(m)
	sc.Minimize()
	cs := constraint.NewSet(m.States)
	sc.FaceConstraints(cs)
	sc.OutputConstraints(cs, opts)
	return cs
}

// OutputConstraints appends the dominance and disjunctive output
// constraints discovered on the (already minimized) symbolic cover to cs,
// greedily in gain order with each admission re-checked for feasibility.
// It is the output half of GenerateConstraints, split out so pipelines that
// already hold a minimized cover can stage constraint extraction
// separately.
func (sc *SymbolicCover) OutputConstraints(cs *constraint.Set, opts OutputOptions) {
	m := sc.M
	maxDom := opts.MaxDominance
	if maxDom == 0 {
		maxDom = m.NumStates()/3 + 1
	}
	maxDisj := opts.MaxDisjunctive
	if maxDisj == 0 {
		maxDisj = 2
	}

	// One P-1 state grows with the admitted set: each candidate re-raises
	// only the seeds it can touch, and a rejected one leaves cs as it was.
	p1 := core.NewFeasibilityState(cs)
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
		if p1.AddDominance(constraint.Dominance{Big: d.big, Small: d.small}) {
			hasEdge[[2]int{d.big, d.small}] = true
			reach.add(d.big, d.small)
			admitted++
		}
	}

	disj := sc.disjunctiveCandidates()
	admittedD := 0
	for _, dj := range disj {
		if admittedD >= maxDisj {
			break
		}
		if p1.AddDisjunctive(dj) {
			admittedD++
		}
	}
}

type domCand struct {
	big, small int
	gain       int
}

// dominanceCandidates scores ordered state pairs by the number of cube
// merges a dominance relation would enable: a cube asserting the small
// state can be absorbed into a cube asserting the big state when their
// input parts are adjacent (mergeable into a single product) over related
// state literals.
func (sc *SymbolicCover) dominanceCandidates(aggressive bool) []domCand {
	n := sc.M.NumInputs
	gain := map[[2]int]int{}
	for i, a := range sc.Cubes {
		for j, b := range sc.Cubes {
			if i == j || a.To == b.To {
				continue
			}
			// b (asserting state b.To) absorbable by a if the supercube of
			// the inputs is a single product step away and the state
			// literals overlap or coincide.
			if a.In.Distance(n, b.In) <= 1 && a.States.Intersects(b.States) {
				gain[[2]int{a.To, b.To}]++
			}
			if a.In == b.In {
				gain[[2]int{a.To, b.To}]++
			}
			if aggressive && (a.In.Distance(n, b.In) <= 2 || a.States.Intersects(b.States)) {
				gain[[2]int{a.To, b.To}]++
			}
		}
	}
	var out []domCand
	for k, g := range gain {
		if g > 0 {
			out = append(out, domCand{big: k[0], small: k[1], gain: g})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].gain != out[j].gain {
			return out[i].gain > out[j].gain
		}
		if out[i].big != out[j].big {
			return out[i].big < out[j].big
		}
		return out[i].small < out[j].small
	})
	return out
}

// disjunctiveCandidates finds parent states whose asserted (input × state)
// space is contained in the union of two other states' spaces — the
// condition under which the parent's cubes can be deleted if its code is
// the OR of the children's (Section 1).
func (sc *SymbolicCover) disjunctiveCandidates() []constraint.Disjunctive {
	m := sc.M
	nStates := m.NumStates()
	// Per next-state list of (input cube, state set).
	type part struct {
		in     espresso.Cube
		states bitset.Set
	}
	byTo := make([][]part, nStates)
	for _, c := range sc.Cubes {
		byTo[c.To] = append(byTo[c.To], part{c.In, c.States})
	}
	coveredBy := func(p part, owners []part) bool {
		// The parent's input region must lie inside the union of the
		// owners' input regions; the paper's condition is that the input
		// parts of the parent's outputs are contained in the children's
		// (Section 1), which the feasibility re-check then vets.
		rest := espresso.NewCover(m.NumInputs)
		for _, o := range owners {
			rest.Add(o.in)
		}
		return rest.CoversCube(p.in)
	}
	var out []constraint.Disjunctive
	for parent := 0; parent < nStates; parent++ {
		if len(byTo[parent]) == 0 || len(byTo[parent]) > 4 {
			continue
		}
		found := false
		for b := 0; b < nStates && !found; b++ {
			if b == parent || len(byTo[b]) == 0 {
				continue
			}
			for c := b + 1; c < nStates && !found; c++ {
				if c == parent || len(byTo[c]) == 0 {
					continue
				}
				owners := append(append([]part(nil), byTo[b]...), byTo[c]...)
				all := true
				for _, p := range byTo[parent] {
					if !coveredBy(p, owners) {
						all = false
						break
					}
				}
				if all {
					out = append(out, constraint.Disjunctive{Parent: parent, Children: []int{b, c}})
					found = true
				}
			}
		}
	}
	return out
}

// reach maintains transitive reachability over dominance edges to keep the
// admitted relation acyclic.
type reach struct {
	n  int
	to []bitset.Set
}

func newReach(n int) *reach {
	r := &reach{n: n, to: make([]bitset.Set, n)}
	for i := range r.to {
		r.to[i] = bitset.New(n)
	}
	return r
}

func (r *reach) path(a, b int) bool { return a == b || r.to[a].Has(b) }

func (r *reach) add(a, b int) {
	// a > b: everything reaching a now reaches b and b's targets.
	r.to[a].Add(b)
	r.to[a].UnionWith(r.to[b])
	for i := 0; i < r.n; i++ {
		if r.to[i].Has(a) {
			r.to[i].Add(b)
			r.to[i].UnionWith(r.to[b])
		}
	}
}
