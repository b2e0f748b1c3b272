// Pre-solve simplification in the spirit of BEE-style equi-propagation:
// structurally redundant constraints are eliminated before the exponential
// kernels run, and implied code equalities — which contradict the global
// uniqueness requirement — are detected outright. Every rewrite is
// solution-preserving: the simplified set admits exactly the encodings the
// original did, so solving the simplified set solves the original.
package decomp

import (
	"slices"
	"sort"
	"strconv"

	"repro/internal/constraint"
)

// simplify rewrites s in place and reports whether it derived an implied
// code equality (which makes the component infeasible: core.Verify requires
// pairwise-distinct codes). Rewrites:
//
//   - duplicate elimination across every class (faces by exact
//     members+don't-cares, dominances by pair, disjunctives by
//     parent+child-set, extended disjunctives by normalized form,
//     distance-2 by unordered pair);
//   - face subsumption: with equal members, a face with a *larger*
//     don't-care set is strictly weaker and is dropped in favor of the
//     stricter one;
//   - disjunctive child deduplication ("a = b | b" is "a = b");
//   - equality detection: a disjunctive reduced to one child forces
//     parent = child, and a cycle in the covering digraph (Big→Small per
//     dominance, Parent→child per disjunctive, since an OR covers each
//     operand) forces every code on the cycle equal.
func simplify(s *constraint.Set) (forcedEqual bool) {
	simplifyFaces(s)
	s.Dominances = dedupeDominances(s.Dominances)
	if dedupeDisjunctives(s) {
		forcedEqual = true
	}
	s.ExtDisjunctives = dedupeExtDisjunctives(s.ExtDisjunctives)
	s.Distance2s = dedupeDistance2s(s.Distance2s)
	if coveringCycle(s) {
		forcedEqual = true
	}
	return forcedEqual
}

// simplifyFaces drops exact duplicates and don't-care-subsumed faces:
// Verify accepts a face when no symbol outside Members ∪ DontCare lies in
// the spanned subcube, so for equal member sets the face with the superset
// of don't-cares is implied by the one with the subset.
func simplifyFaces(s *constraint.Set) {
	var out []constraint.Face
	for i, f := range s.Faces {
		redundant := false
		for j, g := range s.Faces {
			if i == j || !f.Members.Equal(g.Members) {
				continue
			}
			if g.DontCare.Equal(f.DontCare) {
				// Exact duplicate: keep the first occurrence only.
				if j < i {
					redundant = true
					break
				}
				continue
			}
			if g.DontCare.SubsetOf(f.DontCare) {
				redundant = true
				break
			}
		}
		if !redundant {
			out = append(out, f)
		}
	}
	s.Faces = out
}

func dedupeDominances(ds []constraint.Dominance) []constraint.Dominance {
	seen := make(map[[2]int]bool, len(ds))
	var out []constraint.Dominance
	for _, d := range ds {
		k := [2]int{d.Big, d.Small}
		if !seen[k] {
			seen[k] = true
			out = append(out, d)
		}
	}
	return out
}

// dedupeDisjunctives removes repeated children within each constraint and
// duplicate constraints across the list, and reports whether any
// disjunctive collapsed to a single child (parent = child: an equality).
func dedupeDisjunctives(s *constraint.Set) (singleChild bool) {
	seen := make(map[string]bool, len(s.Disjunctives))
	var out []constraint.Disjunctive
	for _, d := range s.Disjunctives {
		var children []int
		have := map[int]bool{}
		for _, c := range d.Children {
			if !have[c] {
				have[c] = true
				children = append(children, c)
			}
		}
		if len(children) == 1 {
			singleChild = true
		}
		key := disjKey(d.Parent, children)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, constraint.Disjunctive{Parent: d.Parent, Children: children})
	}
	s.Disjunctives = out
	return singleChild
}

func disjKey(parent int, children []int) string {
	sorted := append([]int(nil), children...)
	sort.Ints(sorted)
	key := appendIndex(nil, parent, ':')
	for _, c := range sorted {
		key = appendIndex(key, c, ',')
	}
	return string(key)
}

// appendIndex appends symbol index x in decimal, then sep. Dedupe keys
// spell out whole indices: a fixed-width truncation would give distinct
// constraints one key, and the dedupe would drop one of them.
func appendIndex(key []byte, x int, sep byte) []byte {
	return append(strconv.AppendInt(key, int64(x), 10), sep)
}

func dedupeExtDisjunctives(es []constraint.ExtDisjunctive) []constraint.ExtDisjunctive {
	seen := make(map[string]bool, len(es))
	var out []constraint.ExtDisjunctive
	for _, e := range es {
		// Normalize a comparison key only — the stored constraint keeps its
		// original conjunct order.
		conjs := make([][]int, len(e.Conjunctions))
		for i, conj := range e.Conjunctions {
			c := append([]int(nil), conj...)
			sort.Ints(c)
			conjs[i] = c
		}
		sort.Slice(conjs, func(a, b int) bool { return slices.Compare(conjs[a], conjs[b]) < 0 })
		key := appendIndex(nil, e.Parent, ':')
		for _, c := range conjs {
			for _, x := range c {
				key = appendIndex(key, x, ',')
			}
			key = append(key, ';')
		}
		k := string(key)
		if !seen[k] {
			seen[k] = true
			out = append(out, e)
		}
	}
	return out
}

func dedupeDistance2s(ds []constraint.Distance2) []constraint.Distance2 {
	seen := make(map[[2]int]bool, len(ds))
	var out []constraint.Distance2
	for _, d := range ds {
		a, b := d.A, d.B
		if a > b {
			a, b = b, a
		}
		k := [2]int{a, b}
		if !seen[k] {
			seen[k] = true
			out = append(out, d)
		}
	}
	return out
}

// coveringCycle reports whether the covering digraph — one edge Big→Small
// per dominance, Parent→child per disjunctive — contains a cycle. A
// dominance means code(Big) bit-wise covers code(Small), and a disjunctive
// parent (the OR of its children) covers every child, so a cycle forces all
// codes on it equal: infeasible under uniqueness. Detected by Kahn's
// topological sort: nodes left unconsumed lie on (or downstream into) a
// cycle.
func coveringCycle(s *constraint.Set) bool {
	n := s.N()
	adj := make([][]int, n)
	indeg := make([]int, n)
	addEdge := func(from, to int) {
		adj[from] = append(adj[from], to)
		indeg[to]++
	}
	for _, d := range s.Dominances {
		addEdge(d.Big, d.Small)
	}
	for _, d := range s.Disjunctives {
		for _, c := range d.Children {
			addEdge(d.Parent, c)
		}
	}
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	consumed := 0
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		consumed++
		for _, w := range adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	return consumed < n
}
