// Pre-solve simplification: structurally redundant constraints are
// eliminated before the exponential kernels run, so requests that differ
// only in redundant repetition converge on one component hash. Every
// rewrite is solution-preserving: the simplified set admits exactly the
// encodings the original did, so solving the simplified set solves the
// original.
package decomp

import (
	"slices"
	"sort"
	"strconv"

	"repro/internal/constraint"
)

// simplify rewrites s in place:
//
//   - duplicate elimination across every class (faces by exact
//     members+don't-cares, dominances by pair, disjunctives by
//     parent+child-set, extended disjunctives by normalized form,
//     distance-2 by unordered pair);
//   - face subsumption: with equal members, a face with a *larger*
//     don't-care set is strictly weaker and is dropped in favor of the
//     stricter one;
//   - disjunctive child deduplication ("a = b | b" is "a = b").
func simplify(s *constraint.Set) {
	simplifyFaces(s)
	s.Dominances = dedupeDominances(s.Dominances)
	dedupeDisjunctives(s)
	s.ExtDisjunctives = dedupeExtDisjunctives(s.ExtDisjunctives)
	s.Distance2s = dedupeDistance2s(s.Distance2s)
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
// duplicate constraints across the list.
func dedupeDisjunctives(s *constraint.Set) {
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
		key := disjKey(d.Parent, children)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, constraint.Disjunctive{Parent: d.Parent, Children: children})
	}
	s.Disjunctives = out
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
