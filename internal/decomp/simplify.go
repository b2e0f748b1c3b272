// Pre-solve simplification: structurally redundant constraints are
// eliminated before the exponential kernels run, so requests that differ
// only in redundant repetition converge on one component hash. Every
// rewrite is solution-preserving: the simplified set admits exactly the
// encodings the original did, so solving the simplified set solves the
// original.
package decomp

import (
	"slices"

	"repro/internal/constraint"
)

// simplify rewrites s in place:
//
//   - disjunctive child deduplication ("a = b | b" is "a = b");
//   - face subsumption: with equal members, a face with a *larger*
//     don't-care set is strictly weaker and is dropped in favor of the
//     stricter one;
//   - duplicate elimination across every class by Set.Dedupe, which
//     compares constraints in the canonical form the component hash is
//     taken over, so two spellings of one constraint count as repeats.
//
// It returns the canonical form of the simplified set, which Dedupe
// assembles from the lines it compared.
func simplify(s *constraint.Set) string {
	for i, d := range s.Disjunctives {
		seen := make(map[int]bool, len(d.Children))
		children := d.Children[:0]
		for _, c := range d.Children {
			if !seen[c] {
				seen[c] = true
				children = append(children, c)
			}
		}
		s.Disjunctives[i].Children = children
	}
	simplifyFaces(s)
	return s.Dedupe()
}

// simplifyFaces drops don't-care-subsumed faces: Verify accepts a face
// when no symbol outside Members ∪ DontCare lies in the spanned subcube,
// so for equal member sets the face with a strict superset of don't-cares
// is implied by the one with the subset.
func simplifyFaces(s *constraint.Set) {
	var out []constraint.Face
	for _, f := range s.Faces {
		if !slices.ContainsFunc(s.Faces, func(g constraint.Face) bool {
			return g.Members.Equal(f.Members) && g.DontCare.SubsetOf(f.DontCare) && !g.DontCare.Equal(f.DontCare)
		}) {
			out = append(out, f)
		}
	}
	s.Faces = out
}
