package constraint

import (
	"slices"
	"strings"
)

// Format renders the set in the textual constraint language such that
// Parse(Format(s)) reconstructs s exactly: a "symbols" pre-declaration line
// pins the symbol-table order (String alone interns symbols in
// first-reference order, which loses symbols no constraint mentions and can
// permute indices), followed by one line per constraint in the same order
// the set stores them.
func (s *Set) Format() string {
	var b strings.Builder
	if s.N() > 0 {
		b.WriteString("symbols")
		for _, n := range s.Syms.Names() {
			b.WriteByte(' ')
			b.WriteString(n)
		}
		b.WriteByte('\n')
	}
	b.WriteString(s.String())
	return b.String()
}

// Equal reports whether two sets are structurally identical: same symbol
// table (names in the same index order) and the same constraints in the
// same order. It is the equality Parse∘Format round-trips under.
func Equal(a, b *Set) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.N() != b.N() {
		return false
	}
	for i := 0; i < a.N(); i++ {
		if a.Syms.Name(i) != b.Syms.Name(i) {
			return false
		}
	}
	if len(a.Faces) != len(b.Faces) ||
		len(a.Dominances) != len(b.Dominances) ||
		len(a.Disjunctives) != len(b.Disjunctives) ||
		len(a.ExtDisjunctives) != len(b.ExtDisjunctives) ||
		len(a.Distance2s) != len(b.Distance2s) ||
		len(a.NonFaces) != len(b.NonFaces) ||
		len(a.Chains) != len(b.Chains) {
		return false
	}
	for i, f := range a.Faces {
		if !f.Members.Equal(b.Faces[i].Members) || !f.DontCare.Equal(b.Faces[i].DontCare) {
			return false
		}
	}
	for i, d := range a.Dominances {
		if d != b.Dominances[i] {
			return false
		}
	}
	for i, d := range a.Disjunctives {
		if d.Parent != b.Disjunctives[i].Parent || !slices.Equal(d.Children, b.Disjunctives[i].Children) {
			return false
		}
	}
	for i, e := range a.ExtDisjunctives {
		o := b.ExtDisjunctives[i]
		if e.Parent != o.Parent || len(e.Conjunctions) != len(o.Conjunctions) {
			return false
		}
		for j, conj := range e.Conjunctions {
			if !slices.Equal(conj, o.Conjunctions[j]) {
				return false
			}
		}
	}
	for i, d := range a.Distance2s {
		if d != b.Distance2s[i] {
			return false
		}
	}
	for i, nf := range a.NonFaces {
		if !nf.Members.Equal(b.NonFaces[i].Members) {
			return false
		}
	}
	for i, ch := range a.Chains {
		if !slices.Equal(ch.Seq, b.Chains[i].Seq) {
			return false
		}
	}
	return true
}
