package dichotomy

import (
	"repro/internal/bitset"
	"repro/internal/constraint"
)

// Initial generates the initial encoding-dichotomies for a constraint set
// (Section 5). For every face constraint requiring members M (don't-care
// symbols excluded per Section 8.1) and every symbol t outside
// M ∪ DontCare, both orientations (M; t) and (t; M) are produced. Uniqueness
// constraints — one dichotomy per orientation per pair of symbols — are
// added only for pairs not already separated by a face-derived dichotomy.
//
// The result is deduplicated (orientation sensitive) and its order is
// deterministic: face-derived dichotomies first, in constraint order, then
// uniqueness dichotomies in pair order. Every seed at an even index is
// followed by its mirror: both orientations are emitted together, and one
// is new exactly when the other is.
func Initial(cs *constraint.Set) []D {
	n := cs.N()
	var out []D
	seen := make(map[string]bool)
	emit := func(d D) {
		k := d.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, d)
		}
	}

	// separated[u*n+v] marks pairs split by some face-derived dichotomy.
	separated := make([]bool, n*n)
	markSep := func(a, b bitset.Set) {
		a.ForEach(func(u int) bool {
			b.ForEach(func(v int) bool {
				separated[u*n+v] = true
				separated[v*n+u] = true
				return true
			})
			return true
		})
	}

	for _, f := range cs.Faces {
		excluded := bitset.Union(f.Members, f.DontCare)
		for t := 0; t < n; t++ {
			if excluded.Has(t) {
				continue
			}
			var tset bitset.Set
			tset.Add(t)
			emit(D{L: f.Members.Clone(), R: tset.Clone()})
			emit(D{L: tset, R: f.Members.Clone()})
			markSep(f.Members, bitset.Of(t))
		}
	}

	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if separated[u*n+v] {
				continue
			}
			emit(Of([]int{u}, []int{v}))
			emit(Of([]int{v}, []int{u}))
		}
	}
	return out
}

// Rows reduces a seed list to the canonical covering rows: one entry per
// mirror pair (covering is orientation symmetric per Definition 3.4), order
// preserved.
func Rows(seeds []D) []D {
	var rows []D
	seen := make(map[string]bool)
	for _, d := range seeds {
		k := d.CanonicalKey()
		if !seen[k] {
			seen[k] = true
			rows = append(rows, d)
		}
	}
	return rows
}

// ValidRaised maximally raises each seed and drops those whose raise
// contradicts, deduplicating the result. This is the set D of Theorem 6.1:
// raising rejects every dichotomy Valid rejects, so the filter needs no
// separate validity pass. cs is compiled once for all seeds.
func ValidRaised(seeds []D, cs *constraint.Set) []D {
	c := Compile(cs)
	var out []D
	seen := make(map[string]bool)
	for _, d := range seeds {
		r := d.Clone()
		if !c.RaiseInPlace(&r) {
			continue
		}
		k := r.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}
