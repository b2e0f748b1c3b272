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
// is new exactly when the other is. That pairing is a contract: the
// mirror of seed i is seed i^1, which core's per-seed P-1 state relies on.
func Initial(cs *constraint.Set) []D {
	n := cs.N()
	seen := newDistinct(2*len(cs.Faces)*n+n*n, false)

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
			seen.add(D{L: f.Members.Clone(), R: tset.Clone()})
			seen.add(D{L: tset, R: f.Members.Clone()})
			markSep(f.Members, bitset.Of(t))
		}
	}

	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if separated[u*n+v] {
				continue
			}
			seen.add(Of([]int{u}, []int{v}))
			seen.add(Of([]int{v}, []int{u}))
		}
	}
	return seen.out
}

// Rows reduces a seed list to the canonical covering rows: one entry per
// mirror pair (covering is orientation symmetric per Definition 3.4), order
// preserved.
func Rows(seeds []D) []D {
	seen := newDistinct(len(seeds)/2, true)
	for _, d := range seeds {
		seen.add(d)
	}
	return seen.out
}

// Distinct returns ds without repeats (orientation sensitive), first
// occurrences in order.
func Distinct(ds []D) []D {
	seen := newDistinct(len(ds), false)
	for _, d := range ds {
		seen.add(d)
	}
	return seen.out
}

// ValidRaised maximally raises each seed and drops those whose raise
// contradicts, deduplicating the result. This is the set D of Theorem 6.1:
// raising rejects every dichotomy Valid rejects, so the filter needs no
// separate validity pass. cs is compiled once for all seeds.
func ValidRaised(seeds []D, cs *constraint.Set) []D {
	c := Compile(cs)
	seen := newDistinct(len(seeds), false)
	for _, d := range seeds {
		r := d.Clone()
		if c.RaiseInPlace(&r) {
			seen.add(r)
		}
	}
	return seen.out
}

// distinct collects dichotomies in arrival order, dropping each one equal
// to a dichotomy already kept: blockwise, or with mirror set also with its
// blocks swapped. A dichotomy's key is the pair of its blocks' hashes
// (bitset.HashWords), L's first or, with mirror set, the smaller first; a
// key match is confirmed with Equal, so a hash collision can never merge
// two different dichotomies.
type distinct struct {
	mirror bool
	first  map[[2]uint64]int32 // key → first kept dichotomy with that key
	next   []int32             // kept dichotomy → next with the same key, or −1
	out    []D
}

// newDistinct returns an empty collection sized for about size
// dichotomies.
func newDistinct(size int, mirror bool) *distinct {
	return &distinct{
		mirror: mirror,
		first:  make(map[[2]uint64]int32, size),
		next:   make([]int32, 0, size),
		out:    make([]D, 0, size),
	}
}

// add keeps d unless an equal dichotomy is kept already.
func (s *distinct) add(d D) {
	l, _ := bitset.HashWords(0, 0, d.L)
	r, _ := bitset.HashWords(0, 0, d.R)
	if s.mirror && r < l {
		l, r = r, l
	}
	k := [2]uint64{l, r}
	j := int32(len(s.out))
	if i, ok := s.first[k]; ok {
		for {
			if e := s.out[i]; e.Equal(d) || s.mirror && e.L.Equal(d.R) && e.R.Equal(d.L) {
				return
			}
			if s.next[i] < 0 {
				break
			}
			i = s.next[i]
		}
		s.next[i] = j
	} else {
		s.first[k] = j
	}
	s.next = append(s.next, -1)
	s.out = append(s.out, d)
}
