package constraint

import (
	"slices"

	"repro/internal/bitset"
	"repro/internal/sym"
)

// MapInto appends every constraint of s, in order, to the set dst returns
// for the constraint's first symbol, with each symbol i renamed to[i]; a
// nil to keeps every index. The first symbol is a face's or non-face's
// smallest member, a dominance's Big, a disjunctive's or extended
// disjunctive's Parent, a distance-2's A and a chain's Seq[0], or -1 when
// the constraint names no symbol. A face keeps only the don't-cares that
// dst sends to the face's own set. The appended constraints share no
// memory with s, and each target's table must already hold the renamed
// symbols.
func (s *Set) MapInto(to []int, dst func(first int) *Set) {
	rename := func(i int) int {
		if to == nil {
			return i
		}
		return to[i]
	}
	ints := func(xs []int) []int {
		out := make([]int, len(xs))
		for i, x := range xs {
			out[i] = rename(x)
		}
		return out
	}
	members := func(m bitset.Set) (bitset.Set, int) {
		var out bitset.Set
		m.ForEach(func(e int) bool { out.Add(rename(e)); return true })
		first, ok := m.Min()
		if !ok {
			first = -1
		}
		return out, first
	}
	head := func(xs []int) int {
		if len(xs) == 0 {
			return -1
		}
		return xs[0]
	}

	for _, f := range s.Faces {
		m, first := members(f.Members)
		t := dst(first)
		var dc bitset.Set
		f.DontCare.ForEach(func(e int) bool {
			if dst(e) == t {
				dc.Add(rename(e))
			}
			return true
		})
		t.Faces = append(t.Faces, Face{Members: m, DontCare: dc})
	}
	for _, d := range s.Dominances {
		t := dst(d.Big)
		t.Dominances = append(t.Dominances, Dominance{Big: rename(d.Big), Small: rename(d.Small)})
	}
	for _, d := range s.Disjunctives {
		t := dst(d.Parent)
		t.Disjunctives = append(t.Disjunctives, Disjunctive{Parent: rename(d.Parent), Children: ints(d.Children)})
	}
	for _, e := range s.ExtDisjunctives {
		ne := ExtDisjunctive{Parent: rename(e.Parent)}
		for _, conj := range e.Conjunctions {
			ne.Conjunctions = append(ne.Conjunctions, ints(conj))
		}
		t := dst(e.Parent)
		t.ExtDisjunctives = append(t.ExtDisjunctives, ne)
	}
	for _, d := range s.Distance2s {
		t := dst(d.A)
		t.Distance2s = append(t.Distance2s, Distance2{A: rename(d.A), B: rename(d.B)})
	}
	for _, nf := range s.NonFaces {
		m, first := members(nf.Members)
		t := dst(first)
		t.NonFaces = append(t.NonFaces, NonFace{Members: m})
	}
	for _, ch := range s.Chains {
		t := dst(head(ch.Seq))
		t.Chains = append(t.Chains, Chain{Seq: ints(ch.Seq)})
	}
}

// Clone returns a deep copy of the set sharing the symbol table.
func (s *Set) Clone() *Set {
	c := NewSet(s.Syms)
	s.MapInto(nil, func(int) *Set { return c })
	return c
}

// Len returns the number of constraints in the set, over all seven
// classes.
func (s *Set) Len() int {
	return len(s.Faces) + len(s.Dominances) + len(s.Disjunctives) + len(s.ExtDisjunctives) +
		len(s.Distance2s) + len(s.NonFaces) + len(s.Chains)
}

// Without returns a deep copy of the set, sharing the symbol table, minus
// its i-th constraint in the flat order faces, dominances, disjunctives,
// extended disjunctives, distance-2s, non-faces, chains. An i outside
// [0, Len()) drops nothing.
func (s *Set) Without(i int) *Set {
	c := s.Clone()
	c.Faces, i = cut(c.Faces, i)
	c.Dominances, i = cut(c.Dominances, i)
	c.Disjunctives, i = cut(c.Disjunctives, i)
	c.ExtDisjunctives, i = cut(c.ExtDisjunctives, i)
	c.Distance2s, i = cut(c.Distance2s, i)
	c.NonFaces, i = cut(c.NonFaces, i)
	c.Chains, _ = cut(c.Chains, i)
	return c
}

// cut deletes xs[i] when i indexes xs and returns -1 in its place, so no
// later list loses an element; otherwise it returns i re-based past xs.
func cut[T any](xs []T, i int) ([]T, int) {
	switch {
	case i < 0:
		return xs, i
	case i < len(xs):
		return slices.Delete(xs, i, i+1), -1
	}
	return xs, i - len(xs)
}

// Dedupe drops, in place, every constraint whose canonical line (see
// Canonical) an earlier constraint already has, so a repeated constraint
// goes however its unordered groups are spelled. It returns the canonical
// form of the set it leaves, assembled from the same lines, so a caller
// that hashes the deduplicated set renders it once.
func (s *Set) Dedupe() (canonical string) {
	names := s.Syms.SortedNames()
	_, lines := s.render(names)
	seen := make(map[string]bool, len(lines))
	dup := make([]bool, len(lines))
	kept := lines[:0]
	for i, l := range lines {
		dup[i] = seen[string(l)]
		if !dup[i] {
			seen[string(l)] = true
			kept = append(kept, l)
		}
	}
	s.Faces, dup = keep(s.Faces, dup)
	s.Dominances, dup = keep(s.Dominances, dup)
	s.Disjunctives, dup = keep(s.Disjunctives, dup)
	s.ExtDisjunctives, dup = keep(s.ExtDisjunctives, dup)
	s.Distance2s, dup = keep(s.Distance2s, dup)
	s.NonFaces, dup = keep(s.NonFaces, dup)
	s.Chains, _ = keep(s.Chains, dup)
	return assemble(names, kept)
}

// keep filters xs in place to the elements whose dup flag is clear and
// returns the flags of the lists after it.
func keep[T any](xs []T, dup []bool) ([]T, []bool) {
	out := xs[:0]
	for i, x := range xs {
		if !dup[i] {
			out = append(out, x)
		}
	}
	return out, dup[len(xs):]
}

// Compact returns the set rebuilt over a fresh symbol table containing only
// the symbols some constraint references, preserving relative index order,
// together with the mapping from new index to old index. Constraint order
// is unchanged. The shrinker in internal/diffcheck uses it to cut unused
// symbols out of a minimized reproducer.
func (s *Set) Compact() (*Set, []int) {
	used := bitset.New(s.N())
	mark := func(i int) { used.Add(i) }
	for _, f := range s.Faces {
		f.Members.ForEach(func(e int) bool { mark(e); return true })
		f.DontCare.ForEach(func(e int) bool { mark(e); return true })
	}
	for _, d := range s.Dominances {
		mark(d.Big)
		mark(d.Small)
	}
	for _, d := range s.Disjunctives {
		mark(d.Parent)
		for _, c := range d.Children {
			mark(c)
		}
	}
	for _, e := range s.ExtDisjunctives {
		mark(e.Parent)
		for _, conj := range e.Conjunctions {
			for _, c := range conj {
				mark(c)
			}
		}
	}
	for _, d := range s.Distance2s {
		mark(d.A)
		mark(d.B)
	}
	for _, nf := range s.NonFaces {
		nf.Members.ForEach(func(e int) bool { mark(e); return true })
	}
	for _, ch := range s.Chains {
		for _, e := range ch.Seq {
			mark(e)
		}
	}

	oldToNew := make([]int, s.N())
	var newToOld []int
	table := sym.NewTable()
	for i := 0; i < s.N(); i++ {
		if used.Has(i) {
			oldToNew[i] = table.Intern(s.Syms.Name(i))
			newToOld = append(newToOld, i)
		} else {
			oldToNew[i] = -1
		}
	}
	c := NewSet(table)
	s.MapInto(oldToNew, func(int) *Set { return c })
	return c, newToOld
}
