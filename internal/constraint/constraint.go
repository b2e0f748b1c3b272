// Package constraint models the encoding constraints produced by symbolic
// minimization: face-embedding (input) constraints — optionally with encoding
// don't-cares — and dominance, disjunctive and extended disjunctive (output)
// constraints, plus the distance-2, non-face and chain constraints discussed
// in Section 8 of the paper.
//
// A Set bundles the constraints together with the symbol table they are
// defined over. Symbols are referred to by dense indices from sym.Table.
package constraint

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/bitset"
	"repro/internal/sym"
)

// Face is a face-embedding constraint: the codes of Members must span a face
// of the encoding hypercube that contains no code of a symbol outside
// Members ∪ DontCare. Symbols in DontCare are free to lie inside or outside
// the face (Section 8.1).
type Face struct {
	Members  bitset.Set
	DontCare bitset.Set
}

// Dominance requires code(Big) to bit-wise cover code(Small): Big > Small.
type Dominance struct {
	Big   int
	Small int
}

// Disjunctive requires code(Parent) to equal the bit-wise OR of the codes of
// Children.
type Disjunctive struct {
	Parent   int
	Children []int
}

// ExtDisjunctive is a disjunction of conjunctions constraint in the reduced
// "≥" form derived in Section 6.2:
//
//	(∧ Conjunctions[0]) ∨ (∧ Conjunctions[1]) ∨ … ≥ Parent
//
// In every bit where Parent's code holds 1, at least one conjunction must
// have all of its symbols holding 1.
type ExtDisjunctive struct {
	Parent       int
	Conjunctions [][]int
}

// Distance2 requires the codes of A and B to differ in at least two bits
// (Section 8.2).
type Distance2 struct {
	A, B int
}

// NonFace requires that the minimal face spanned by the codes of Members
// contains the code of at least one symbol outside Members (Section 8.3).
type NonFace struct {
	Members bitset.Set
}

// Chain requires consecutive symbols in Seq to receive consecutive binary
// codes (Section 8.4); code(Seq[i+1]) = code(Seq[i]) + 1.
type Chain struct {
	Seq []int
}

// Set is a collection of encoding constraints over a shared symbol table.
type Set struct {
	Syms            *sym.Table
	Faces           []Face
	Dominances      []Dominance
	Disjunctives    []Disjunctive
	ExtDisjunctives []ExtDisjunctive
	Distance2s      []Distance2
	NonFaces        []NonFace
	Chains          []Chain
}

// NewSet returns an empty constraint set over the given symbol table.
// A nil table is replaced by a fresh one.
func NewSet(t *sym.Table) *Set {
	if t == nil {
		t = sym.NewTable()
	}
	return &Set{Syms: t}
}

// N returns the number of symbols in the universe.
func (s *Set) N() int { return s.Syms.Len() }

// HasOutputConstraints reports whether any dominance, disjunctive or
// extended disjunctive constraint is present.
func (s *Set) HasOutputConstraints() bool {
	return len(s.Dominances) > 0 || len(s.Disjunctives) > 0 || len(s.ExtDisjunctives) > 0
}

// HasExtensionConstraints reports whether any Section-8 extension constraint
// (distance-2, non-face, chain) is present.
func (s *Set) HasExtensionConstraints() bool {
	return len(s.Distance2s) > 0 || len(s.NonFaces) > 0 || len(s.Chains) > 0
}

// AddFace appends a face constraint over the named symbols, interning any
// new names, and returns its index within Faces.
func (s *Set) AddFace(names ...string) int {
	var m bitset.Set
	for _, n := range names {
		m.Add(s.Syms.Intern(n))
	}
	s.Faces = append(s.Faces, Face{Members: m})
	return len(s.Faces) - 1
}

// AddFaceDC appends a face constraint with don't-care symbols.
func (s *Set) AddFaceDC(members, dontCare []string) int {
	var m, d bitset.Set
	for _, n := range members {
		m.Add(s.Syms.Intern(n))
	}
	for _, n := range dontCare {
		d.Add(s.Syms.Intern(n))
	}
	s.Faces = append(s.Faces, Face{Members: m, DontCare: d})
	return len(s.Faces) - 1
}

// AddFaceSet appends a face constraint given index sets directly.
func (s *Set) AddFaceSet(members, dontCare bitset.Set) int {
	s.Faces = append(s.Faces, Face{Members: members, DontCare: dontCare})
	return len(s.Faces) - 1
}

// AddDominance appends big > small.
func (s *Set) AddDominance(big, small string) {
	s.Dominances = append(s.Dominances, Dominance{
		Big:   s.Syms.Intern(big),
		Small: s.Syms.Intern(small),
	})
}

// AddDisjunctive appends parent = child1 ∨ child2 ∨ ….
func (s *Set) AddDisjunctive(parent string, children ...string) {
	d := Disjunctive{Parent: s.Syms.Intern(parent)}
	for _, c := range children {
		d.Children = append(d.Children, s.Syms.Intern(c))
	}
	s.Disjunctives = append(s.Disjunctives, d)
}

// AddExtDisjunctive appends (∧conj1) ∨ (∧conj2) ∨ … ≥ parent.
func (s *Set) AddExtDisjunctive(parent string, conjunctions ...[]string) {
	e := ExtDisjunctive{Parent: s.Syms.Intern(parent)}
	for _, conj := range conjunctions {
		var ids []int
		for _, c := range conj {
			ids = append(ids, s.Syms.Intern(c))
		}
		e.Conjunctions = append(e.Conjunctions, ids)
	}
	s.ExtDisjunctives = append(s.ExtDisjunctives, e)
}

// AddDistance2 appends a distance-2 constraint between a and b.
func (s *Set) AddDistance2(a, b string) {
	s.Distance2s = append(s.Distance2s, Distance2{A: s.Syms.Intern(a), B: s.Syms.Intern(b)})
}

// AddNonFace appends a non-face constraint over the named symbols.
func (s *Set) AddNonFace(names ...string) {
	var m bitset.Set
	for _, n := range names {
		m.Add(s.Syms.Intern(n))
	}
	s.NonFaces = append(s.NonFaces, NonFace{Members: m})
}

// AddChain appends a chain constraint over the named symbols in order.
func (s *Set) AddChain(names ...string) {
	c := Chain{}
	for _, n := range names {
		c.Seq = append(c.Seq, s.Syms.Intern(n))
	}
	s.Chains = append(s.Chains, c)
}

// Validate checks structural sanity: indices in range, face members disjoint
// from their don't-cares, disjunctive/extended constraints non-degenerate,
// chains free of repeats.
func (s *Set) Validate() error {
	n := s.N()
	in := func(i int) bool { return i >= 0 && i < n }
	for fi, f := range s.Faces {
		if f.Members.IsEmpty() {
			return fmt.Errorf("constraint: face %d has no members", fi)
		}
		if f.Members.Intersects(f.DontCare) {
			return fmt.Errorf("constraint: face %d has overlapping members and don't-cares", fi)
		}
		bad := false
		f.Members.ForEach(func(e int) bool { bad = bad || !in(e); return true })
		f.DontCare.ForEach(func(e int) bool { bad = bad || !in(e); return true })
		if bad {
			return fmt.Errorf("constraint: face %d references unknown symbol", fi)
		}
	}
	for di, d := range s.Dominances {
		if !in(d.Big) || !in(d.Small) {
			return fmt.Errorf("constraint: dominance %d references unknown symbol", di)
		}
		if d.Big == d.Small {
			return fmt.Errorf("constraint: dominance %d is reflexive", di)
		}
	}
	for di, d := range s.Disjunctives {
		if !in(d.Parent) {
			return fmt.Errorf("constraint: disjunctive %d has unknown parent", di)
		}
		if len(d.Children) == 0 {
			return fmt.Errorf("constraint: disjunctive %d has no children", di)
		}
		for _, c := range d.Children {
			if !in(c) {
				return fmt.Errorf("constraint: disjunctive %d has unknown child", di)
			}
			if c == d.Parent {
				return fmt.Errorf("constraint: disjunctive %d lists its parent as a child", di)
			}
		}
	}
	for ei, e := range s.ExtDisjunctives {
		if !in(e.Parent) {
			return fmt.Errorf("constraint: ext-disjunctive %d has unknown parent", ei)
		}
		if len(e.Conjunctions) == 0 {
			return fmt.Errorf("constraint: ext-disjunctive %d has no conjunctions", ei)
		}
		for _, conj := range e.Conjunctions {
			if len(conj) == 0 {
				return fmt.Errorf("constraint: ext-disjunctive %d has an empty conjunction", ei)
			}
			for _, c := range conj {
				if !in(c) {
					return fmt.Errorf("constraint: ext-disjunctive %d has unknown symbol", ei)
				}
			}
		}
	}
	for di, d := range s.Distance2s {
		if !in(d.A) || !in(d.B) || d.A == d.B {
			return fmt.Errorf("constraint: distance-2 %d is malformed", di)
		}
	}
	for ni, nf := range s.NonFaces {
		if nf.Members.Len() < 2 {
			return fmt.Errorf("constraint: non-face %d needs at least two members", ni)
		}
		bad := false
		nf.Members.ForEach(func(e int) bool { bad = bad || !in(e); return true })
		if bad {
			return fmt.Errorf("constraint: non-face %d references unknown symbol", ni)
		}
	}
	for ci, ch := range s.Chains {
		if len(ch.Seq) < 2 {
			return fmt.Errorf("constraint: chain %d needs at least two symbols", ci)
		}
		seen := map[int]bool{}
		for _, e := range ch.Seq {
			if !in(e) {
				return fmt.Errorf("constraint: chain %d references unknown symbol", ci)
			}
			if seen[e] {
				return fmt.Errorf("constraint: chain %d repeats a symbol", ci)
			}
			seen[e] = true
		}
	}
	return nil
}

// SymNames renders a bitset of symbol indices as comma-separated names.
func (s *Set) SymNames(m bitset.Set) string { return s.symList(m) }

// symList renders a bitset of symbol indices as comma-separated names.
func (s *Set) symList(m bitset.Set) string {
	var parts []string
	m.ForEach(func(e int) bool {
		parts = append(parts, s.Syms.Name(e))
		return true
	})
	return strings.Join(parts, ",")
}

// FaceString renders face constraint f in the paper's notation, e.g.
// "(a,b,[c,d],e)" with don't-cares bracketed.
func (s *Set) FaceString(f Face) string {
	var b strings.Builder
	b.WriteByte('(')
	b.WriteString(s.symList(f.Members))
	if !f.DontCare.IsEmpty() {
		b.WriteString(",[")
		b.WriteString(s.symList(f.DontCare))
		b.WriteByte(']')
	}
	b.WriteByte(')')
	return b.String()
}

// String renders the whole set in the textual constraint language accepted
// by Parse.
func (s *Set) String() string {
	b, _ := s.render(nil)
	return string(b)
}

// Canonical renders the set in a normal form that two sets share exactly
// when they denote the same problem: the same symbol names and the same
// constraints, whatever order the symbols were interned in, the
// constraints were listed in, or the members of an unordered group were
// written in. A header lists the symbol names in sorted order, each
// prefixed by its length so that no name can alias a run of others. The
// constraints' lines follow, sorted: each is the constraint's String line
// with every symbol written as its position in the header and every
// unordered group sorted (face members and don't-cares, disjunctive
// children, each conjunction and the list of conjunctions, a distance-2
// pair, non-face members). Dominance direction and chain order carry
// meaning and stay as written, and repeated constraints stay significant.
func (s *Set) Canonical() string {
	names := s.Syms.SortedNames()
	_, lines := s.render(names)
	return assemble(names, lines)
}

// assemble returns the canonical form of the set whose sorted symbol names
// and canonical lines are given; it sorts lines in place.
func assemble(names []string, lines [][]byte) string {
	slices.SortFunc(lines, bytes.Compare)
	size := 12*len(names) + 8
	for _, l := range lines {
		size += len(l)
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString("symbols")
	for _, name := range names {
		b.WriteByte(' ')
		b.WriteString(strconv.Itoa(len(name)))
		b.WriteByte(':')
		b.WriteString(name)
	}
	b.WriteByte('\n')
	for _, l := range lines {
		b.Write(l)
	}
	return b.String()
}

// render writes every constraint as one line of the textual language, in
// the flat order Len and Without use, and returns the text and each line,
// newline included. With sorted nil the lines are String's. Otherwise
// sorted holds the symbol names in order and the lines are Canonical's.
func (s *Set) render(sorted []string) (b []byte, lines [][]byte) {
	b, lines = make([]byte, 0, 24*s.Len()), make([][]byte, 0, s.Len())
	ids := make([]int, 0, s.N())
	var rank, tmp []int
	if sorted != nil {
		rank, tmp = make([]int, len(sorted)), make([]int, 0, len(sorted))
		for r, name := range sorted {
			i, _ := s.Syms.Lookup(name)
			rank[i] = r
		}
	}
	byRank := func(x, y int) int { return rank[x] - rank[y] }
	sym := func(x int) {
		if rank == nil {
			b = append(b, s.Syms.Name(x)...)
		} else {
			b = strconv.AppendInt(b, int64(rank[x]), 10)
		}
	}
	group := func(sep string, xs ...int) {
		if rank != nil {
			tmp = append(tmp[:0], xs...)
			slices.SortFunc(tmp, byRank)
			xs = tmp
		}
		for i, x := range xs {
			if i > 0 {
				b = append(b, sep...)
			}
			sym(x)
		}
	}
	set := func(m bitset.Set) {
		ids = m.AppendTo(ids[:0])
		group(" ", ids...)
	}
	// Each line is a view of b capped at its end: later appends to b only
	// write past it, and an append to a line copies it.
	start := 0
	end := func() {
		b = append(b, '\n')
		lines = append(lines, b[start:len(b):len(b)])
		start = len(b)
	}
	for _, f := range s.Faces {
		b = append(b, "face "...)
		set(f.Members)
		if !f.DontCare.IsEmpty() {
			b = append(b, " [ "...)
			set(f.DontCare)
			b = append(b, " ]"...)
		}
		end()
	}
	for _, d := range s.Dominances {
		b = append(b, "dom "...)
		sym(d.Big)
		b = append(b, " > "...)
		sym(d.Small)
		end()
	}
	for _, d := range s.Disjunctives {
		b = append(b, "disj "...)
		sym(d.Parent)
		b = append(b, " ="...)
		if len(d.Children) > 0 {
			b = append(b, ' ')
		}
		group(" | ", d.Children...)
		end()
	}
	for _, e := range s.ExtDisjunctives {
		conjs := e.Conjunctions
		if rank != nil {
			conjs = make([][]int, len(conjs))
			for i, c := range e.Conjunctions {
				conjs[i] = slices.Clone(c)
				slices.SortFunc(conjs[i], byRank)
			}
			slices.SortFunc(conjs, func(x, y []int) int { return slices.CompareFunc(x, y, byRank) })
		}
		b = append(b, "extdisj"...)
		for i, conj := range conjs {
			if i > 0 {
				b = append(b, " |"...)
			}
			b = append(b, " ("...)
			group(" & ", conj...)
			b = append(b, ')')
		}
		b = append(b, " >= "...)
		sym(e.Parent)
		end()
	}
	for _, d := range s.Distance2s {
		b = append(b, "dist2 "...)
		group(" ", d.A, d.B)
		end()
	}
	for _, nf := range s.NonFaces {
		b = append(b, "nonface "...)
		set(nf.Members)
		end()
	}
	for _, ch := range s.Chains {
		b = append(b, "chain"...)
		for _, x := range ch.Seq {
			b = append(b, ' ')
			sym(x)
		}
		end()
	}
	return b, lines
}

// Restrict returns the constraint set restricted to the symbols in keep
// (Section 7.1, Definition 7.1 applied to constraints): face and non-face
// members are intersected with keep, output constraints are retained only
// when all their symbols survive, chains are cut at removed symbols.
// Restricted face constraints with fewer than two members are dropped.
// The returned set shares the symbol table; indices are unchanged.
func (s *Set) Restrict(keep bitset.Set) *Set {
	r := NewSet(s.Syms)
	for _, f := range s.Faces {
		m := bitset.Intersect(f.Members, keep)
		if m.Len() < 2 {
			continue
		}
		r.Faces = append(r.Faces, Face{Members: m, DontCare: bitset.Intersect(f.DontCare, keep)})
	}
	for _, d := range s.Dominances {
		if keep.Has(d.Big) && keep.Has(d.Small) {
			r.Dominances = append(r.Dominances, d)
		}
	}
	for _, d := range s.Disjunctives {
		if !keep.Has(d.Parent) {
			continue
		}
		ok := true
		for _, c := range d.Children {
			if !keep.Has(c) {
				ok = false
				break
			}
		}
		if ok {
			r.Disjunctives = append(r.Disjunctives, d)
		}
	}
	for _, e := range s.ExtDisjunctives {
		if !keep.Has(e.Parent) {
			continue
		}
		ok := true
		for _, conj := range e.Conjunctions {
			for _, c := range conj {
				if !keep.Has(c) {
					ok = false
				}
			}
		}
		if ok {
			r.ExtDisjunctives = append(r.ExtDisjunctives, e)
		}
	}
	for _, d := range s.Distance2s {
		if keep.Has(d.A) && keep.Has(d.B) {
			r.Distance2s = append(r.Distance2s, d)
		}
	}
	for _, nf := range s.NonFaces {
		m := bitset.Intersect(nf.Members, keep)
		if m.Len() >= 2 {
			r.NonFaces = append(r.NonFaces, NonFace{Members: m})
		}
	}
	for _, ch := range s.Chains {
		var run []int
		flush := func() {
			if len(run) >= 2 {
				r.Chains = append(r.Chains, Chain{Seq: append([]int(nil), run...)})
			}
			run = nil
		}
		for _, e := range ch.Seq {
			if keep.Has(e) {
				run = append(run, e)
			} else {
				flush()
			}
		}
		flush()
	}
	return r
}
