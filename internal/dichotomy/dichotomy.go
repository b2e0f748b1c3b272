// Package dichotomy implements encoding-dichotomies (Section 3 of the
// paper): 2-block partitions of subsets of the symbols, where the left block
// receives encoding bit 0 and the right block bit 1, together with the
// compatibility, union, covering, validity and raising operations the
// constraint-satisfaction framework is built from.
package dichotomy

import (
	"strings"

	"repro/internal/bitset"
	"repro/internal/constraint"
	"repro/internal/sym"
)

// D is an encoding-dichotomy (L; R). Symbols in L are assigned bit 0 and
// symbols in R bit 1 in the encoding column this dichotomy generates.
// Symbols in neither block are unassigned by this column.
type D struct {
	L, R bitset.Set
}

// New returns the dichotomy (L; R) over the given index sets (cloned).
func New(l, r bitset.Set) D {
	return D{L: l.Clone(), R: r.Clone()}
}

// Of builds a dichotomy from explicit element slices; convenient in tests.
func Of(l, r []int) D {
	return D{L: bitset.FromSlice(l), R: bitset.FromSlice(r)}
}

// Clone returns an independent copy.
func (d D) Clone() D {
	return D{L: d.L.Clone(), R: d.R.Clone()}
}

// Mirror returns the dichotomy with blocks swapped: (R; L).
func (d D) Mirror() D {
	return D{L: d.R.Clone(), R: d.L.Clone()}
}

// Support returns the set of symbols assigned by the dichotomy.
func (d D) Support() bitset.Set {
	return bitset.Union(d.L, d.R)
}

// WellFormed reports whether the blocks are disjoint.
func (d D) WellFormed() bool {
	return !d.L.Intersects(d.R)
}

// Compatible reports whether d and e can be merged into one column
// (Definition 3.2): the left block of each is disjoint from the right block
// of the other.
func (d D) Compatible(e D) bool {
	return !d.L.Intersects(e.R) && !d.R.Intersects(e.L)
}

// Union returns the union dichotomy (Definition 3.3). It must only be called
// on compatible dichotomies.
func Union(d, e D) D {
	return D{L: bitset.Union(d.L, e.L), R: bitset.Union(d.R, e.R)}
}

// Covers reports whether d covers e (Definition 3.4): e's blocks are subsets
// of d's blocks in either the same or the swapped orientation.
func (d D) Covers(e D) bool {
	return (e.L.SubsetOf(d.L) && e.R.SubsetOf(d.R)) ||
		(e.L.SubsetOf(d.R) && e.R.SubsetOf(d.L))
}

// Equal reports block-wise equality (orientation sensitive).
func (d D) Equal(e D) bool {
	return d.L.Equal(e.L) && d.R.Equal(e.R)
}

// Key returns a canonical orientation-sensitive map key.
func (d D) Key() string {
	return d.L.Key() + "|" + d.R.Key()
}

// Separates reports whether the dichotomy assigns a and b to opposite
// blocks.
func (d D) Separates(a, b int) bool {
	return (d.L.Has(a) && d.R.Has(b)) || (d.R.Has(a) && d.L.Has(b))
}

// String renders the dichotomy with raw indices, e.g. "(0,2; 1,3)".
func (d D) String() string {
	return "(" + trim(d.L.String()) + "; " + trim(d.R.String()) + ")"
}

// Format renders the dichotomy with symbol names from t.
func (d D) Format(t *sym.Table) string {
	name := func(s bitset.Set) string {
		var parts []string
		s.ForEach(func(e int) bool {
			parts = append(parts, t.Name(e))
			return true
		})
		return strings.Join(parts, " ")
	}
	return "(" + name(d.L) + "; " + name(d.R) + ")"
}

func trim(s string) string {
	return strings.TrimSuffix(strings.TrimPrefix(s, "{"), "}")
}

// Valid reports whether the dichotomy can be extended to a complete encoding
// column that satisfies the output constraints in cs (Definition 3.6, and
// procedure remove_invalid_dichotomies in Figure 5):
//
//   - dominance a > b fails iff a ∈ L and b ∈ R;
//   - disjunctive p = ∨cᵢ fails iff p ∈ L with some child in R, or p ∈ R
//     with every child in L;
//   - extended disjunctive ∨ⱼ∧ᵢcⱼᵢ ≥ p fails iff p ∈ R and every conjunction
//     has a symbol in L.
//
// A dichotomy with overlapping blocks is never valid.
func Valid(d D, cs *constraint.Set) bool {
	if !d.WellFormed() {
		return false
	}
	for _, dom := range cs.Dominances {
		if d.L.Has(dom.Big) && d.R.Has(dom.Small) {
			return false
		}
	}
	for _, dj := range cs.Disjunctives {
		if d.L.Has(dj.Parent) {
			for _, c := range dj.Children {
				if d.R.Has(c) {
					return false
				}
			}
		}
		if d.R.Has(dj.Parent) {
			allLeft := true
			for _, c := range dj.Children {
				if !d.L.Has(c) {
					allLeft = false
					break
				}
			}
			if allLeft {
				return false
			}
		}
	}
	for _, ed := range cs.ExtDisjunctives {
		if !d.R.Has(ed.Parent) {
			continue
		}
		allHit := true
		for _, conj := range ed.Conjunctions {
			hit := false
			for _, c := range conj {
				if d.L.Has(c) {
					hit = true
					break
				}
			}
			if !hit {
				allHit = false
				break
			}
		}
		if allHit {
			return false
		}
	}
	return true
}

// Raise maximally raises d with respect to the output constraints in cs
// (Definitions 6.1/6.2, procedure raise_dichotomy in Figure 5): symbols
// forced by the constraints are inserted into the blocks until a fix-point.
// It compiles cs for this one call; raising many dichotomies under one set
// should compile it once (Compile) and raise with Closure.RaiseInPlace.
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
// (some symbol forced into both blocks); such dichotomies must be
// discarded. Every dichotomy Valid rejects fails to raise, and a
// contradiction-free fix-point violates no output constraint, so ok
// doubles as the validity filter of procedure remove_invalid_dichotomies.
// The fix-point does not depend on the order the rules fire in, so the
// raised dichotomy is unique whenever ok holds; when ok is false the
// returned blocks are a partial raise and carry no meaning.
func Raise(d D, cs *constraint.Set) (D, bool) {
	r := d.Clone()
	return r, Compile(cs).RaiseInPlace(&r)
}

// Closure is a constraint set's output constraints compiled for raising.
// Every dominance edge and every disjunctive's implied parent > child edge
// is closed transitively into per-symbol bitsets, so closing a block under
// all of them is one OR per symbol of the block; the disjunctive and
// extended-disjunctive rules that read several symbols at once are kept
// beside them. A Closure is immutable and safe for concurrent use.
type Closure struct {
	// below[a] holds every b that a dominates, directly or transitively
	// (a∈L ⇒ b∈L); above[b] holds every a dominating b (b∈R ⇒ a∈R).
	below, above []bitset.Set
	disj         []constraint.Disjunctive
	ext          []constraint.ExtDisjunctive
}

// Compile builds the Closure of cs's dominance, disjunctive and extended
// disjunctive constraints.
func Compile(cs *constraint.Set) *Closure {
	n := cs.N()
	for _, dom := range cs.Dominances {
		n = max(n, dom.Big+1, dom.Small+1)
	}
	for _, dj := range cs.Disjunctives {
		n = max(n, dj.Parent+1)
		for _, c := range dj.Children {
			n = max(n, c+1)
		}
	}
	c := &Closure{
		below: make([]bitset.Set, n),
		above: make([]bitset.Set, n),
		disj:  append([]constraint.Disjunctive(nil), cs.Disjunctives...),
		ext:   append([]constraint.ExtDisjunctive(nil), cs.ExtDisjunctives...),
	}
	slab := bitset.NewSlab(n)
	for i := range c.below {
		c.below[i] = slab.Get()
		c.above[i] = slab.Get()
	}
	for _, dom := range cs.Dominances {
		c.below[dom.Big].Add(dom.Small)
	}
	for _, dj := range cs.Disjunctives {
		for _, ch := range dj.Children {
			c.below[dj.Parent].Add(ch)
		}
	}
	// Warshall: after step k, below[i] holds every symbol reachable from i
	// through intermediate symbols < k+1.
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if c.below[i].Has(k) {
				c.below[i].UnionWith(c.below[k])
			}
		}
	}
	for a := range c.below {
		c.below[a].ForEach(func(b int) bool {
			c.above[b].Add(a)
			return true
		})
	}
	return c
}

// RaiseInPlace raises d to its fix-point in place and reports whether the
// fix-point is contradiction-free; when it is not, d is left partially
// raised. Raising an already raised dichotomy under a larger constraint set
// gives the same result as raising the original from scratch, which is what
// lets callers re-raise incrementally as a set grows.
func (c *Closure) RaiseInPlace(d *D) bool {
	for {
		closeUnder(&d.L, c.below)
		closeUnder(&d.R, c.above)
		if d.L.Intersects(d.R) {
			return false
		}
		changed := false
		for _, dj := range c.disj {
			notLeft, numNotLeft := -1, 0
			for _, ch := range dj.Children {
				if !d.L.Has(ch) {
					notLeft = ch
					numNotLeft++
				}
			}
			// All children 0 forces the parent to 0; parent 1 with a single
			// candidate child forces that child to 1.
			if numNotLeft == 0 && !d.L.Has(dj.Parent) {
				d.L.Add(dj.Parent)
				changed = true
			}
			if numNotLeft == 1 && d.R.Has(dj.Parent) && !d.R.Has(notLeft) {
				d.R.Add(notLeft)
				changed = true
			}
		}
		for _, ed := range c.ext {
			unhit, numUnhit := -1, 0
			for ci, conj := range ed.Conjunctions {
				if !hitsAny(d.L, conj) {
					unhit = ci
					numUnhit++
				}
			}
			if numUnhit == 0 && !d.L.Has(ed.Parent) {
				d.L.Add(ed.Parent)
				changed = true
			}
			if numUnhit == 1 && d.R.Has(ed.Parent) {
				for _, s := range ed.Conjunctions[unhit] {
					if !d.R.Has(s) {
						d.R.Add(s)
						changed = true
					}
				}
			}
		}
		if !changed {
			return true
		}
	}
}

// closeUnder adds edges[e] to s for every element e of s. The edge sets are
// transitively closed, so one pass reaches the fix-point; elements the pass
// adds are visited too, which costs an OR but adds nothing.
func closeUnder(s *bitset.Set, edges []bitset.Set) {
	for e, ok := s.Min(); ok && e < len(edges); e, ok = s.NextSet(e + 1) {
		s.UnionWith(edges[e])
	}
}

// hitsAny reports whether some symbol of conj is in s.
func hitsAny(s bitset.Set, conj []int) bool {
	for _, c := range conj {
		if s.Has(c) {
			return true
		}
	}
	return false
}

// CoveredBySome reports whether any dichotomy in ds covers d.
func CoveredBySome(d D, ds []D) bool {
	for _, e := range ds {
		if e.Covers(d) {
			return true
		}
	}
	return false
}
