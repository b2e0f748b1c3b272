// Package cost implements the three P-3 cost functions of Section 7: the
// number of face constraints violated by an encoding, and the number of
// product terms (cubes) or literals in a two-level implementation of the
// encoded constraints (Figure 9).
//
// For each face constraint I a characteristic function F_I is built whose
// on-set holds the codes of the constraint's members, whose off-set holds
// the codes of all other encoded symbols (except the constraint's encoding
// don't-cares), and whose don't-care set holds the unused codes. Each F_I
// is minimized with the espresso-lite engine; a satisfied constraint yields
// exactly one product term.
//
// F_I is handed to the espresso loop as on and off code lists, through a
// reused espresso.Scratch that returns only the cube and literal counts.
// For codes of at most 7 bits, as in every minimum-length encoding of up
// to 128 symbols, espresso keeps the off- and don't-care sets as 128-bit
// minterm masks instead of complementing a cube cover; the cover it
// minimizes to is the same.
//
// The Evaluator memoizes each face's cost by its F_I and re-keys only the
// faces a move touched, through an index from each symbol to the faces
// that hold it as a member or an encoding don't-care: a face whose key a
// move kept reuses its last cost, which is the entry the memo would
// return, so costs and hit and miss counts equal a full pass. While the
// codes are distinct and of at most 7 bits it keeps each face's on- and
// don't-care code sets as masks, updated by the moved codes, hands a
// miss's off-set to espresso as a mask, and memoizes those faces' costs
// in one flat open-addressing table, which holds each entry inline so
// that a miss allocates nothing but the table's doubling. A single
// pricing, with nothing to reuse, goes through Evaluate or Of directly.
package cost

import (
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/constraint"
	"repro/internal/espresso"
	"repro/internal/hypercube"
)

// Metric selects the objective minimized by the P-3 algorithms.
type Metric int

const (
	// Violations counts unsatisfied face constraints.
	Violations Metric = iota
	// Cubes counts product terms of the encoded constraints.
	Cubes
	// Literals counts SOP literals of the encoded constraints — the
	// multi-level cost approximation used with MIS-MV (Section 9).
	Literals
)

// String names the metric for logs and flags.
func (m Metric) String() string {
	switch m {
	case Violations:
		return "violations"
	case Cubes:
		return "cubes"
	case Literals:
		return "literals"
	default:
		return "unknown"
	}
}

// Assignment is a (possibly partial) encoding over a subset of the symbol
// universe: codes are defined exactly for the symbols in Subset.
type Assignment struct {
	Bits   int
	Subset bitset.Set
	// Codes is indexed by symbol; entries outside Subset are ignored.
	Codes []hypercube.Code
}

// FullAssignment wraps a complete encoding of n symbols.
func FullAssignment(bits int, codes []hypercube.Code) Assignment {
	sub := bitset.New(len(codes))
	for i := range codes {
		sub.Add(i)
	}
	return Assignment{Bits: bits, Subset: sub, Codes: codes}
}

// CountViolations evaluates the violated-face-constraint metric for the
// constraints of cs restricted to the assignment's subset (Section 7.1
// evaluates restricted constraints with a global view).
func CountViolations(cs *constraint.Set, a Assignment) int {
	violated := 0
	for _, f := range cs.Faces {
		if bitset.IntersectLenUpTo(f.Members, a.Subset, 2) < 2 {
			continue
		}
		if !faceSatisfied(f, a) {
			violated++
		}
	}
	return violated
}

// faceSatisfied reports whether the minimal face spanned by the encoded
// member codes contains the code of no other encoded symbol. It never
// materializes the member set or its code list: the span is folded
// incrementally over f.Members ∩ a.Subset and the containment scan walks
// a.Subset word by word, so the violation metric evaluates allocation-free.
func faceSatisfied(f constraint.Face, a Assignment) bool {
	first := true
	var face hypercube.Face
	n := f.Members.WordCount()
	if sw := a.Subset.WordCount(); sw < n {
		n = sw
	}
	for wi := 0; wi < n; wi++ {
		for w := f.Members.Word(wi) & a.Subset.Word(wi); w != 0; w &= w - 1 {
			c := a.Codes[wi*64+bits.TrailingZeros64(w)]
			if first {
				face = hypercube.Span(a.Bits, c)
				first = false
				continue
			}
			// Fold one more vertex into the span, mirroring hypercube.Span.
			face.Mask &^= face.Value ^ c
			face.Value &= face.Mask
		}
	}
	for wi, wc := 0, a.Subset.WordCount(); wi < wc; wi++ {
		for w := a.Subset.Word(wi); w != 0; w &= w - 1 {
			s := wi*64 + bits.TrailingZeros64(w)
			if f.Members.Has(s) || f.DontCare.Has(s) {
				continue
			}
			if face.Contains(a.Codes[s]) {
				return false
			}
		}
	}
	return true
}

// Result carries the two-level costs of an assignment.
type Result struct {
	Violations int
	Cubes      int
	Literals   int
}

// Of projects the result onto one metric.
func (r Result) Of(m Metric) int {
	switch m {
	case Cubes:
		return r.Cubes
	case Literals:
		return r.Literals
	default:
		return r.Violations
	}
}

// Evaluate computes all three metrics of Section 7 for the assignment. The
// cube and literal counts sum the minimized per-constraint characteristic
// functions, as in Figure 9.
func Evaluate(cs *constraint.Set, a Assignment) Result {
	r := Result{Violations: CountViolations(cs, a)}
	var fn charFunc
	var scratch espresso.Scratch
	for _, f := range cs.Faces {
		if bitset.IntersectLenUpTo(f.Members, a.Subset, 2) < 2 {
			continue
		}
		fn.split(f, a)
		cubes, literals := scratch.Count(a.Bits, fn.codes[onRole], fn.codes[offRole])
		r.Cubes += cubes
		r.Literals += literals
	}
	return r
}

// Of evaluates a single metric.
func Of(m Metric, cs *constraint.Set, a Assignment) int {
	switch m {
	case Violations:
		return CountViolations(cs, a)
	case Cubes:
		return Evaluate(cs, a).Cubes
	case Literals:
		return Evaluate(cs, a).Literals
	default:
		panic("cost: unknown metric")
	}
}

// charFunc is the characteristic function F_I of one face constraint
// under an assignment: the codes of the subset's symbols by role, each
// list in subset order.
type charFunc struct {
	codes [3][]uint64 // indexed by role
}

// split builds fn for face f under a. Members outside the subset have no
// code and take no part.
func (fn *charFunc) split(f constraint.Face, a Assignment) {
	for r := range fn.codes {
		fn.codes[r] = fn.codes[r][:0]
	}
	for wi, wc := 0, a.Subset.WordCount(); wi < wc; wi++ {
		for w := a.Subset.Word(wi); w != 0; w &= w - 1 {
			s := wi*64 + bits.TrailingZeros64(w)
			r := roleIn(f, s)
			fn.codes[r] = append(fn.codes[r], a.Codes[s])
		}
	}
}

// role is a subset symbol's part in a face's F_I: in its on-set, its
// off-set, or neither, as one of the face's encoding don't-cares.
type role uint8

const (
	onRole role = iota
	offRole
	dcRole
)

func roleIn(f constraint.Face, s int) role {
	switch {
	case f.Members.Has(s):
		return onRole
	case f.DontCare.Has(s):
		return dcRole
	default:
		return offRole
	}
}
