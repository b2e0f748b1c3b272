// Package core implements the paper's constraint-satisfaction framework:
// the polynomial feasibility check for mixed input and output encoding
// constraints (P-1, Theorem 6.1), the exact minimum-length encoder (P-2,
// Figure 7), the Section-4 binate-covering abstraction, and the Section-8
// extensions (encoding don't-cares, distance-2, non-face and chain
// constraints).
//
// ExactEncodeCtx is the one P-2 entry point for every constraint class. It
// covers with the unate matrix (engine picked by ExactOptions.Backend) when
// only input and output constraints are present, lowers distance-2 and
// non-face constraints to binate clauses solved by internal/sat, and hands
// chain sets to the direct search of SolveWithChains.
//
// # Cancellation and parallelism
//
// The solver entry points (ExactEncodeCtx, SolveWithChains,
// BinateTable.SolveCtx) take a context and thread it into the exponential
// stages — prime generation, the covering search and the chain search — so
// deadlines and cancellation stop them cooperatively.
// ExactOptions.Workers fans the prime enumeration and the covering search
// out over a worker pool. All parallel stages are deterministic: results
// are identical for any worker count.
//
// Types in this package (Encoding, ExactResult, BinateTable, Feasibility)
// are plain data: safe for concurrent reads, unsynchronized for writes.
package core

import (
	"fmt"
	"strings"

	"repro/internal/constraint"
	"repro/internal/dichotomy"
	"repro/internal/hypercube"
	"repro/internal/sym"
)

// Encoding assigns a binary code to every symbol.
type Encoding struct {
	Syms *sym.Table
	Bits int
	// Codes[i] is the code of symbol i in the low Bits bits.
	Codes []hypercube.Code
	// Columns holds the encoding-dichotomies the codes were derived from,
	// one per bit, least-significant first. May be nil for encodings built
	// directly from codes.
	Columns []dichotomy.D
}

// NewEncoding builds an encoding from explicit codes.
func NewEncoding(t *sym.Table, bits int, codes []hypercube.Code) *Encoding {
	return &Encoding{Syms: t, Bits: bits, Codes: codes}
}

// FromColumns derives the codes generated by a list of encoding-dichotomy
// columns: in column j, symbols in the left block receive bit 0, symbols in
// the right block bit 1, and unassigned symbols are completed into the right
// block (bit 1), per the completion argument in the proof of Theorem 6.1.
func FromColumns(t *sym.Table, cols []dichotomy.D) *Encoding {
	n := t.Len()
	codes := make([]hypercube.Code, n)
	for j, col := range cols {
		for s := 0; s < n; s++ {
			if !col.L.Has(s) {
				codes[s] |= 1 << uint(j)
			}
		}
	}
	columns := make([]dichotomy.D, len(cols))
	for i, c := range cols {
		columns[i] = c.Clone()
	}
	return &Encoding{Syms: t, Bits: len(cols), Codes: codes, Columns: columns}
}

// Code returns the code of the named symbol.
func (e *Encoding) Code(name string) (hypercube.Code, bool) {
	i, ok := e.Syms.Lookup(name)
	if !ok {
		return 0, false
	}
	return e.Codes[i], true
}

// CodeString renders symbol i's code as a fixed-width binary string,
// most-significant bit first.
func (e *Encoding) CodeString(i int) string {
	var b strings.Builder
	b.Grow(e.Bits)
	e.writeCode(&b, i)
	return b.String()
}

// writeCode writes symbol i's code as CodeString renders it.
func (e *Encoding) writeCode(b *strings.Builder, i int) {
	for j := e.Bits - 1; j >= 0; j-- {
		b.WriteByte('0' + byte(e.Codes[i]>>uint(j)&1))
	}
}

// String renders the encoding as "sym = code" lines in symbol order.
func (e *Encoding) String() string {
	n := e.Syms.Len()
	size := n * (len(" = \n") + e.Bits)
	for i := 0; i < n; i++ {
		size += len(e.Syms.Name(i))
	}
	var b strings.Builder
	b.Grow(size)
	for i := 0; i < n; i++ {
		b.WriteString(e.Syms.Name(i))
		b.WriteString(" = ")
		e.writeCode(&b, i)
		b.WriteByte('\n')
	}
	return b.String()
}

// Violation describes one failed constraint found by Verify.
type Violation struct {
	Kind   string
	Detail string
}

// String renders the violation as "kind: detail".
func (v Violation) String() string { return v.Kind + ": " + v.Detail }

// Verify independently checks an encoding against a constraint set. It
// knows nothing about dichotomies: face constraints are checked
// geometrically on the hypercube and output constraints bit-wise. It
// returns every violation found (nil means the encoding satisfies all
// constraints, including code uniqueness).
func Verify(cs *constraint.Set, e *Encoding) []Violation {
	var out []Violation
	n := cs.N()
	if len(e.Codes) < n {
		return []Violation{{Kind: "arity", Detail: fmt.Sprintf("encoding has %d codes for %d symbols", len(e.Codes), n)}}
	}
	name := func(i int) string { return cs.Syms.Name(i) }

	// Uniqueness.
	seen := make(map[hypercube.Code]int, n)
	for i := 0; i < n; i++ {
		if j, dup := seen[e.Codes[i]]; dup {
			out = append(out, Violation{Kind: "uniqueness",
				Detail: fmt.Sprintf("%s and %s share code %s", name(j), name(i), e.CodeString(i))})
		} else {
			seen[e.Codes[i]] = i
		}
	}

	for _, f := range cs.Faces {
		var member []hypercube.Code
		f.Members.ForEach(func(s int) bool {
			member = append(member, e.Codes[s])
			return true
		})
		face := hypercube.Span(e.Bits, member...)
		allowed := f.Members.Clone()
		allowed.UnionWith(f.DontCare)
		for s := 0; s < n; s++ {
			if allowed.Has(s) {
				continue
			}
			if face.Contains(e.Codes[s]) {
				out = append(out, Violation{Kind: "face",
					Detail: fmt.Sprintf("%s intrudes into the face of %s", name(s), cs.FaceString(f))})
			}
		}
	}

	for _, d := range cs.Dominances {
		if !hypercube.Covers(e.Codes[d.Big], e.Codes[d.Small]) {
			out = append(out, Violation{Kind: "dominance",
				Detail: fmt.Sprintf("%s > %s fails: %s !> %s", name(d.Big), name(d.Small),
					e.CodeString(d.Big), e.CodeString(d.Small))})
		}
	}

	for _, dj := range cs.Disjunctives {
		var or hypercube.Code
		for _, c := range dj.Children {
			or |= e.Codes[c]
		}
		if or != e.Codes[dj.Parent] {
			out = append(out, Violation{Kind: "disjunctive",
				Detail: fmt.Sprintf("%s != OR of its children", name(dj.Parent))})
		}
	}

	for _, ed := range cs.ExtDisjunctives {
		var or hypercube.Code
		for _, conj := range ed.Conjunctions {
			and := ^hypercube.Code(0)
			for _, c := range conj {
				and &= e.Codes[c]
			}
			or |= and
		}
		if !hypercube.Covers(or, e.Codes[ed.Parent]) {
			out = append(out, Violation{Kind: "ext-disjunctive",
				Detail: fmt.Sprintf("OR of conjunctions does not cover %s", name(ed.Parent))})
		}
	}

	for _, d := range cs.Distance2s {
		if hypercube.Distance(e.Codes[d.A], e.Codes[d.B]) < 2 {
			out = append(out, Violation{Kind: "distance-2",
				Detail: fmt.Sprintf("%s and %s are closer than distance 2", name(d.A), name(d.B))})
		}
	}

	for _, nf := range cs.NonFaces {
		var member []hypercube.Code
		nf.Members.ForEach(func(s int) bool {
			member = append(member, e.Codes[s])
			return true
		})
		face := hypercube.Span(e.Bits, member...)
		intruded := false
		for s := 0; s < n && !intruded; s++ {
			if !nf.Members.Has(s) && face.Contains(e.Codes[s]) {
				intruded = true
			}
		}
		if !intruded {
			out = append(out, Violation{Kind: "non-face",
				Detail: fmt.Sprintf("no symbol intrudes into the face of %s", cs.SymNames(nf.Members))})
		}
	}

	// Chain codes increase by one in binary arithmetic at the code width
	// (the paper's Section-8.4 example wraps 11 -> 00 in two bits).
	chainMask := hypercube.Code(1)<<uint(e.Bits) - 1
	for _, ch := range cs.Chains {
		for i := 0; i+1 < len(ch.Seq); i++ {
			if e.Codes[ch.Seq[i+1]] != (e.Codes[ch.Seq[i]]+1)&chainMask {
				out = append(out, Violation{Kind: "chain",
					Detail: fmt.Sprintf("%s must follow %s numerically", name(ch.Seq[i+1]), name(ch.Seq[i]))})
			}
		}
	}
	return out
}

// SatisfiedFaces returns which face constraints (by index) an encoding
// satisfies; diffcheck's face oracle uses it.
func SatisfiedFaces(cs *constraint.Set, e *Encoding) []bool {
	out := make([]bool, len(cs.Faces))
	n := cs.N()
	for fi, f := range cs.Faces {
		var member []hypercube.Code
		f.Members.ForEach(func(s int) bool {
			member = append(member, e.Codes[s])
			return true
		})
		face := hypercube.Span(e.Bits, member...)
		allowed := f.Members.Clone()
		allowed.UnionWith(f.DontCare)
		ok := true
		for s := 0; s < n && ok; s++ {
			if !allowed.Has(s) && face.Contains(e.Codes[s]) {
				ok = false
			}
		}
		out[fi] = ok
	}
	return out
}
