// Package espresso implements a compact two-level logic minimizer in the
// style of ESPRESSO (expand / irredundant / reduce over cube covers),
// sufficient for the paper's cost-function evaluation (Section 7, Figure 9)
// and the encoded-PLA back-end. Functions are limited to 64 binary inputs,
// far beyond any encoding produced here. Functions of at most 7 inputs
// given by minterms (MinimizeMinterms) keep their off- and don't-care sets
// as 128-bit masks; the loop, and so the result, is the same. The loop is
// written once, over the questions each of its steps asks, and the masks
// answer them natively: a raise is tested against the off-set mirrored
// across the raised variable, and an irredundant or reduce pass takes
// each cube's minterms once. A Scratch runs that loop on caller-owned
// buffers and returns only the cube and literal counts, so a caller
// minimizing many small functions, as the P-3 cost functions do,
// allocates nothing per function.
package espresso

import (
	"math/bits"
	"strings"
)

// Cube is a product term over N binary variables in positional notation:
// for variable v, bit v of Z means "v may be 0" and bit v of O means "v may
// be 1". A variable with both bits set is absent from the product (don't
// care); a variable with neither bit set makes the cube empty.
type Cube struct {
	Z, O uint64
}

// Cover is a set of cubes over a fixed variable count.
type Cover struct {
	N     int
	Cubes []Cube
}

// Universe returns the cube covering the whole space of n variables.
func Universe(n int) Cube {
	m := mask(n)
	return Cube{Z: m, O: m}
}

func mask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// MintermCube returns the 0-dimensional cube of the given minterm.
func MintermCube(n int, m uint64) Cube {
	return Cube{Z: ^m & mask(n), O: m & mask(n)}
}

// IsEmpty reports whether the cube contains no minterm of an n-variable
// space.
func (c Cube) IsEmpty(n int) bool {
	return (c.Z|c.O)&mask(n) != mask(n)
}

// Contains reports whether d ⊆ c.
func (c Cube) Contains(d Cube) bool {
	return d.Z&^c.Z == 0 && d.O&^c.O == 0
}

// ContainsMinterm reports whether minterm m lies in the cube.
func (c Cube) ContainsMinterm(n int, m uint64) bool {
	return c.Contains(MintermCube(n, m))
}

// Intersect returns c ∩ d; the result may be empty.
func (c Cube) Intersect(d Cube) Cube {
	return Cube{Z: c.Z & d.Z, O: c.O & d.O}
}

// Intersects reports whether c ∩ d is non-empty in an n-variable space.
func (c Cube) Intersects(n int, d Cube) bool {
	return !c.Intersect(d).IsEmpty(n)
}

// Supercube returns the smallest cube containing both c and d.
func (c Cube) Supercube(d Cube) Cube {
	return Cube{Z: c.Z | d.Z, O: c.O | d.O}
}

// Distance returns the number of variables in which c and d have empty
// intersection.
func (c Cube) Distance(n int, d Cube) int {
	free := (c.Z & d.Z) | (c.O & d.O)
	return bits.OnesCount64(^free & mask(n))
}

// Literals returns the number of literals of the cube: variables not don't
// care.
func (c Cube) Literals(n int) int {
	dc := c.Z & c.O & mask(n)
	return n - bits.OnesCount64(dc)
}

// Cofactor returns the Shannon cofactor of c with respect to cube d
// (the espresso cofactor): variables fixed by d become don't-care in the
// result. The second result is false when c does not intersect d.
func (c Cube) Cofactor(n int, d Cube) (Cube, bool) {
	if !c.Intersects(n, d) {
		return Cube{}, false
	}
	m := mask(n)
	return Cube{Z: (c.Z | ^d.Z) & m, O: (c.O | ^d.O) & m}, true
}

// String renders the cube in PLA notation: one character per variable,
// '0', '1' or '-' ('~' for empty positions), variable 0 first.
func (c Cube) String(n int) string {
	var b strings.Builder
	for v := 0; v < n; v++ {
		z := c.Z&(1<<uint(v)) != 0
		o := c.O&(1<<uint(v)) != 0
		switch {
		case z && o:
			b.WriteByte('-')
		case o:
			b.WriteByte('1')
		case z:
			b.WriteByte('0')
		default:
			b.WriteByte('~')
		}
	}
	return b.String()
}

// ParseCube parses PLA notation produced by String.
func ParseCube(s string) Cube {
	var c Cube
	for v := 0; v < len(s); v++ {
		switch s[v] {
		case '0':
			c.Z |= 1 << uint(v)
		case '1':
			c.O |= 1 << uint(v)
		case '-':
			c.Z |= 1 << uint(v)
			c.O |= 1 << uint(v)
		}
	}
	return c
}

// NewCover returns an empty cover over n variables.
func NewCover(n int) *Cover {
	return &Cover{N: n}
}

// Add appends a cube, dropping empty ones.
func (f *Cover) Add(c Cube) {
	if !c.IsEmpty(f.N) {
		f.Cubes = append(f.Cubes, c)
	}
}

// Clone returns a copy of the cover.
func (f *Cover) Clone() *Cover {
	g := &Cover{N: f.N, Cubes: make([]Cube, len(f.Cubes))}
	copy(g.Cubes, f.Cubes)
	return g
}

// Size returns the number of cubes.
func (f *Cover) Size() int { return len(f.Cubes) }

// Literals returns the total literal count of the cover.
func (f *Cover) Literals() int {
	total := 0
	for _, c := range f.Cubes {
		total += c.Literals(f.N)
	}
	return total
}

// ContainsMinterm reports whether some cube of the cover contains m.
func (f *Cover) ContainsMinterm(m uint64) bool {
	mc := MintermCube(f.N, m)
	for _, c := range f.Cubes {
		if c.Contains(mc) {
			return true
		}
	}
	return false
}

// SCC performs single-cube containment: empty cubes and cubes contained in
// another single cube are removed, and of equal cubes the first stays. The
// survivors keep their order and are compacted in place, so f.Cubes'
// backing array is overwritten.
//
// A cube is dropped when some other cube strictly contains it or equals
// it at a lower index. That relation is transitive, so a dropped cube is
// always dominated by a survivor: checking the survivors found so far,
// which f.Cubes[:kept] holds, and every later cube decides each cube as
// checking all cubes would.
func (f *Cover) SCC() {
	kept := 0
outer:
	for i, c := range f.Cubes {
		if c.IsEmpty(f.N) {
			continue
		}
		for _, d := range f.Cubes[:kept] {
			if d.Contains(c) {
				continue outer
			}
		}
		for _, d := range f.Cubes[i+1:] {
			if !d.IsEmpty(f.N) && d.Contains(c) && !c.Contains(d) {
				continue outer
			}
		}
		f.Cubes[kept] = c
		kept++
	}
	f.Cubes = f.Cubes[:kept]
}

// String renders the cover one cube per line.
func (f *Cover) String() string {
	var b strings.Builder
	for _, c := range f.Cubes {
		b.WriteString(c.String(f.N))
		b.WriteByte('\n')
	}
	return b.String()
}
