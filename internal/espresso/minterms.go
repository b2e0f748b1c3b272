package espresso

// MaxMintermVars is the widest space a Minterms mask holds.
const MaxMintermVars = 7

// Minterms is a set of minterms of a space of at most MaxMintermVars
// variables as a 128-bit truth table: bit m stands for minterm m.
type Minterms [2]uint64

// Add inserts minterm m, which must be below 128.
func (s *Minterms) Add(m uint64) { s[m>>6] |= 1 << (m & 63) }

// Remove deletes minterm m, which must be below 128.
func (s *Minterms) Remove(m uint64) { s[m>>6] &^= 1 << (m & 63) }

// Has reports whether minterm m is in the set.
func (s Minterms) Has(m uint64) bool { return s[m>>6]>>(m&63)&1 != 0 }

func (s Minterms) or(t Minterms) Minterms     { return Minterms{s[0] | t[0], s[1] | t[1]} }
func (s Minterms) and(t Minterms) Minterms    { return Minterms{s[0] & t[0], s[1] & t[1]} }
func (s Minterms) andNot(t Minterms) Minterms { return Minterms{s[0] &^ t[0], s[1] &^ t[1]} }
func (s Minterms) empty() bool                { return s[0]|s[1] == 0 }

// A cube's minterms are assembled from two tables indexed by its Z and O
// bits over three variables: lowMinterms[z][o] is the byte of minterms of
// variables 0–2 inside the cube, and byteSelect[z][o] has 0xFF in each
// byte of a word whose minterms of variables 3–5 lie inside it.
var lowMinterms, byteSelect = mintermTables()

func mintermTables() (low [8][8]uint8, sel [8][8]uint64) {
	for z := 0; z < 8; z++ {
		for o := 0; o < 8; o++ {
			c := Cube{Z: uint64(z), O: uint64(o)}
			for m := uint64(0); m < 8; m++ {
				if c.ContainsMinterm(3, m) {
					low[z][o] |= 1 << m
					sel[z][o] |= 0xFF << (8 * m)
				}
			}
		}
	}
	return low, sel
}

// space returns every minterm of an n-variable space.
func space(n int) Minterms {
	if n == MaxMintermVars {
		return Minterms{^uint64(0), ^uint64(0)}
	}
	return Minterms{^uint64(0) >> (64 - (1 << uint(n))), 0}
}

// mintermSets holds the off-set and the don't-care set of a function of
// at most MaxMintermVars variables as minterm masks, answering the loop's
// questions with word operations instead of cube-cover recursion.
type mintermSets struct {
	n            int
	all, off, dc Minterms
}

// minterms returns the minterms of cube c. Variables from n on count as
// free and the space mask drops the minterms they add.
func (s *mintermSets) minterms(c Cube) Minterms {
	z, o := c.Z|^mask(s.n), c.O|^mask(s.n)
	w := uint64(lowMinterms[z&7][o&7]) * 0x0101010101010101 & byteSelect[z>>3&7][o>>3&7]
	var m Minterms
	if z>>6&1 != 0 {
		m[0] = w
	}
	if o>>6&1 != 0 {
		m[1] = w
	}
	return m.and(s.all)
}

func (s *mintermSets) meetsOff(c Cube) bool { return !s.minterms(c).and(s.off).empty() }

// uncovered returns the minterms of c outside rest and the don't-care set.
func (s *mintermSets) uncovered(c Cube, rest []Cube) Minterms {
	u := s.dc
	for _, d := range rest {
		u = u.or(s.minterms(d))
	}
	return s.minterms(c).andNot(u)
}

func (s *mintermSets) covered(c Cube, rest []Cube) bool {
	return s.uncovered(c, rest).empty()
}

func (s *mintermSets) reduced(c Cube, rest []Cube) Cube {
	m := s.uncovered(c, rest)
	var sc Cube
	if m.empty() {
		return sc
	}
	for v := 0; v < s.n; v++ {
		b := uint64(1) << uint(v)
		if !m.and(varOnes[v]).empty() {
			sc.O |= b
		}
		if !m.andNot(varOnes[v]).empty() {
			sc.Z |= b
		}
	}
	return sc
}

// varOnes[v] holds the minterms of the MaxMintermVars-variable space in
// which variable v is 1; intersected with a set of minterms of a smaller
// space, it keeps those of the same space with v = 1.
var varOnes = func() (t [MaxMintermVars]Minterms) {
	for v := range t {
		for m := uint64(0); m < 1<<MaxMintermVars; m++ {
			if m>>uint(v)&1 != 0 {
				t[v].Add(m)
			}
		}
	}
	return t
}()

// MinimizeMinterms minimizes the function of n variables whose on-set is
// the minterm list on, whose off-set is the minterm list off, and whose
// don't-care set is every other minterm. It returns the cover
// Minimize(FromMinterms(n, on), dc, FromMinterms(n, off)) returns for dc
// the complement of on ∪ off, cube for cube and in the same order. Up to
// MaxMintermVars variables the off- and don't-care sets are minterm masks
// and no complement is computed; the loop's questions about them are set
// questions, so repeated minterms change no answer.
func MinimizeMinterms(n int, on, off []uint64) *Cover {
	var s Scratch
	cubes, _ := s.run(n, on, off)
	return &Cover{N: n, Cubes: cubes}
}

// Scratch is caller-owned working memory for minimizing functions given by
// minterm lists, reused from one function to the next: up to
// MaxMintermVars variables, a call allocates nothing once the buffers have
// grown to the largest function seen. A Scratch is not safe for concurrent
// use; its zero value is ready.
type Scratch struct {
	loop
	ms mintermSets
	on Cover
}

// Count returns the number of cubes and of literals of the cover
// MinimizeMinterms(n, on, off) returns.
func (s *Scratch) Count(n int, on, off []uint64) (cubes, literals int) {
	best, lits := s.run(n, on, off)
	return len(best), lits
}

// CountMasked is Count with the off-set given as a mask of minterms, for
// n at most MaxMintermVars: a caller that keeps its off-sets as masks
// hands them over without listing them.
func (s *Scratch) CountMasked(n int, on []uint64, off Minterms) (cubes, literals int) {
	best, lits := s.runMasked(n, on, off)
	return len(best), lits
}

// run returns the cubes and the literal count of
// MinimizeMinterms(n, on, off); the cubes live in s until the next call.
func (s *Scratch) run(n int, on, off []uint64) ([]Cube, int) {
	if n > MaxMintermVars {
		f, offCover := FromMinterms(n, on), FromMinterms(n, off)
		both := f.Clone()
		both.Cubes = append(both.Cubes, offCover.Cubes...)
		g := Minimize(f, both.Complement(), offCover)
		return g.Cubes, g.Literals()
	}
	var offSet Minterms
	for _, m := range off {
		offSet.Add(m & mask(n))
	}
	return s.runMasked(n, on, offSet)
}

// runMasked is run for n at most MaxMintermVars with the off-set as a
// mask.
func (s *Scratch) runMasked(n int, on []uint64, off Minterms) ([]Cube, int) {
	f := &s.on
	f.N, f.Cubes = n, f.Cubes[:0]
	for _, m := range on {
		f.Add(MintermCube(n, m))
	}
	f.SCC()
	if len(f.Cubes) == 0 {
		return f.Cubes, 0
	}
	var onSet Minterms
	for _, m := range on {
		onSet.Add(m & mask(n))
	}
	all := space(n)
	s.ms = mintermSets{n: n, all: all, off: off, dc: all.andNot(onSet.or(off))}
	s.sets = &s.ms
	return s.minimize(f)
}
