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

// flip returns the minterms of s with variable v's value flipped: within
// a word for v below 6, across the two words for v = 6.
func (s Minterms) flip(v int) Minterms {
	if v == 6 {
		return Minterms{s[1], s[0]}
	}
	d, zero := uint(1)<<uint(v), ^varOnes[v][0]
	return Minterms{s[0]&zero<<d | s[0]>>d&zero, s[1]&zero<<d | s[1]>>d&zero}
}

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
// questions with word operations instead of cube-cover recursion. A pass
// takes each loaded cube's minterms once, and a raise tests and grows the
// raised cube's minterms without rebuilding them.
type mintermSets struct {
	n            int
	all, off, dc Minterms
	// reach[v] is the off-set and its mirror across variable v: raising v
	// keeps a cube disjoint from the off-set exactly when the cube's
	// minterms miss reach[v].
	reach [MaxMintermVars]Minterms
	// The loaded pass's cubes and their minterms.
	cubes []Cube
	masks []Minterms
}

// reset makes s the sets of the function of n variables with off-set off
// and don't-care set dc.
func (s *mintermSets) reset(n int, off, dc Minterms) {
	s.n, s.all, s.off, s.dc = n, space(n), off, dc
	for v := 0; v < n; v++ {
		s.reach[v] = off.or(off.flip(v))
	}
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

// expandCube raises c through its minterms: a raise of v that c's
// minterms let through adds their mirror across v.
func (s *mintermSets) expandCube(c Cube) Cube {
	m := s.minterms(c)
	for v := 0; v < s.n; v++ {
		b := uint64(1) << uint(v)
		if (c.Z&b == 0 || c.O&b == 0) && m.and(s.reach[v]).empty() {
			c.Z, c.O = c.Z|b, c.O|b
			m = m.or(m.flip(v))
		}
	}
	return c
}

func (s *mintermSets) load(cubes []Cube) {
	s.cubes, s.masks = cubes, s.masks[:0]
	for _, c := range cubes {
		s.masks = append(s.masks, s.minterms(c))
	}
}

// alone returns the minterms of loaded cube i outside the don't-care set
// and the other loaded cubes, skipping those removed marks when it is not
// nil.
func (s *mintermSets) alone(i int, removed []bool) Minterms {
	u := s.dc
	for j, m := range s.masks {
		if j != i && (removed == nil || !removed[j]) {
			u = u.or(m)
		}
	}
	return s.masks[i].andNot(u)
}

func (s *mintermSets) covered(i int, removed []bool) bool {
	return s.alone(i, removed).empty()
}

func (s *mintermSets) reduceCube(i int) {
	m := s.alone(i, nil)
	var sc Cube
	if !m.empty() {
		for v := 0; v < s.n; v++ {
			b := uint64(1) << uint(v)
			if !m.and(varOnes[v]).empty() {
				sc.O |= b
			}
			if !m.andNot(varOnes[v]).empty() {
				sc.Z |= b
			}
		}
	}
	s.cubes[i], s.masks[i] = sc, s.minterms(sc)
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
	s.ms.reset(n, off, space(n).andNot(onSet.or(off)))
	s.sets = &s.ms
	return s.minimize(f)
}
