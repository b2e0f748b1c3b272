package espresso

import "slices"

// Tautology reports whether the cover equals the whole space, by unate
// reduction and Shannon splitting on the most binate variable.
func (f *Cover) Tautology() bool {
	return tautRec(f.N, f.Cubes)
}

func tautRec(n int, cubes []Cube) bool {
	full := mask(n)
	orZ, orO := uint64(0), uint64(0)
	for _, c := range cubes {
		if c.Z&full == full && c.O&full == full {
			return true
		}
		orZ |= ^c.Z & c.O // variables appearing as positive literal
		orO |= ^c.O & c.Z // variables appearing as negative literal
	}
	if len(cubes) == 0 {
		return false
	}
	// Unate test: a variable is binate if it appears in both phases.
	binate := orZ & orO & full
	if binate == 0 {
		// Unate cover is a tautology iff it contains the universe cube,
		// already checked above.
		return false
	}
	// Split on the most frequent binate variable.
	best, bestCount := -1, -1
	for v := 0; v < n; v++ {
		b := uint64(1) << uint(v)
		if binate&b == 0 {
			continue
		}
		count := 0
		for _, c := range cubes {
			if c.Z&b == 0 || c.O&b == 0 {
				count++
			}
		}
		if count > bestCount {
			best, bestCount = v, count
		}
	}
	b := uint64(1) << uint(best)
	var c0, c1 []Cube
	for _, c := range cubes {
		if c.Z&b != 0 { // cube admits v=0
			c0 = append(c0, Cube{Z: c.Z | b, O: c.O | b})
		}
		if c.O&b != 0 { // cube admits v=1
			c1 = append(c1, Cube{Z: c.Z | b, O: c.O | b})
		}
	}
	return tautRec(n, c0) && tautRec(n, c1)
}

// CoversCube reports whether cube c is contained in the union of the cover.
func (f *Cover) CoversCube(c Cube) bool {
	var cof []Cube
	for _, d := range f.Cubes {
		if r, ok := d.Cofactor(f.N, c); ok {
			cof = append(cof, r)
		}
	}
	return tautRec(f.N, cof)
}

// Complement returns a cover of the complement of f, by Shannon recursion
// with single-cube-containment cleanup.
func (f *Cover) Complement() *Cover {
	out := &Cover{N: f.N, Cubes: complRec(f.N, f.Cubes, Universe(f.N))}
	out.SCC()
	return out
}

// complRec returns cubes covering space ∩ ¬(∪cubes), where cubes are given
// cofactored against space.
func complRec(n int, cubes []Cube, space Cube) []Cube {
	if len(cubes) == 0 {
		return []Cube{space}
	}
	full := mask(n)
	for _, c := range cubes {
		if c.Z&full == full && c.O&full == full {
			return nil
		}
	}
	// Select the most frequently constrained variable.
	best, bestCount := -1, -1
	for v := 0; v < n; v++ {
		b := uint64(1) << uint(v)
		if space.Z&b == 0 || space.O&b == 0 {
			continue // already fixed by space
		}
		count := 0
		for _, c := range cubes {
			if c.Z&b == 0 || c.O&b == 0 {
				count++
			}
		}
		if count > bestCount {
			best, bestCount = v, count
		}
	}
	if best < 0 || bestCount == 0 {
		// All cubes are full don't-care over the free variables of space —
		// they cover space entirely (none was the universe, but within
		// space's free vars they are unconstrained).
		return nil
	}
	b := uint64(1) << uint(best)
	half := func(keepZ bool) []Cube {
		var sub []Cube
		for _, c := range cubes {
			if keepZ && c.Z&b != 0 {
				sub = append(sub, Cube{Z: c.Z | b, O: c.O | b})
			}
			if !keepZ && c.O&b != 0 {
				sub = append(sub, Cube{Z: c.Z | b, O: c.O | b})
			}
		}
		return sub
	}
	sp0 := Cube{Z: space.Z, O: space.O &^ b}
	sp1 := Cube{Z: space.Z &^ b, O: space.O}
	return append(complRec(n, half(true), sp0), complRec(n, half(false), sp1)...)
}

// sets answers the questions the espresso loop asks of the off-set and
// the don't-care set of the function it minimizes, one step at a time. A
// cube cover (coverSets) and a minterm mask (mintermSets) answer them
// identically, so the loop below makes the same merges, raises, removals
// and iterations over either representation.
type sets interface {
	// meetsOff reports whether c intersects the off-set.
	meetsOff(c Cube) bool
	// expandCube raises the literals of c, which is not empty, in
	// variable order, keeping each raise that leaves c disjoint from the
	// off-set. Raising only grows c, so a raise that meets the off-set
	// from c meets it from every later c: one pass tries every raise that
	// can succeed.
	expandCube(c Cube) Cube
	// load starts an irredundant or reduce pass over cubes, which the two
	// questions below name by index.
	load(cubes []Cube)
	// covered reports whether loaded cube i lies in the union of the
	// don't-care set and the loaded cubes j ≠ i with !removed[j].
	covered(i int, removed []bool) bool
	// reduceCube replaces loaded cube i, in the slice load was given, by
	// the smallest cube containing its minterms outside the don't-care
	// set and the other loaded cubes; by the empty cube when there are
	// none.
	reduceCube(i int)
}

// coverSets holds the off-set and the don't-care set (nil allowed) as cube
// covers.
type coverSets struct {
	off, dc *Cover
	cubes   []Cube // the loaded pass
	rest    []Cube // others' buffer
}

func (s *coverSets) meetsOff(c Cube) bool {
	for _, o := range s.off.Cubes {
		if c.Intersects(s.off.N, o) {
			return true
		}
	}
	return false
}

func (s *coverSets) expandCube(c Cube) Cube {
	for v := 0; v < s.off.N; v++ {
		b := uint64(1) << uint(v)
		if c.Z&b == 0 || c.O&b == 0 {
			if raised := (Cube{Z: c.Z | b, O: c.O | b}); !s.meetsOff(raised) {
				c = raised
			}
		}
	}
	return c
}

func (s *coverSets) load(cubes []Cube) { s.cubes = cubes }

// others returns the loaded cubes other than cube i and, when removed is
// not nil, those it marks, followed by the don't-care cubes, as a cover.
func (s *coverSets) others(i int, removed []bool) *Cover {
	s.rest = s.rest[:0]
	for j, c := range s.cubes {
		if j != i && (removed == nil || !removed[j]) {
			s.rest = append(s.rest, c)
		}
	}
	if s.dc != nil {
		s.rest = append(s.rest, s.dc.Cubes...)
	}
	return &Cover{N: s.off.N, Cubes: s.rest}
}

func (s *coverSets) covered(i int, removed []bool) bool {
	return s.others(i, removed).CoversCube(s.cubes[i])
}

// reduceCube intersects cube i with the supercube of the complement of the
// others cofactored against it: that complement is free in the variables
// cube i fixes, so the intersection is the supercube of cube i ∖ others.
func (s *coverSets) reduceCube(i int) {
	n, c := s.off.N, s.cubes[i]
	var cof []Cube
	for _, d := range s.others(i, nil).Cubes {
		if r, ok := d.Cofactor(n, c); ok {
			cof = append(cof, r)
		}
	}
	remainder := complRec(n, cof, Universe(n))
	if len(remainder) == 0 {
		s.cubes[i] = Cube{} // fully covered by the others
		return
	}
	sc := remainder[0]
	for _, r := range remainder[1:] {
		sc = sc.Supercube(r)
	}
	s.cubes[i] = c.Intersect(sc)
}

// loop is the espresso loop over one function: the sets it asks, and
// scratch reused across its passes and, through Scratch, across functions.
type loop struct {
	sets
	order   []int
	removed []bool
	best    []Cube
}

// minimize runs the espresso loop — expand, irredundant, keep the best
// cover by (cubes, literals), reduce — on the on-set cover g, which it
// consumes, against l's off-set and don't-care set. It returns the best
// cover's cubes and literal count; the cubes live in l's buffer until the
// next call.
func (l *loop) minimize(g *Cover) ([]Cube, int) {
	l.best = append(l.best[:0], g.Cubes...)
	bc, bl := g.Size(), g.Literals()
	for iter := 0; iter < 4; iter++ {
		l.expand(g)
		l.irredundant(g)
		c, lits := g.Size(), g.Literals()
		if c < bc || (c == bc && lits < bl) {
			l.best = append(l.best[:0], g.Cubes...)
			bc, bl = c, lits
		} else if iter > 0 {
			break
		}
		l.reduce(g)
	}
	return l.best, bl
}

// expand enlarges each cube of f against the off-set. Two mechanisms are
// combined, approximating espresso's coverage-directed expansion: first,
// pairs of cubes whose supercube is disjoint from the off-set are merged
// (this recovers whole faces from their minterms in one step); then each
// cube's literals are raised greedily while the cube stays disjoint from
// the off-set. Expanded cubes that cover earlier ones subsume them via SCC.
func (l *loop) expand(f *Cover) {
	l.mergeSupercubes(f)
	for i := range f.Cubes {
		f.Cubes[i] = l.expandCube(f.Cubes[i])
	}
	f.SCC()
}

// mergeSupercubes replaces the first pair of cubes, in scan order, whose
// supercube does not intersect the off-set by that supercube, until no
// pair merges. A merge only grows cube i, and a supercube that meets the
// off-set keeps meeting it as its cubes grow: every pair the scan passed
// still fails, so the scan resumes where the merge happened instead of
// starting over.
func (l *loop) mergeSupercubes(f *Cover) {
	for i := 0; i < len(f.Cubes); i++ {
		for j := i + 1; j < len(f.Cubes); {
			sc := f.Cubes[i].Supercube(f.Cubes[j])
			if l.meetsOff(sc) {
				j++
				continue
			}
			f.Cubes[i] = sc
			f.Cubes = append(f.Cubes[:j], f.Cubes[j+1:]...)
		}
	}
}

// irredundant removes cubes covered by the union of the remaining cubes
// and the don't-care set.
func (l *loop) irredundant(f *Cover) {
	// Try removing the largest cubes last: removing small cubes first
	// preserves the expanded primes. Ties take pdqsort's order, which
	// slices.SortFunc and sort.Slice share and the pipeline goldens pin.
	order := l.order[:0]
	for i := range f.Cubes {
		order = append(order, i)
	}
	slices.SortFunc(order, func(a, b int) int {
		return f.Cubes[b].Literals(f.N) - f.Cubes[a].Literals(f.N)
	})
	removed := append(l.removed[:0], make([]bool, len(f.Cubes))...)
	l.order, l.removed = order, removed
	l.load(f.Cubes)
	for _, i := range order {
		if l.covered(i, removed) {
			removed[i] = true
		}
	}
	kept := f.Cubes[:0]
	for i, c := range f.Cubes {
		if !removed[i] {
			kept = append(kept, c)
		}
	}
	f.Cubes = kept
}

// reduce shrinks each cube to the smallest cube covering the minterms it
// alone covers (relative to the rest of the cover plus the don't-care
// set), enabling the next expansion to escape local minima.
func (l *loop) reduce(f *Cover) {
	l.load(f.Cubes)
	for i := range f.Cubes {
		l.reduceCube(i)
	}
	kept := f.Cubes[:0]
	for _, c := range f.Cubes {
		if !c.IsEmpty(f.N) {
			kept = append(kept, c)
		}
	}
	f.Cubes = kept
}

// Minimize runs the espresso loop on the on-set f with don't-care set dc
// (nil allowed) and returns a minimized cover. The off-set is computed by
// complementation unless provided via off (pass nil to compute).
func Minimize(f, dc, off *Cover) *Cover {
	g := f.Clone()
	g.SCC()
	if len(g.Cubes) == 0 {
		return g
	}
	if off == nil {
		onDC := g.Clone()
		if dc != nil {
			onDC.Cubes = append(onDC.Cubes, dc.Cubes...)
		}
		off = onDC.Complement()
	}
	l := &loop{sets: &coverSets{off: off, dc: dc}}
	best, _ := l.minimize(g)
	return &Cover{N: g.N, Cubes: best}
}

// FromMinterms builds a cover of the given minterms over n variables.
func FromMinterms(n int, ms []uint64) *Cover {
	f := &Cover{N: n, Cubes: make([]Cube, 0, len(ms))}
	for _, m := range ms {
		f.Add(MintermCube(n, m))
	}
	return f
}

// Equivalent reports whether covers f and g agree on every minterm outside
// the don't-care set dc (nil means none). Exhaustive over 2^n minterms;
// intended for testing with small n.
func Equivalent(f, g, dc *Cover) bool {
	n := f.N
	if n > 24 {
		panic("espresso: Equivalent limited to 24 variables")
	}
	for m := uint64(0); m < 1<<uint(n); m++ {
		if dc != nil && dc.ContainsMinterm(m) {
			continue
		}
		if f.ContainsMinterm(m) != g.ContainsMinterm(m) {
			return false
		}
	}
	return true
}
