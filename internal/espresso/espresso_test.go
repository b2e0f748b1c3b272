package espresso

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestCubeBasics(t *testing.T) {
	n := 4
	u := Universe(n)
	if u.IsEmpty(n) {
		t.Fatal("universe must be non-empty")
	}
	if u.Literals(n) != 0 {
		t.Fatalf("universe has 0 literals, got %d", u.Literals(n))
	}
	m := MintermCube(n, 0b1010)
	if m.Literals(n) != 4 {
		t.Fatalf("minterm has 4 literals, got %d", m.Literals(n))
	}
	if !u.Contains(m) {
		t.Fatal("universe must contain every minterm")
	}
	if m.Contains(u) {
		t.Fatal("minterm must not contain the universe")
	}
	if got := m.String(n); got != "0101" {
		t.Fatalf("minterm 1010 renders per-variable as 0101 (v0 first), got %q", got)
	}
	if ParseCube("01-1") != (Cube{Z: 0b0101, O: 0b1110}) {
		t.Fatalf("ParseCube wrong: %+v", ParseCube("01-1"))
	}
}

func TestCubeIntersectDistance(t *testing.T) {
	n := 3
	a := ParseCube("0--")
	b := ParseCube("1--")
	if a.Intersects(n, b) {
		t.Fatal("0-- and 1-- must not intersect")
	}
	if d := a.Distance(n, b); d != 1 {
		t.Fatalf("distance 1 expected, got %d", d)
	}
	c := ParseCube("-1-")
	if !a.Intersects(n, c) {
		t.Fatal("0-- and -1- must intersect")
	}
	if got := a.Intersect(c).String(n); got != "01-" {
		t.Fatalf("intersection should be 01-, got %q", got)
	}
	if got := a.Supercube(b).String(n); got != "---" {
		t.Fatalf("supercube should be ---, got %q", got)
	}
}

func TestTautology(t *testing.T) {
	n := 3
	f := NewCover(n)
	f.Add(ParseCube("0--"))
	f.Add(ParseCube("1--"))
	if !f.Tautology() {
		t.Fatal("0-- + 1-- is a tautology")
	}
	g := NewCover(n)
	g.Add(ParseCube("0--"))
	g.Add(ParseCube("11-"))
	if g.Tautology() {
		t.Fatal("0-- + 11- misses 10-")
	}
	empty := NewCover(n)
	if empty.Tautology() {
		t.Fatal("empty cover is not a tautology")
	}
}

func TestComplementExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(4)
		f := NewCover(n)
		k := rng.Intn(5)
		for i := 0; i < k; i++ {
			var c Cube
			for v := 0; v < n; v++ {
				switch rng.Intn(3) {
				case 0:
					c.Z |= 1 << uint(v)
				case 1:
					c.O |= 1 << uint(v)
				default:
					c.Z |= 1 << uint(v)
					c.O |= 1 << uint(v)
				}
			}
			f.Add(c)
		}
		g := f.Complement()
		for m := uint64(0); m < 1<<uint(n); m++ {
			if f.ContainsMinterm(m) == g.ContainsMinterm(m) {
				t.Fatalf("trial %d: complement wrong at minterm %b\nF:\n%sG:\n%s", trial, m, f, g)
			}
		}
	}
}

func TestMinimizeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(4)
		var on, dc []uint64
		for m := uint64(0); m < 1<<uint(n); m++ {
			switch rng.Intn(4) {
			case 0:
				on = append(on, m)
			case 1:
				dc = append(dc, m)
			}
		}
		f := FromMinterms(n, on)
		d := FromMinterms(n, dc)
		g := Minimize(f, d, nil)
		// Every on-minterm covered; no off-minterm covered.
		for m := uint64(0); m < 1<<uint(n); m++ {
			inOn := f.ContainsMinterm(m)
			inDC := d.ContainsMinterm(m)
			got := g.ContainsMinterm(m)
			if inOn && !got {
				t.Fatalf("trial %d: minimized cover drops on-minterm %b", trial, m)
			}
			if !inOn && !inDC && got {
				t.Fatalf("trial %d: minimized cover gains off-minterm %b", trial, m)
			}
		}
		if g.Size() > f.Size() {
			t.Fatalf("trial %d: minimization grew the cover %d -> %d", trial, f.Size(), g.Size())
		}
	}
}

func TestMinimizeSingleFace(t *testing.T) {
	// The minterms of a subcube must always minimize to one cube.
	n := 4
	f := FromMinterms(n, []uint64{0b0000, 0b0001, 0b0100, 0b0101}) // face -0-0 over v0..v3? minterms vary v0,v2
	g := Minimize(f, nil, nil)
	if g.Size() != 1 {
		t.Fatalf("face minterms must minimize to a single cube, got %d:\n%s", g.Size(), g)
	}
	if g.Cubes[0].Literals(n) != 2 {
		t.Fatalf("face cube must have 2 literals, got %d", g.Cubes[0].Literals(n))
	}
}

func TestCoversCube(t *testing.T) {
	n := 3
	f := NewCover(n)
	f.Add(ParseCube("0--"))
	f.Add(ParseCube("-0-"))
	if !f.CoversCube(ParseCube("00-")) {
		t.Fatal("00- is inside the union")
	}
	if f.CoversCube(ParseCube("11-")) {
		t.Fatal("11- is outside the union")
	}
	if !f.CoversCube(ParseCube("0--")) {
		t.Fatal("a member cube is covered")
	}
	// A cube straddling both members but fully within the union.
	if !f.CoversCube(ParseCube("-00")) {
		// -00 minterms: 000 (in 0--), 100 (in -0-): covered.
		t.Fatal("-00 is covered by the union")
	}
}

func TestSupercubeProperty(t *testing.T) {
	n := 6
	err := quick.Check(func(z1, o1, z2, o2 uint64) bool {
		m := mask(n)
		a := Cube{Z: z1 & m, O: o1 & m}
		b := Cube{Z: z2 & m, O: o2 & m}
		if a.IsEmpty(n) || b.IsEmpty(n) {
			return true
		}
		sc := a.Supercube(b)
		return sc.Contains(a) && sc.Contains(b)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestContainmentTransitive(t *testing.T) {
	n := 5
	err := quick.Check(func(raw [3][2]uint64) bool {
		m := mask(n)
		cs := make([]Cube, 3)
		for i, r := range raw {
			cs[i] = Cube{Z: r[0]&m | 1, O: r[1]&m | 1} // keep non-empty in var 0
		}
		a, b, c := cs[0], cs[1], cs[2]
		if a.Contains(b) && b.Contains(c) && !a.Contains(c) {
			return false
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// sccPairwise is single-cube containment decided against every other
// cube: a cube goes when another strictly contains it or equals it at a
// lower index.
func sccPairwise(f *Cover) []Cube {
	var kept []Cube
outer:
	for i, c := range f.Cubes {
		if c.IsEmpty(f.N) {
			continue
		}
		for j, d := range f.Cubes {
			if i != j && !d.IsEmpty(f.N) && d.Contains(c) && (!c.Contains(d) || j < i) {
				continue outer
			}
		}
		kept = append(kept, c)
	}
	return kept
}

// TestSCCInPlace: compacting in place keeps exactly the cubes, in the
// order, that deciding each cube against all others keeps, on random
// covers with repeats, nested cubes and empty cubes.
func TestSCCInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(5)
		f := &Cover{N: n}
		for k := rng.Intn(12); k > 0; k-- {
			var c Cube
			for v := 0; v < n; v++ {
				b := uint64(1) << uint(v)
				switch rng.Intn(13) {
				case 0: // empty in v
				case 1, 2, 3, 4:
					c.Z |= b
				case 5, 6, 7, 8:
					c.O |= b
				default:
					c.Z, c.O = c.Z|b, c.O|b
				}
			}
			if len(f.Cubes) > 0 && rng.Intn(4) == 0 {
				c = f.Cubes[rng.Intn(len(f.Cubes))] // a repeat
			}
			f.Cubes = append(f.Cubes, c)
		}
		want := sccPairwise(f)
		f.SCC()
		if !slices.Equal(f.Cubes, want) {
			t.Fatalf("trial %d: SCC keeps %v, pairwise %v", trial, f.Cubes, want)
		}
	}
}
