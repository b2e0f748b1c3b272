package dichotomy

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/constraint"
)

func TestCompatibilityDefinition(t *testing.T) {
	// Paper Definition 3.2 examples.
	d1 := Of([]int{0, 1}, []int{2, 3}) // (s0s1; s2s3)
	d2 := Of([]int{0}, []int{3})       // (s0; s3)
	if !d1.Compatible(d2) {
		t.Fatal("(s0s1;s2s3) and (s0;s3) are compatible")
	}
	d3 := Of([]int{2}, []int{0}) // (s2; s0)
	if d1.Compatible(d3) {
		t.Fatal("(s0s1;s2s3) and (s2;s0) are incompatible")
	}
	// Compatibility must be symmetric.
	if d2.Compatible(d1) != d1.Compatible(d2) {
		t.Fatal("compatibility must be symmetric")
	}
}

func TestUnion(t *testing.T) {
	d1 := Of([]int{0}, []int{2})
	d2 := Of([]int{1}, []int{3})
	u := Union(d1, d2)
	if !u.Equal(Of([]int{0, 1}, []int{2, 3})) {
		t.Fatalf("union wrong: %s", u)
	}
	if !u.Covers(d1) || !u.Covers(d2) {
		t.Fatal("union must cover both operands")
	}
}

func TestCoversDefinition34(t *testing.T) {
	// "(s0; s1s2) is covered by (s0s3; s1s2s4) and (s1s2s3; s0), but not
	// by (s0s1; s2)."
	d := Of([]int{0}, []int{1, 2})
	if !Of([]int{0, 3}, []int{1, 2, 4}).Covers(d) {
		t.Fatal("same-orientation covering failed")
	}
	if !Of([]int{1, 2, 3}, []int{0}).Covers(d) {
		t.Fatal("swapped-orientation covering failed")
	}
	if Of([]int{0, 1}, []int{2}).Covers(d) {
		t.Fatal("(s0s1;s2) must not cover (s0;s1s2)")
	}
}

func TestMirrorAndKeys(t *testing.T) {
	d := Of([]int{0, 1}, []int{2})
	m := d.Mirror()
	if !m.Equal(Of([]int{2}, []int{0, 1})) {
		t.Fatal("mirror wrong")
	}
	if d.Key() == m.Key() {
		t.Fatal("Key is orientation sensitive")
	}
}

func TestSeparates(t *testing.T) {
	d := Of([]int{0}, []int{1})
	if !d.Separates(0, 1) || !d.Separates(1, 0) {
		t.Fatal("Separates must be symmetric in its arguments")
	}
	if d.Separates(0, 2) {
		t.Fatal("unassigned symbols are not separated")
	}
}

func randomDichotomy(rng *rand.Rand, n int) D {
	var d D
	for s := 0; s < n; s++ {
		switch rng.Intn(3) {
		case 0:
			d.L.Add(s)
		case 1:
			d.R.Add(s)
		}
	}
	return d
}

// TestCoverLaws property-checks the covering relation: reflexive,
// transitive, mirror-symmetric, and union-of-compatible covers both.
func TestCoverLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(8)
		a, b, c := randomDichotomy(rng, n), randomDichotomy(rng, n), randomDichotomy(rng, n)
		if !a.Covers(a) {
			t.Fatal("covering must be reflexive")
		}
		if a.Covers(b) != a.Covers(b.Mirror()) {
			t.Fatal("covering must be mirror symmetric in its argument")
		}
		if a.Covers(b) && b.Covers(c) && !a.Covers(c) {
			t.Fatalf("covering must be transitive: %s %s %s", a, b, c)
		}
		if a.Compatible(b) {
			u := Union(a, b)
			if !u.Covers(a) || !u.Covers(b) {
				t.Fatal("union of compatibles must cover both")
			}
			if !u.WellFormed() {
				t.Fatalf("union of compatibles must be well-formed: %s + %s = %s", a, b, u)
			}
		}
	}
}

func TestValidDominance(t *testing.T) {
	cs := constraint.MustParse("symbols a b c\ndom a > b\n")
	if Valid(Of([]int{0}, []int{1}), cs) {
		t.Fatal("(a;b) violates a>b")
	}
	if !Valid(Of([]int{1}, []int{0}), cs) {
		t.Fatal("(b;a) satisfies a>b")
	}
	if !Valid(Of([]int{0, 1}, []int{2}), cs) {
		t.Fatal("(ab;c) satisfies a>b")
	}
}

func TestValidDisjunctive(t *testing.T) {
	cs := constraint.MustParse("symbols p a b x\ndisj p = a | b\n")
	p, _ := cs.Syms.Lookup("p")
	a, _ := cs.Syms.Lookup("a")
	b, _ := cs.Syms.Lookup("b")
	x, _ := cs.Syms.Lookup("x")
	if Valid(Of([]int{p}, []int{a}), cs) {
		t.Fatal("p=0 with a child at 1 is invalid")
	}
	if Valid(Of([]int{a, b}, []int{p}), cs) {
		t.Fatal("p=1 with all children at 0 is invalid")
	}
	if !Valid(Of([]int{a}, []int{p}), cs) {
		t.Fatal("p=1 with one child undecided is extendable")
	}
	if !Valid(Of([]int{x}, []int{p}), cs) {
		t.Fatal("children unassigned: extendable")
	}
}

func TestValidExtDisjunctive(t *testing.T) {
	cs := constraint.MustParse("symbols p a b c d\nextdisj (a & b) | (c & d) >= p\n")
	p, _ := cs.Syms.Lookup("p")
	a, _ := cs.Syms.Lookup("a")
	c, _ := cs.Syms.Lookup("c")
	if Valid(Of([]int{a, c}, []int{p}), cs) {
		t.Fatal("p=1 with every conjunction hit at 0 is invalid")
	}
	if !Valid(Of([]int{a}, []int{p}), cs) {
		t.Fatal("one conjunction still free: extendable")
	}
}

func TestRaiseDominanceBothDirections(t *testing.T) {
	cs := constraint.MustParse("symbols a b c\ndom a > b\n")
	a, _ := cs.Syms.Lookup("a")
	b, _ := cs.Syms.Lookup("b")
	c, _ := cs.Syms.Lookup("c")
	r, ok := Raise(Of([]int{a}, []int{c}), cs)
	if !ok || !r.L.Has(b) {
		t.Fatalf("a∈L must pull b into L: %s", r)
	}
	r, ok = Raise(Of([]int{c}, []int{b}), cs)
	if !ok || !r.R.Has(a) {
		t.Fatalf("b∈R must pull a into R: %s", r)
	}
}

func TestRaisePaperWalkthrough(t *testing.T) {
	// Figure 4: (s1; s2 s5) raises to (s1 s3; s0 s2 s4 s5).
	cs := constraint.MustParse(`
		symbols s0 s1 s2 s3 s4 s5
		dom s0 > s1
		dom s0 > s2
		dom s0 > s3
		dom s0 > s5
		dom s1 > s3
		dom s2 > s3
		dom s4 > s5
		dom s5 > s2
		dom s5 > s3
		disj s0 = s1 | s2
	`)
	idx := func(n string) int { i, _ := cs.Syms.Lookup(n); return i }
	r, ok := Raise(Of([]int{idx("s1")}, []int{idx("s2"), idx("s5")}), cs)
	if !ok {
		t.Fatal("raising must succeed")
	}
	want := Of([]int{idx("s1"), idx("s3")}, []int{idx("s0"), idx("s2"), idx("s4"), idx("s5")})
	if !r.Equal(want) {
		t.Fatalf("raised to %s, paper says %s", r.Format(cs.Syms), want.Format(cs.Syms))
	}
}

func TestRaiseContradiction(t *testing.T) {
	cs := constraint.MustParse("symbols a b\ndom a > b\ndom b > a\n")
	// a>b and b>a force a and b into the same blocks everywhere; a
	// dichotomy separating them cannot be raised.
	_, ok := Raise(Of([]int{0}, []int{1}), cs)
	if ok {
		t.Fatal("separating mutually-dominating symbols must contradict")
	}
}

// TestRaiseProperties checks raising laws on random instances: the result
// extends the input, is idempotent, and every valid total extension of d is
// also a total extension of raise(d) (raising only adds forced symbols).
func TestRaiseProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 400; trial++ {
		n := 3 + rng.Intn(4)
		cs := randomOutputConstraints(rng, n)
		d := randomDichotomy(rng, n)
		if !Valid(d, cs) {
			continue
		}
		r, ok := Raise(d, cs)
		if !ok {
			// Raising contradicted: then no valid total extension of d may
			// exist.
			if ext := someValidTotalExtension(d, cs, n); ext != nil {
				t.Fatalf("raise said contradiction but %s extends %s", ext.Format(cs.Syms), d.Format(cs.Syms))
			}
			continue
		}
		if !d.L.SubsetOf(r.L) || !d.R.SubsetOf(r.R) {
			t.Fatal("raising must extend the dichotomy")
		}
		r2, ok2 := Raise(r, cs)
		if !ok2 || !r2.Equal(r) {
			t.Fatalf("raising must be idempotent: %s -> %s", r, r2)
		}
		// Every valid total column extending d extends raise(d).
		forEachTotalExtension(d, n, func(tot D) bool {
			if Valid(tot, cs) && !(r.L.SubsetOf(tot.L) && r.R.SubsetOf(tot.R)) {
				t.Fatalf("valid extension %s of %s does not respect raise %s",
					tot.Format(cs.Syms), d.Format(cs.Syms), r.Format(cs.Syms))
			}
			return true
		})
	}
}

func randomOutputConstraints(rng *rand.Rand, n int) *constraint.Set {
	cs := constraint.NewSet(nil)
	for i := 0; i < n; i++ {
		cs.Syms.Intern(string(rune('a' + i)))
	}
	for k := rng.Intn(4); k > 0; k-- {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			cs.Dominances = append(cs.Dominances, constraint.Dominance{Big: a, Small: b})
		}
	}
	if rng.Intn(2) == 0 && n >= 3 {
		p := rng.Intn(n)
		c1, c2 := (p+1)%n, (p+2)%n
		cs.Disjunctives = append(cs.Disjunctives, constraint.Disjunctive{Parent: p, Children: []int{c1, c2}})
	}
	return cs
}

// forEachTotalExtension enumerates all total dichotomies extending d.
func forEachTotalExtension(d D, n int, fn func(D) bool) {
	var free []int
	for s := 0; s < n; s++ {
		if !d.L.Has(s) && !d.R.Has(s) {
			free = append(free, s)
		}
	}
	for pat := 0; pat < 1<<uint(len(free)); pat++ {
		tot := d.Clone()
		for i, s := range free {
			if pat&(1<<uint(i)) != 0 {
				tot.R.Add(s)
			} else {
				tot.L.Add(s)
			}
		}
		if !fn(tot) {
			return
		}
	}
}

func someValidTotalExtension(d D, cs *constraint.Set, n int) *D {
	var found *D
	forEachTotalExtension(d, n, func(tot D) bool {
		if Valid(tot, cs) {
			c := tot.Clone()
			found = &c
			return false
		}
		return true
	})
	return found
}

func TestInitialGeneration(t *testing.T) {
	cs := constraint.MustParse(`
		symbols a b c d
		face a b
	`)
	seeds := Initial(cs)
	// Face (a,b) vs {c,d}: 4 dichotomies. Uniqueness pairs not separated
	// by them: (a,b) and (c,d): 4 more. Total 8.
	if len(seeds) != 8 {
		t.Fatalf("want 8 seeds, got %d: %v", len(seeds), seeds)
	}
	// Both orientations must be present.
	keyed := map[string]bool{}
	for _, d := range seeds {
		keyed[d.Key()] = true
	}
	for _, d := range seeds {
		if !keyed[d.Mirror().Key()] {
			t.Fatalf("mirror of %s missing", d)
		}
	}
}

func TestInitialSkipsDontCares(t *testing.T) {
	cs := constraint.MustParse(`
		symbols a b c d
		face a b [ c ] d
	`)
	seeds := Initial(cs)
	for _, s := range seeds {
		// No face-derived dichotomy may separate {a,b} from the DC symbol c.
		if s.L.Len() == 2 && s.L.Has(0) && s.L.Has(1) && s.R.Has(2) {
			t.Fatalf("don't-care symbol appears opposite the face: %s", s)
		}
	}
}

func TestRowsDedupesMirrors(t *testing.T) {
	seeds := []D{Of([]int{0}, []int{1}), Of([]int{1}, []int{0}), Of([]int{0}, []int{2})}
	rows := Rows(seeds)
	if len(rows) != 2 {
		t.Fatalf("want 2 canonical rows, got %d", len(rows))
	}
}

func TestValidRaisedFiltersAndDedupes(t *testing.T) {
	cs := constraint.MustParse("symbols a b c\ndom a > b\n")
	seeds := []D{
		Of([]int{0}, []int{1}), // invalid
		Of([]int{1}, []int{0}), // valid
		Of([]int{1}, []int{0}), // duplicate
	}
	out := ValidRaised(seeds, cs)
	if len(out) != 1 {
		t.Fatalf("want 1 raised dichotomy, got %d", len(out))
	}
}

func TestSupportAndWellFormed(t *testing.T) {
	d := Of([]int{0, 2}, []int{1})
	if !d.Support().Equal(bitset.Of(0, 1, 2)) {
		t.Fatal("Support wrong")
	}
	bad := D{L: bitset.Of(0), R: bitset.Of(0)}
	if bad.WellFormed() {
		t.Fatal("overlapping blocks are not well-formed")
	}
	if Valid(bad, constraint.NewSet(nil)) {
		t.Fatal("malformed dichotomies are never valid")
	}
}

func TestFormat(t *testing.T) {
	cs := constraint.MustParse("symbols a b c\nface a b\n")
	d := Of([]int{0, 1}, []int{2})
	if got := d.Format(cs.Syms); got != "(a b; c)" {
		t.Fatalf("Format = %q", got)
	}
}

// TestQuickInvariants property-checks structural invariants with
// testing/quick: mirror is an involution that swaps blocks, preserves the
// canonical key, support and separation.
func TestQuickInvariants(t *testing.T) {
	err := quick.Check(func(l, r uint16) bool {
		l &^= r // force disjoint blocks
		var d D
		for s := 0; s < 16; s++ {
			if l&(1<<uint(s)) != 0 {
				d.L.Add(s)
			}
			if r&(1<<uint(s)) != 0 {
				d.R.Add(s)
			}
		}
		m := d.Mirror()
		if !m.Mirror().Equal(d) {
			return false
		}
		if !d.Support().Equal(m.Support()) {
			return false
		}
		for a := 0; a < 16; a++ {
			for b := 0; b < 16; b++ {
				if d.Separates(a, b) != m.Separates(a, b) {
					return false
				}
			}
		}
		return d.WellFormed()
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

// TestQuickCompatibleUnionCover: for disjoint random dichotomies,
// compatibility of d with the union of compatibles persists through Covers.
func TestQuickCompatibleUnionCover(t *testing.T) {
	err := quick.Check(func(l1, r1, l2, r2 uint8) bool {
		l1 &^= r1
		l2 &^= r2
		d1 := fromMasks(uint16(l1), uint16(r1))
		d2 := fromMasks(uint16(l2), uint16(r2))
		if !d1.Compatible(d2) {
			return true
		}
		u := Union(d1, d2)
		return u.Covers(d1) && u.Covers(d2) && u.WellFormed() &&
			u.Covers(d1.Mirror()) && u.Covers(d2.Mirror())
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

func fromMasks(l, r uint16) D {
	var d D
	for s := 0; s < 16; s++ {
		if l&(1<<uint(s)) != 0 {
			d.L.Add(s)
		}
		if r&(1<<uint(s)) != 0 {
			d.R.Add(s)
		}
	}
	return d
}
