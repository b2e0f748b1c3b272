package dichotomy_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/constraint"
	"repro/internal/dichotomy"
	"repro/internal/gen"
	"repro/internal/prime"
)

// raiseSets returns the generated constraint sets the raising tests run
// over: feasible-by-construction sets at every size in [4, 12], and
// unrestricted ones with three disjunctives and three extended
// disjunctives, which are often infeasible and exercise every rule.
func raiseSets() []*constraint.Set {
	var sets []*constraint.Set
	for n := 4; n <= 12; n++ {
		for seed := int64(1); seed <= 6; seed++ {
			sets = append(sets, gen.Random(seed, gen.DefaultConfig(n)).Set)
			sets = append(sets, gen.Random(seed, gen.Config{
				Symbols:         n,
				Faces:           n / 2,
				Dominances:      n / 2,
				Disjunctives:    3,
				ExtDisjunctives: 3,
				DontCareProb:    0.3,
			}).Set)
		}
	}
	return sets
}

// randomD draws a dichotomy over n symbols, each symbol left, right or
// unassigned; with overlap set a symbol may land in both blocks.
func randomD(rng *rand.Rand, n int, overlap bool) dichotomy.D {
	var d dichotomy.D
	for s := 0; s < n; s++ {
		switch rng.Intn(5) {
		case 0:
			d.L.Add(s)
		case 1:
			d.R.Add(s)
		case 2:
			if overlap {
				d.L.Add(s)
				d.R.Add(s)
			}
		}
	}
	return d
}

// raise returns the raise of a copy of d under c and whether it is ok.
func raise(c *dichotomy.Closure, d dichotomy.D) (dichotomy.D, bool) {
	r := d.Clone()
	return r, c.RaiseInPlace(&r)
}

// checkRaise fails t unless the compiled raise agrees with the reference on
// ok, and on the raised blocks when ok holds.
func checkRaise(t *testing.T, c *dichotomy.Closure, cs *constraint.Set, d dichotomy.D, what string) {
	t.Helper()
	got, ok := raise(c, d)
	want, wantOK := refRaise(d, cs)
	if ok != wantOK {
		t.Fatalf("%s %s: ok = %v, reference %v\n%s", what, d, ok, wantOK, cs)
	}
	if ok && !got.Equal(want) {
		t.Fatalf("%s %s: raised to %s, reference %s\n%s", what, d, got, want, cs)
	}
}

// TestRaiseMatchesReference holds the compiled raise to the rule-scanning
// reference on every seed, every prime and random dichotomies of generated
// sets, and ValidRaised to the reference's filter.
func TestRaiseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, cs := range raiseSets() {
		c := dichotomy.Compile(cs)
		seeds := dichotomy.Initial(cs)
		var want []dichotomy.D
		seen := map[string]bool{}
		for _, d := range seeds {
			checkRaise(t, c, cs, d, "seed")
			if r, ok := refRaise(d, cs); ok && !seen[r.Key()] {
				seen[r.Key()] = true
				want = append(want, r)
			}
		}
		raised := dichotomy.ValidRaised(seeds, cs)
		if len(raised) != len(want) {
			t.Fatalf("ValidRaised kept %d, reference %d\n%s", len(raised), len(want), cs)
		}
		for i := range raised {
			if !raised[i].Equal(want[i]) {
				t.Fatalf("ValidRaised[%d] = %s, reference %s\n%s", i, raised[i], want[i], cs)
			}
		}
		primes, _ := prime.GenerateCtx(context.Background(), raised, prime.Options{Limit: 2000})
		for _, p := range primes {
			checkRaise(t, c, cs, p, "prime")
		}
		for i := 0; i < 40; i++ {
			checkRaise(t, c, cs, randomD(rng, cs.N(), i%4 == 0), "random")
		}
	}
}

// extraConstraint returns a copy of cs with one more random output
// constraint: a dominance, a disjunctive or an extended disjunctive.
func extraConstraint(rng *rand.Rand, cs *constraint.Set) *constraint.Set {
	g := cs.Clone()
	n := g.N()
	p := rng.Perm(n)
	switch rng.Intn(3) {
	case 0:
		g.Dominances = append(g.Dominances, constraint.Dominance{Big: p[0], Small: p[1]})
	case 1:
		g.Disjunctives = append(g.Disjunctives, constraint.Disjunctive{Parent: p[0], Children: []int{p[1], p[2]}})
	default:
		g.ExtDisjunctives = append(g.ExtDisjunctives, constraint.ExtDisjunctive{
			Parent: p[0], Conjunctions: [][]int{{p[1], p[2]}, {p[3]}},
		})
	}
	return g
}

// subD returns a blockwise sub-dichotomy of e: each symbol kept or dropped
// at random.
func subD(rng *rand.Rand, e dichotomy.D) dichotomy.D {
	var d dichotomy.D
	e.L.ForEach(func(s int) bool {
		if rng.Intn(2) == 0 {
			d.L.Add(s)
		}
		return true
	})
	e.R.ForEach(func(s int) bool {
		if rng.Intn(2) == 0 {
			d.R.Add(s)
		}
		return true
	})
	return d
}

// TestRaiseLaws checks the three laws incremental P-1 rests on, over
// generated sets and random dichotomies:
//
//	(a) a dichotomy Valid rejects never raises;
//	(b) re-raising Raise_cs(d) under cs plus one output constraint equals
//	    raising d from scratch under the grown set, ok flag included;
//	(c) validity is hereditary: d ⊆ e blockwise and Raise(e) ok imply
//	    Raise(d) ok and Raise(d) ⊆ Raise(e).
func TestRaiseLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var lawA, lawB, lawC int
	for _, cs := range raiseSets() {
		n := cs.N()
		c := dichotomy.Compile(cs)
		for i := 0; i < 150; i++ {
			d := randomD(rng, n, i%5 == 0)
			r, ok := raise(c, d)
			if !dichotomy.Valid(d, cs) {
				lawA++
				if ok {
					t.Fatalf("(a) %s is invalid but raises to %s\n%s", d, r, cs)
				}
			}

			grown := extraConstraint(rng, cs)
			g := dichotomy.Compile(grown)
			again := r.Clone()
			againOK := ok && g.RaiseInPlace(&again)
			fresh, freshOK := raise(g, d)
			if againOK != freshOK || (freshOK && !again.Equal(fresh)) {
				t.Fatalf("(b) %s: re-raised %s (%v), from scratch %s (%v)\n%s", d, again, againOK, fresh, freshOK, grown)
			}
			lawB++

			e := d
			if i%2 == 0 {
				// Most random dichotomies contradict; raising one first and
				// adding a symbol gives supersets that often do not.
				e = r.Clone()
				e.L.Add(rng.Intn(n))
			}
			re, eOK := raise(c, e)
			if !eOK {
				continue
			}
			sub := subD(rng, e)
			rs, subOK := raise(c, sub)
			if !subOK || !rs.L.SubsetOf(re.L) || !rs.R.SubsetOf(re.R) {
				t.Fatalf("(c) %s ⊆ %s raises to %s (%v), the superset to %s\n%s", sub, e, rs, subOK, re, cs)
			}
			lawC++
		}
	}
	t.Logf("law cases: a=%d b=%d c=%d", lawA, lawB, lawC)
	if lawA == 0 || lawB == 0 || lawC == 0 {
		t.Fatalf("laws exercised a=%d b=%d c=%d times; every law needs cases", lawA, lawB, lawC)
	}
}

// FuzzRaise compiles a parsed constraint set and raises a dichotomy built
// from the fuzz bytes, holding the result to the reference raise. Each byte
// picks a symbol (high bits) and a block (low two bits: left, right, both,
// neither).
func FuzzRaise(f *testing.F) {
	// ExampleRaise's Figure-4 set, with (s1; s2 s5).
	f.Add(`symbols s0 s1 s2 s3 s4 s5
dom s0 > s1
dom s0 > s2
dom s1 > s3
dom s4 > s5
dom s5 > s2
dom s5 > s3
disj s0 = s1 | s2
`, []byte{1 << 2, 2<<2 | 1, 5<<2 | 1})
	// Parent 1 with one child left at 0 forces the other child to 1.
	f.Add("symbols p a b c\ndisj p = a | b\ndom c > a\n", []byte{0<<2 | 1, 3 << 2})
	// Extended disjunctive: one conjunction unhit forces its symbols to 1.
	f.Add("symbols p a b c d\nextdisj (a & b) | (c) >= p\ndom d > c\n", []byte{0<<2 | 1, 4 << 2})
	f.Fuzz(func(t *testing.T, text string, data []byte) {
		cs, err := constraint.ParseString(text)
		if err != nil || cs.N() == 0 || cs.N() > 256 {
			return
		}
		var d dichotomy.D
		for _, b := range data {
			s := int(b>>2) % cs.N()
			switch b & 3 {
			case 0:
				d.L.Add(s)
			case 1:
				d.R.Add(s)
			case 2:
				d.L.Add(s)
				d.R.Add(s)
			}
		}
		checkRaise(t, dichotomy.Compile(cs), cs, d, "fuzz")
	})
}

// TestInitialPairsMirrors checks the seed order the per-seed P-1 state
// relies on to find mirrors: every seed at an even index is followed by its
// mirror.
func TestInitialPairsMirrors(t *testing.T) {
	for _, cs := range raiseSets() {
		seeds := dichotomy.Initial(cs)
		if len(seeds)%2 != 0 {
			t.Fatalf("%d seeds, want mirror pairs\n%s", len(seeds), cs)
		}
		for i := 0; i < len(seeds); i += 2 {
			if !seeds[i+1].Equal(seeds[i].Mirror()) {
				t.Fatalf("seed %d %s is followed by %s, not its mirror\n%s", i, seeds[i], seeds[i+1], cs)
			}
		}
	}
}
