package cost

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/constraint"
	"repro/internal/espresso"
	"repro/internal/hypercube"
)

// viaCubes evaluates the assignment with every F_I built and minimized as
// cube covers, its don't-care set the recursive complement of the on- and
// off-sets, whatever the code width.
func viaCubes(cs *constraint.Set, a Assignment) Result {
	r := Result{Violations: CountViolations(cs, a)}
	for _, f := range cs.Faces {
		members := bitset.Intersect(f.Members, a.Subset)
		if members.Len() < 2 {
			continue
		}
		on, off := espresso.NewCover(a.Bits), espresso.NewCover(a.Bits)
		a.Subset.ForEach(func(s int) bool {
			m := espresso.MintermCube(a.Bits, a.Codes[s])
			switch {
			case members.Has(s):
				on.Add(m)
			case !f.DontCare.Has(s) && !f.Members.Has(s):
				off.Add(m)
			}
			return true
		})
		both := on.Clone()
		both.Cubes = append(both.Cubes, off.Cubes...)
		g := espresso.Minimize(on, both.Complement(), off)
		r.Cubes += g.Size()
		r.Literals += g.Literals()
	}
	return r
}

// maskKeyed reports how many of the faces that reach the minimizer key the
// memo by code-set masks: after one evaluation each such face holds one
// memo entry, filed in the mask table's index or under a code-list key.
func maskKeyed(cs *constraint.Set, a Assignment) (masked, total int) {
	ev := NewEvaluator(cs)
	ev.Evaluate(a)
	for _, x := range ev.memo.index {
		if x != 0 {
			masked++
		}
	}
	total = masked
	for _, m := range ev.codeMemo {
		total += len(m)
	}
	return masked, total
}

// randomFaces draws face constraints, some with an encoding don't-care,
// over n symbols.
func randomFaces(rng *rand.Rand, n int) *constraint.Set {
	spec := "symbols"
	for s := 0; s < n; s++ {
		spec += fmt.Sprintf(" s%d", s)
	}
	spec += "\n"
	for f := 0; f < 2+rng.Intn(5); f++ {
		perm := rng.Perm(n)
		k := 2 + rng.Intn(n-1)
		spec += "face"
		for _, s := range perm[:k] {
			spec += fmt.Sprintf(" s%d", s)
		}
		if k < n && rng.Intn(2) == 0 {
			spec += fmt.Sprintf(" [ s%d ]", perm[k])
		}
		spec += "\n"
	}
	return constraint.MustParse(spec)
}

// TestMaskedMatchesCubes: distinct codes of at most 7 bits key every face
// by masks, and both the direct evaluation and the evaluator return what
// the cube-cover reference returns.
func TestMaskedMatchesCubes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(14)
		cs := randomFaces(rng, n)
		bits := hypercube.MinBits(n) + rng.Intn(8-hypercube.MinBits(n))
		codes := make([]hypercube.Code, n)
		for i, c := range rng.Perm(1 << uint(bits))[:n] {
			codes[i] = hypercube.Code(c)
		}
		a := FullAssignment(bits, codes)
		if rng.Intn(3) == 0 {
			a.Subset.Remove(rng.Intn(n))
		}
		if masked, total := maskKeyed(cs, a); masked != total {
			t.Fatalf("trial %d: %d of %d faces masked at %d bits", trial, masked, total, bits)
		}
		want := viaCubes(cs, a)
		if got := Evaluate(cs, a); got != want {
			t.Fatalf("trial %d: masks give %+v, cubes %+v", trial, got, want)
		}
		if got := NewEvaluator(cs).Evaluate(a); got != want {
			t.Fatalf("trial %d: evaluator gives %+v, cubes %+v", trial, got, want)
		}
	}
}

// TestFallbackCases pins the assignments that keep the code-list key: a
// repeated off code, and codes wider than 7 bits (which espresso also
// minimizes as cube covers). Both must agree with the cube-cover
// reference, directly and through the memo.
func TestFallbackCases(t *testing.T) {
	cs := constraint.MustParse(`
		symbols a b c d e
		face a b
		face a c [ d ]
		face b c e
	`)
	cases := []struct {
		name  string
		bits  int
		codes []hypercube.Code
	}{
		// d and e share a code that is off for face (a, b).
		{"repeated off code", 3, []hypercube.Code{0b000, 0b011, 0b101, 0b110, 0b110}},
		{"8-bit codes", 8, []hypercube.Code{0x00, 0x81, 0x42, 0xC3, 0x24}},
	}
	for _, tc := range cases {
		a := FullAssignment(tc.bits, tc.codes)
		if masked, total := maskKeyed(cs, a); masked != 0 || total != len(cs.Faces) {
			t.Fatalf("%s: %d of %d faces keyed by masks, want none of %d", tc.name, masked, total, len(cs.Faces))
		}
		want := viaCubes(cs, a)
		if got := Evaluate(cs, a); got != want {
			t.Fatalf("%s: direct %+v, cubes %+v", tc.name, got, want)
		}
		ev := NewEvaluator(cs)
		for i := 0; i < 2; i++ {
			if got := ev.Evaluate(a); got != want {
				t.Fatalf("%s: evaluator %+v, cubes %+v", tc.name, got, want)
			}
		}
		if ev.Misses != len(cs.Faces) || ev.Hits != len(cs.Faces) {
			t.Fatalf("%s: %d hits, %d misses; want %d of each", tc.name, ev.Hits, ev.Misses, len(cs.Faces))
		}
	}
}
