package bitset

import (
	"math/rand"
	"testing"
)

// randomSet builds a pseudo-random set over [0, n) with the given fill
// probability numerator out of 4.
func randomSet(rng *rand.Rand, n, fill int) Set {
	s := New(n)
	for e := 0; e < n; e++ {
		if rng.Intn(4) < fill {
			s.Add(e)
		}
	}
	return s
}

// TestUnrolledKernelsMatchReference cross-checks the 4-way unrolled word
// kernels against a naive per-element reference on sizes that straddle the
// unroll width (0..9 words) and on mixed operand sizes.
func TestUnrolledKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sizes := []int{0, 1, 7, 63, 64, 65, 128, 200, 256, 300, 511, 576}
	for _, na := range sizes {
		for _, nb := range sizes {
			a := randomSet(rng, na, 2)
			b := randomSet(rng, nb, 2)

			wantInter := refOp(a, b, na, nb, func(x, y bool) bool { return x && y })
			wantUnion := refOp(a, b, na, nb, func(x, y bool) bool { return x || y })
			wantDiff := refOp(a, b, na, nb, func(x, y bool) bool { return x && !y })

			var s Set
			s.IntersectInto(a, b)
			checkSameTrunc(t, "IntersectInto", s, wantInter, min(na, nb))
			if got, want := IntersectLen(a, b), wantInter.Len(); got != want {
				t.Fatalf("IntersectLen(%d,%d) = %d, want %d", na, nb, got, want)
			}
			var sp Set
			if got := sp.IntersectPopcountInto(a, b); got != wantInter.Len() {
				t.Fatalf("IntersectPopcountInto(%d,%d) count = %d, want %d", na, nb, got, wantInter.Len())
			}
			checkSameTrunc(t, "IntersectPopcountInto", sp, wantInter, min(na, nb))

			var u Set
			u.UnionInto(a, b)
			if !u.Equal(wantUnion) {
				t.Fatalf("UnionInto(%d,%d) = %v, want %v", na, nb, u, wantUnion)
			}
			var d Set
			d.DifferenceInto(a, b)
			if !d.Equal(wantDiff) {
				t.Fatalf("DifferenceInto(%d,%d) = %v, want %v", na, nb, d, wantDiff)
			}
			iw := a.Clone()
			iw.IntersectWith(b)
			if !iw.Equal(wantInter) {
				t.Fatalf("IntersectWith(%d,%d) = %v, want %v", na, nb, iw, wantInter)
			}
			uw := a.Clone()
			uw.UnionWith(b)
			if !uw.Equal(wantUnion) {
				t.Fatalf("UnionWith(%d,%d) = %v, want %v", na, nb, uw, wantUnion)
			}
			dw := a.Clone()
			dw.DifferenceWith(b)
			if !dw.Equal(wantDiff) {
				t.Fatalf("DifferenceWith(%d,%d) = %v, want %v", na, nb, dw, wantDiff)
			}
		}
	}
}

// refOp applies a boolean element-wise reference operation over the union of
// both universes.
func refOp(a, b Set, na, nb int, op func(x, y bool) bool) Set {
	n := max(na, nb)
	out := New(n)
	for e := 0; e < n; e++ {
		if op(a.Has(e), b.Has(e)) {
			out.Add(e)
		}
	}
	return out
}

// checkSameTrunc asserts s equals want restricted to [0, limit): the Into
// kernels truncate to the shorter operand by contract.
func checkSameTrunc(t *testing.T, name string, s, want Set, limit int) {
	t.Helper()
	for e := 0; e < limit; e++ {
		if s.Has(e) != want.Has(e) {
			t.Fatalf("%s: element %d = %v, want %v", name, e, s.Has(e), want.Has(e))
		}
	}
	if w := s.WordCount() * wordBits; w > 0 {
		for e := limit; e < w; e++ {
			if s.Has(e) {
				t.Fatalf("%s: unexpected element %d beyond truncation limit %d", name, e, limit)
			}
		}
	}
}

func TestNextSet(t *testing.T) {
	s := Of(0, 3, 63, 64, 130, 512)
	var got []int
	for e, ok := s.Min(); ok; e, ok = s.NextSet(e + 1) {
		got = append(got, e)
	}
	want := []int{0, 3, 63, 64, 130, 512}
	if len(got) != len(want) {
		t.Fatalf("NextSet walk = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NextSet walk = %v, want %v", got, want)
		}
	}
	if _, ok := s.NextSet(513); ok {
		t.Fatal("NextSet past the last element reported ok")
	}
	if e, ok := s.NextSet(-5); !ok || e != 0 {
		t.Fatalf("NextSet(-5) = %d, %v; want 0, true", e, ok)
	}
	if e, ok := s.NextSet(64); !ok || e != 64 {
		t.Fatalf("NextSet(64) = %d, %v; want 64, true", e, ok)
	}
	var empty Set
	if _, ok := empty.NextSet(0); ok {
		t.Fatal("NextSet on empty set reported ok")
	}
}

// TestNextSetMatchesForEach pins NextSet iteration to ForEach order on
// random sets.
func TestNextSetMatchesForEach(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		s := randomSet(rng, 1+rng.Intn(400), 1)
		var viaForEach, viaNext []int
		s.ForEach(func(e int) bool {
			viaForEach = append(viaForEach, e)
			return true
		})
		for e, ok := s.Min(); ok; e, ok = s.NextSet(e + 1) {
			viaNext = append(viaNext, e)
		}
		if len(viaForEach) != len(viaNext) {
			t.Fatalf("trial %d: ForEach saw %d elements, NextSet %d", trial, len(viaForEach), len(viaNext))
		}
		for i := range viaNext {
			if viaForEach[i] != viaNext[i] {
				t.Fatalf("trial %d: order mismatch at %d: %d vs %d", trial, i, viaForEach[i], viaNext[i])
			}
		}
	}
}
