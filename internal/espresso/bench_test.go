package espresso_test

import (
	"math/rand"
	"testing"

	"repro/internal/espresso"
)

// benchSink keeps the measured calls' results live.
var benchSink int

// fiShaped is one characteristic function of a face constraint, as the P-3
// cost functions hand it to the minimizer: the members' codes in symbol
// order, and the other encoded symbols' codes as an off-set mask.
type fiShaped struct {
	n   int
	on  []uint64
	off espresso.Minterms
}

// BenchmarkMintermMinimizeKernel minimizes a fixed, seeded mix of 256
// F_I-shaped functions per op through one reused Scratch: 4 to 6
// variables, 2 to 8 member codes in random order, the other codes of a
// random encoding of between half and all of the space off, and the unused
// codes don't-care. It times the mask-native espresso loop alone, without
// the evaluator's keys and memo.
func BenchmarkMintermMinimizeKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	fns := make([]fiShaped, 256)
	for i := range fns {
		n := 4 + rng.Intn(3)
		size := 1 << uint(n)
		codes := rng.Perm(size)[:size/2+rng.Intn(size/2+1)]
		k := 2 + rng.Intn(7)
		fn := fiShaped{n: n}
		for _, c := range codes[:k] {
			fn.on = append(fn.on, uint64(c))
		}
		for _, c := range codes[k:] {
			fn.off.Add(uint64(c))
		}
		fns[i] = fn
	}
	var s espresso.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, fn := range fns {
			cubes, literals := s.CountMasked(fn.n, fn.on, fn.off)
			benchSink += cubes + literals
		}
	}
}
