package espresso

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// viaCubes minimizes the function MinimizeMinterms(n, on, off) names as
// cube covers: minterm cubes for the on- and off-sets and the recursive
// complement of their union as the don't-care set.
func viaCubes(n int, on, off []uint64) *Cover {
	f, offCover := FromMinterms(n, on), FromMinterms(n, off)
	both := f.Clone()
	both.Cubes = append(both.Cubes, offCover.Cubes...)
	return Minimize(f, both.Complement(), offCover)
}

// checkRepresentations fails unless the minterm masks and the cube covers
// return the same cubes in the same order.
func checkRepresentations(t *testing.T, n int, on, off []uint64) {
	t.Helper()
	want := viaCubes(n, on, off)
	got := MinimizeMinterms(n, on, off)
	if got.N != want.N || !slices.Equal(got.Cubes, want.Cubes) {
		t.Fatalf("n=%d on=%v off=%v: minterm masks give\n%scube covers give\n%s", n, on, off, got, want)
	}
}

// checkCounts fails unless the scratch entry points, reused across calls,
// count the cubes and literals of the cover the cube-cover reference
// returns: Count from the off-list and, up to MaxMintermVars variables,
// CountMasked from its mask.
func checkCounts(t *testing.T, s *Scratch, n int, on, off []uint64) {
	t.Helper()
	want := viaCubes(n, on, off)
	if cubes, literals := s.Count(n, on, off); cubes != want.Size() || literals != want.Literals() {
		t.Fatalf("n=%d on=%v off=%v: scratch counts %d cubes, %d literals; cover has %d, %d\n%s",
			n, on, off, cubes, literals, want.Size(), want.Literals(), want)
	}
	if n > MaxMintermVars {
		return
	}
	var offSet Minterms
	for _, m := range off {
		offSet.Add(m)
	}
	if cubes, literals := s.CountMasked(n, on, offSet); cubes != want.Size() || literals != want.Literals() {
		t.Fatalf("n=%d on=%v off=%v: masked scratch counts %d cubes, %d literals; cover has %d, %d\n%s",
			n, on, off, cubes, literals, want.Size(), want.Literals(), want)
	}
}

// label splits the minterms of an n-variable space by one base-3 digit
// each — on, off or don't-care — and returns the on- and off-sets in
// ascending order.
func label(n int, digits func(m uint64) int) (on, off []uint64) {
	for m := uint64(0); m < 1<<uint(n); m++ {
		switch digits(m) {
		case 0:
			on = append(on, m)
		case 1:
			off = append(off, m)
		}
	}
	return on, off
}

// TestMintermsMatchCubesExhaustive tries every on/off/don't-care labelling
// of the spaces of up to 3 variables, with the on-set ascending and in one
// shuffled order.
func TestMintermsMatchCubesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 3; n++ {
		size := 1 << uint(n)
		total := 1
		for i := 0; i < size; i++ {
			total *= 3
		}
		for code := 0; code < total; code++ {
			on, off := label(n, func(m uint64) int {
				d := code
				for i := uint64(0); i < m; i++ {
					d /= 3
				}
				return d % 3
			})
			checkRepresentations(t, n, on, off)
			rng.Shuffle(len(on), func(i, j int) { on[i], on[j] = on[j], on[i] })
			checkRepresentations(t, n, on, off)
		}
	}
}

// TestMintermsMatchCubesRandom tries 2,000 random labellings with random
// on-orders for every space of 4 to 7 variables; 6 and 7 variables fill
// one and both words of the mask.
func TestMintermsMatchCubesRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for n := 4; n <= MaxMintermVars; n++ {
		for trial := 0; trial < 2000; trial++ {
			// Vary the label mix so sparse and dense on-sets both occur.
			pOn, pOff := rng.Intn(4), rng.Intn(4)
			on, off := label(n, func(uint64) int {
				switch r := rng.Intn(8); {
				case r <= pOn:
					return 0
				case r <= pOn+1+pOff:
					return 1
				default:
					return 2
				}
			})
			rng.Shuffle(len(on), func(i, j int) { on[i], on[j] = on[j], on[i] })
			rng.Shuffle(len(off), func(i, j int) { off[i], off[j] = off[j], off[i] })
			checkRepresentations(t, n, on, off)
		}
	}
}

// TestMintermsRepeated: repeated minterms, on or off, change no answer of
// the loop's set questions, so both representations still agree.
func TestMintermsRepeated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(MaxMintermVars-1)
		on, off := label(n, func(uint64) int { return rng.Intn(3) })
		for k := rng.Intn(4); k > 0 && len(off) > 0; k-- {
			off = append(off, off[rng.Intn(len(off))])
		}
		for k := rng.Intn(3); k > 0 && len(on) > 0; k-- {
			on = append(on, on[rng.Intn(len(on))])
		}
		rng.Shuffle(len(on), func(i, j int) { on[i], on[j] = on[j], on[i] })
		checkRepresentations(t, n, on, off)
	}
}

// TestScratchCountExhaustive counts every on/off/don't-care labelling of
// the spaces of up to 3 variables through one scratch, with the on-set
// ascending, descending and in one shuffled order.
func TestScratchCountExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s Scratch
	for n := 0; n <= 3; n++ {
		total := 1
		for i := 0; i < 1<<uint(n); i++ {
			total *= 3
		}
		for code := 0; code < total; code++ {
			on, off := label(n, func(m uint64) int {
				d := code
				for i := uint64(0); i < m; i++ {
					d /= 3
				}
				return d % 3
			})
			checkCounts(t, &s, n, on, off)
			slices.Reverse(on)
			checkCounts(t, &s, n, on, off)
			rng.Shuffle(len(on), func(i, j int) { on[i], on[j] = on[j], on[i] })
			checkCounts(t, &s, n, on, off)
		}
	}
}

// TestScratchCountRandom counts random labellings of the spaces of 4 to 7
// variables through one scratch, each under three on-list orders, and a
// few 8-variable functions, which take the cube-cover path.
func TestScratchCountRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var s Scratch
	for n := 4; n <= MaxMintermVars+1; n++ {
		trials := 500
		if n > MaxMintermVars {
			trials = 20
		}
		for trial := 0; trial < trials; trial++ {
			pOn, pOff := rng.Intn(4), rng.Intn(4)
			on, off := label(n, func(uint64) int {
				switch r := rng.Intn(8); {
				case r <= pOn:
					return 0
				case r <= pOn+1+pOff:
					return 1
				default:
					return 2
				}
			})
			if n > MaxMintermVars && len(on) > 24 {
				on = on[:24]
			}
			for order := 0; order < 3; order++ {
				rng.Shuffle(len(on), func(i, j int) { on[i], on[j] = on[j], on[i] })
				checkCounts(t, &s, n, on, off)
			}
		}
	}
}

func TestMintermsSpaceAndCube(t *testing.T) {
	for n := 0; n <= MaxMintermVars; n++ {
		s := &mintermSets{n: n, all: space(n)}
		if got := bits.OnesCount64(s.all[0]) + bits.OnesCount64(s.all[1]); got != 1<<uint(n) {
			t.Fatalf("space(%d) holds %d minterms", n, got)
		}
		if !s.minterms(Universe(n)).andNot(s.all).empty() || s.minterms(Universe(n)) != s.all {
			t.Fatalf("universe of %d variables is not the whole space", n)
		}
		if n > 0 && !s.minterms(Cube{}).empty() {
			t.Fatalf("empty cube has minterms in %d variables", n)
		}
		for m := uint64(0); m < 1<<uint(n); m++ {
			want := Minterms{}
			want.Add(m)
			if got := s.minterms(MintermCube(n, m)); got != want {
				t.Fatalf("minterm cube %d of %d variables has minterms %x", m, n, got)
			}
		}
	}
}

// FuzzMintermMinimize compares the two representations on arbitrary
// spaces of up to 7 variables, and the scratch entry point's counts with
// the cover's: raw's bytes are the on-set in order (repeats allowed), the
// bits of off0/off1 not in the on-set the off-set, and every remaining
// minterm is a don't-care.
func FuzzMintermMinimize(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 3, 7}, uint64(0x30), uint64(0))
	f.Add(uint8(6), []byte{63, 0, 21, 42, 5}, uint64(0x0F0F0000F0F0), uint64(0))
	f.Add(uint8(7), []byte{127, 64, 1, 65, 100}, uint64(0xAAAA5555), uint64(0x5555AAAA00))
	// A checkerboard leaves stale cubes in every buffer of the scratch each
	// input reuses, without sharing state between inputs.
	var board []uint64
	for m := uint64(0); m < 1<<MaxMintermVars; m++ {
		if bits.OnesCount64(m)%2 == 1 {
			board = append(board, m)
		}
	}
	f.Fuzz(func(t *testing.T, nb uint8, raw []byte, off0, off1 uint64) {
		if len(raw) > 128 {
			return
		}
		n := int(nb % (MaxMintermVars + 1))
		var onSet Minterms
		on := make([]uint64, len(raw))
		for i, b := range raw {
			on[i] = uint64(b) & mask(n)
			onSet.Add(on[i])
		}
		var off []uint64
		offSet := Minterms{off0, off1}.and(space(n)).andNot(onSet)
		for m := uint64(0); m < 1<<uint(n); m++ {
			if offSet.Has(m) {
				off = append(off, m)
			}
		}
		checkRepresentations(t, n, on, off)
		var s Scratch
		s.Count(MaxMintermVars, board, nil)
		checkCounts(t, &s, n, on, off)
	})
}
