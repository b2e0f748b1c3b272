package espresso

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// stepSets returns both representations of the function of n variables
// whose minterms rng labels on, off or don't-care, mixing sparse and
// dense off-sets.
func stepSets(rng *rand.Rand, n int) (*coverSets, *mintermSets) {
	pOff := rng.Intn(4)
	on, off := label(n, func(uint64) int {
		switch r := rng.Intn(6); {
		case r <= pOff:
			return 1
		case r == 5:
			return 2
		default:
			return 0
		}
	})
	f, offCover := FromMinterms(n, on), FromMinterms(n, off)
	both := f.Clone()
	both.Cubes = append(both.Cubes, offCover.Cubes...)
	var onSet, offSet Minterms
	for _, m := range on {
		onSet.Add(m)
	}
	for _, m := range off {
		offSet.Add(m)
	}
	ms := &mintermSets{}
	ms.reset(n, offSet, space(n).andNot(onSet.or(offSet)))
	return &coverSets{off: offCover, dc: both.Complement()}, ms
}

// randomCubes draws k non-empty cubes over n variables.
func randomCubes(rng *rand.Rand, n, k int) []Cube {
	cubes := make([]Cube, k)
	for i := range cubes {
		for v := 0; v < n; v++ {
			b := uint64(1) << uint(v)
			switch rng.Intn(3) {
			case 0:
				cubes[i].Z |= b
			case 1:
				cubes[i].O |= b
			default:
				cubes[i].Z |= b
				cubes[i].O |= b
			}
		}
	}
	return cubes
}

// mergeRestarting makes mergeSupercubes' merges by starting the scan over
// from the first pair after each merge: the reference the resuming scan
// must match.
func mergeRestarting(s sets, f *Cover) {
	for {
		merged := false
		for i := 0; i < len(f.Cubes) && !merged; i++ {
			for j := i + 1; j < len(f.Cubes); j++ {
				if sc := f.Cubes[i].Supercube(f.Cubes[j]); !s.meetsOff(sc) {
					f.Cubes[i] = sc
					f.Cubes = append(f.Cubes[:j], f.Cubes[j+1:]...)
					merged = true
					break
				}
			}
		}
		if !merged {
			return
		}
	}
}

// stepMismatch runs each step of the loop on random cubes through both
// representations of one function and names the first step whose answers
// differ: the off-set test, the raise of a cube, the merge scan against
// its restarting form, the coverage test under random removals, and the
// reduction of each cube in turn.
func stepMismatch(rng *rand.Rand, n int) string {
	cs, ms := stepSets(rng, n)
	cubes := randomCubes(rng, n, 1+rng.Intn(8))
	for _, c := range cubes {
		if got, want := ms.meetsOff(c), cs.meetsOff(c); got != want {
			return fmt.Sprintf("meetsOff(%s): masks %v, cubes %v", c.String(n), got, want)
		}
		if got, want := ms.expandCube(c), cs.expandCube(c); got != want {
			return fmt.Sprintf("expandCube(%s): masks %s, cubes %s", c.String(n), got.String(n), want.String(n))
		}
	}
	for _, s := range []sets{cs, ms} {
		got := &Cover{N: n, Cubes: slices.Clone(cubes)}
		want := &Cover{N: n, Cubes: slices.Clone(cubes)}
		(&loop{sets: s}).mergeSupercubes(got)
		mergeRestarting(s, want)
		if !slices.Equal(got.Cubes, want.Cubes) {
			return fmt.Sprintf("mergeSupercubes over %T of\n%s: resuming gives\n%srestarting\n%s", s, &Cover{N: n, Cubes: cubes}, got, want)
		}
	}
	removed := make([]bool, len(cubes))
	for i := range removed {
		removed[i] = rng.Intn(3) == 0
	}
	cs.load(cubes)
	ms.load(cubes)
	for i := range cubes {
		if got, want := ms.covered(i, removed), cs.covered(i, removed); got != want {
			return fmt.Sprintf("covered(%d, %v) of\n%s: masks %v, cubes %v", i, removed, &Cover{N: n, Cubes: cubes}, got, want)
		}
	}
	viaMasks, viaCubes := slices.Clone(cubes), slices.Clone(cubes)
	cs.load(viaCubes)
	ms.load(viaMasks)
	for i := range cubes {
		cs.reduceCube(i)
		ms.reduceCube(i)
		if !slices.Equal(viaMasks, viaCubes) {
			return fmt.Sprintf("reduceCube(%d) of\n%s: masks give\n%scubes\n%s", i, &Cover{N: n, Cubes: cubes},
				&Cover{N: n, Cubes: viaMasks}, &Cover{N: n, Cubes: viaCubes})
		}
	}
	return ""
}

// TestStepsMatchCubes: on random functions and random covers of 1 to 7
// variables, the minterm masks answer every step's questions as the cube
// covers do, and the merge scan that resumes after a merge makes the
// merges of the one that restarts.
func TestStepsMatchCubes(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for n := 1; n <= MaxMintermVars; n++ {
		for trial := 0; trial < 400; trial++ {
			if msg := stepMismatch(rng, n); msg != "" {
				t.Fatalf("n=%d trial %d: %s", n, trial, msg)
			}
		}
	}
}

func TestFlip(t *testing.T) {
	for v := 0; v < MaxMintermVars; v++ {
		for m := uint64(0); m < 1<<MaxMintermVars; m++ {
			var s, want Minterms
			s.Add(m)
			want.Add(m ^ 1<<uint(v))
			if got := s.flip(v); got != want {
				t.Fatalf("flip(%d) of minterm %d gives %x, want %x", v, m, got, want)
			}
		}
	}
}
