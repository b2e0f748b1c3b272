package anneal

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/constraint"
	"repro/internal/cost"
	"repro/internal/hypercube"
)

func exampleConstraints() *constraint.Set {
	return constraint.MustParse(`
		symbols a b c d e f g
		face e f c
		face e d g
		face a b d
		face a g f d
	`)
}

func TestEncodeBasics(t *testing.T) {
	cs := exampleConstraints()
	enc, stats, err := Encode(cs, Options{Metric: cost.Literals, Temps: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if enc.Bits != 3 {
		t.Fatalf("minimum length = 3 bits, got %d", enc.Bits)
	}
	seen := map[hypercube.Code]bool{}
	for _, c := range enc.Codes {
		if c >= 8 {
			t.Fatalf("code out of range: %b", c)
		}
		if seen[c] {
			t.Fatalf("duplicate code:\n%s", enc)
		}
		seen[c] = true
	}
	if stats.Evaluations == 0 || stats.Moves == 0 {
		t.Fatalf("stats not recorded: %+v", stats)
	}
	if stats.Elapsed <= 0 {
		t.Fatal("elapsed time must be recorded")
	}
}

func TestDeterministicSeed(t *testing.T) {
	cs := exampleConstraints()
	a, _, err := Encode(cs, Options{Temps: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Encode(cs, Options{Temps: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Codes {
		if a.Codes[i] != b.Codes[i] {
			t.Fatal("same seed must reproduce the same encoding")
		}
	}
}

func TestImprovesOverInitial(t *testing.T) {
	cs := exampleConstraints()
	initial := make([]hypercube.Code, cs.N())
	for i := range initial {
		initial[i] = hypercube.Code(i)
	}
	initialCost := cost.Of(cost.Literals, cs, cost.FullAssignment(3, initial))
	enc, stats, err := Encode(cs, Options{Metric: cost.Literals, Temps: 60, SwapsPerTemp: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	final := cost.Of(cost.Literals, cs, cost.FullAssignment(enc.Bits, enc.Codes))
	if final > initialCost {
		t.Fatalf("annealing ended worse than it started: %d > %d", final, initialCost)
	}
	if stats.FinalCost != final {
		t.Fatalf("reported final cost %d != recomputed %d", stats.FinalCost, final)
	}
}

func TestCachedMatchesUncached(t *testing.T) {
	cs := exampleConstraints()
	a, _, err := Encode(cs, Options{Temps: 15, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Encode(cs, Options{Temps: 15, Seed: 5, UseCache: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Codes {
		if a.Codes[i] != b.Codes[i] {
			t.Fatal("the cached evaluator must not change the annealing trajectory")
		}
	}
}

func TestTooManySymbols(t *testing.T) {
	cs := constraint.MustParse("symbols a b c\nface a b\n")
	if _, _, err := Encode(cs, Options{Bits: 1}); err == nil {
		t.Fatal("3 symbols cannot fit in 1 bit")
	}
}

// A one-symbol set has no swap to make: Encode must return the identity
// assignment instead of drawing a second symbol forever.
func TestSingleSymbol(t *testing.T) {
	for _, opts := range []Options{{}, {Bits: 2, UseCache: true}} {
		done := make(chan error, 1)
		go func() {
			enc, stats, err := Encode(constraint.MustParse("symbols a\n"), opts)
			if err == nil && (len(enc.Codes) != 1 || enc.Codes[0] != 0 || stats.Moves != 0) {
				err = fmt.Errorf("got codes %v after %d moves, want [0] after none", enc.Codes, stats.Moves)
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%+v: %v", opts, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%+v: Encode did not return on a one-symbol set", opts)
		}
	}
}
