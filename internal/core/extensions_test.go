package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/constraint"
	"repro/internal/hypercube"
)

// TestSection83NonFace reproduces the Section-8.3 example: faces (a,b),
// (b,c,d), (a,e), (d,f) plus non-face a,b,e( — the face spanned by a,b,e
// must pick up an intruder.
func TestSection83NonFace(t *testing.T) {
	cs := constraint.MustParse(`
		symbols a b c d e f
		face a b
		face b c d
		face a e
		face d f
		nonface a b e
	`)
	res, err := ExactEncodeCtx(context.Background(), cs, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v := Verify(cs, res.Encoding); len(v) != 0 {
		t.Fatalf("verification failed: %v\n%s", v, res.Encoding)
	}
	if res.Encoding.Bits != 3 {
		t.Fatalf("the paper exhibits a 3-bit solution; got %d bits", res.Encoding.Bits)
	}
}

func TestDistance2(t *testing.T) {
	cs := constraint.MustParse(`
		symbols a b c d
		face a b
		dist2 a b
	`)
	res, err := ExactEncodeCtx(context.Background(), cs, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v := Verify(cs, res.Encoding); len(v) != 0 {
		t.Fatalf("verification failed: %v\n%s", v, res.Encoding)
	}
	a, _ := res.Encoding.Code("a")
	b, _ := res.Encoding.Code("b")
	if hypercube.Distance(a, b) < 2 {
		t.Fatalf("a and b must be at distance >= 2:\n%s", res.Encoding)
	}
}

func TestDistance2WithOutputConstraints(t *testing.T) {
	cs := constraint.MustParse(`
		symbols a b c d
		face a b
		dom a > c
		dist2 c d
	`)
	res, err := ExactEncodeCtx(context.Background(), cs, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v := Verify(cs, res.Encoding); len(v) != 0 {
		t.Fatalf("verification failed: %v\n%s", v, res.Encoding)
	}
}

// TestExtendedMatchesExact: with no extension clause beyond the seed rows,
// the binate lowering of the extended covering step proves the same
// minimum as the unate matrix over the same candidate pool.
func TestExtendedMatchesExact(t *testing.T) {
	cs := constraint.MustParse(`
		symbols s0 s1 s2 s3
		face s0 s1
		dom s0 > s1
		dom s1 > s2
		disj s0 = s1 | s3
	`)
	plain, err := ExactEncodeCtx(context.Background(), cs, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cols, optimal, err := coverExtended(context.Background(), cs, plain.Seeds, plain.Primes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Optimal || !optimal || len(cols) != plain.Encoding.Bits {
		t.Fatalf("binate lowering chose %d columns (optimal=%v), unate %d (optimal=%v)",
			len(cols), optimal, plain.Encoding.Bits, plain.Optimal)
	}
	enc := FromColumns(cs.Syms, cols)
	if v := Verify(cs, enc); len(v) != 0 {
		t.Fatalf("verification failed: %v\n%s", v, enc)
	}
}

// TestExactEncodeSolvesChains: chain sets go through the one exact entry
// point, which answers with the direct search's minimum-length codes.
func TestExactEncodeSolvesChains(t *testing.T) {
	cs := constraint.MustParse("symbols a b\nchain a b\n")
	res, err := ExactEncodeCtx(context.Background(), cs, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.Encoding.Bits != 1 {
		t.Fatalf("want an optimal 1-bit chain encoding, got %d bits (optimal=%v)", res.Encoding.Bits, res.Optimal)
	}
	if v := Verify(cs, res.Encoding); len(v) != 0 {
		t.Fatalf("verification failed: %v\n%s", v, res.Encoding)
	}
}

// chainSearchHeavy is a chain set whose direct search runs for minutes,
// far longer than any test budget.
const chainSearchHeavy = `
	chain a b
	face a c
	face a d
	face b c
	face b d
	face a b e
	face c d e
	face f g
	face g h
`

// TestChainSearchHonoursDeadline: the chain search polls its context, so a
// 100 ms deadline ends it promptly with the context error.
func TestChainSearchHonoursDeadline(t *testing.T) {
	cs := constraint.MustParse(chainSearchHeavy)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ExactEncodeCtx(ctx, cs, ExactOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("search ran %v past a 100ms deadline", d)
	}
}

// TestSolveWithChains reproduces the Section-8.4 example: faces (b,c),
// (a,b) with the chain (d - b - c - a); the paper exhibits a=00, b=10,
// c=11, d=01.
func TestSolveWithChains(t *testing.T) {
	cs := constraint.MustParse(`
		symbols a b c d
		face b c
		face a b
		chain d b c a
	`)
	enc, err := SolveWithChains(context.Background(), cs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v := Verify(cs, enc); len(v) != 0 {
		t.Fatalf("verification failed: %v\n%s", v, enc)
	}
	if enc.Bits != 2 {
		t.Fatalf("the paper exhibits a 2-bit solution; got %d bits", enc.Bits)
	}
	d, _ := enc.Code("d")
	b, _ := enc.Code("b")
	c, _ := enc.Code("c")
	a, _ := enc.Code("a")
	mask := uint64(1)<<uint(enc.Bits) - 1
	if b != (d+1)&mask || c != (b+1)&mask || a != (c+1)&mask {
		t.Fatalf("chain ordering broken: d=%d b=%d c=%d a=%d", d, b, c, a)
	}
}

func TestSolveWithChainsInfeasible(t *testing.T) {
	// A chain of 3 plus distance-2 between consecutive elements cannot
	// hold (consecutive binary numbers x, x+1 with x even differ in 1 bit).
	cs := constraint.MustParse(`
		symbols a b c
		chain a b c
		dist2 a b
		dist2 b c
	`)
	if _, err := SolveWithChains(context.Background(), cs, 3); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

// TestExhaustiveAgreesWithPrimes cross-checks the prime-based pipeline
// against exhaustive column enumeration on random feasible instances.
func TestExhaustiveAgreesWithPrimes(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		cs := randomConstraints(rng, 4+rng.Intn(2))
		ref, errRef := ExactEncodeCtx(context.Background(), cs, ExactOptions{Exhaustive: true})
		got, errGot := ExactEncodeCtx(context.Background(), cs, ExactOptions{})
		if (errRef == nil) != (errGot == nil) {
			t.Fatalf("trial %d: feasibility disagreement: exhaustive=%v primes=%v\n%s",
				trial, errRef, errGot, cs)
		}
		if errRef != nil {
			continue
		}
		if ref.Encoding.Bits != got.Encoding.Bits {
			t.Fatalf("trial %d: exhaustive found %d bits, primes %d\n%s",
				trial, ref.Encoding.Bits, got.Encoding.Bits, cs)
		}
		if v := Verify(cs, got.Encoding); len(v) != 0 {
			t.Fatalf("trial %d: %v", trial, v)
		}
	}
}

func randomConstraints(rng *rand.Rand, n int) *constraint.Set {
	cs := constraint.NewSet(nil)
	for i := 0; i < n; i++ {
		cs.Syms.Intern(string(rune('a' + i)))
	}
	for k := 1 + rng.Intn(2); k > 0; k-- {
		var members []int
		for s := 0; s < n; s++ {
			if rng.Intn(3) == 0 {
				members = append(members, s)
			}
		}
		if len(members) >= 2 && len(members) < n {
			f := constraint.Face{}
			for _, m := range members {
				f.Members.Add(m)
			}
			cs.Faces = append(cs.Faces, f)
		}
	}
	for k := rng.Intn(3); k > 0; k-- {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			cs.Dominances = append(cs.Dominances, constraint.Dominance{Big: a, Small: b})
		}
	}
	if rng.Intn(3) == 0 {
		p := rng.Intn(n)
		c1, c2 := (p+1)%n, (p+2)%n
		cs.Disjunctives = append(cs.Disjunctives, constraint.Disjunctive{Parent: p, Children: []int{c1, c2}})
	}
	return cs
}

// TestFeasibilityAgreesWithExhaustive validates Theorem 6.1 empirically:
// CheckFeasible must agree with a brute-force search for a satisfying
// encoding over all code lengths up to n bits.
func TestFeasibilityAgreesWithExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 80; trial++ {
		n := 3 + rng.Intn(2)
		cs := randomConstraints(rng, n)
		feasible := CheckFeasible(cs).Feasible
		_, err := ExactEncodeCtx(context.Background(), cs, ExactOptions{Exhaustive: true})
		bruteFeasible := err == nil
		if feasible != bruteFeasible {
			t.Fatalf("trial %d: CheckFeasible=%v but exhaustive=%v\n%s",
				trial, feasible, bruteFeasible, cs)
		}
	}
}

func TestBinateAbstractionLimits(t *testing.T) {
	cs := constraint.NewSet(nil)
	cs.Syms.Intern("a")
	if _, err := BuildBinateTable(cs); err == nil {
		t.Fatal("single symbol must be rejected")
	}
}

func TestEmptyConstraintSet(t *testing.T) {
	cs := constraint.NewSet(nil)
	res, err := ExactEncodeCtx(context.Background(), cs, ExactOptions{})
	if err != nil || res.Encoding.Bits != 0 {
		t.Fatalf("empty set: %+v, %v", res, err)
	}
}

func TestUniquenessOnly(t *testing.T) {
	// No constraints at all: n symbols still need distinct codes.
	cs := constraint.NewSet(nil)
	for _, s := range []string{"a", "b", "c", "d", "e"} {
		cs.Syms.Intern(s)
	}
	res, err := ExactEncodeCtx(context.Background(), cs, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Encoding.Bits != 3 {
		t.Fatalf("5 symbols need exactly 3 bits, got %d", res.Encoding.Bits)
	}
	if v := Verify(cs, res.Encoding); len(v) != 0 {
		t.Fatalf("%v", v)
	}
}

// TestExactEncodeSolvesExtensions: a distance-2 set goes through the one
// exact entry point: a and b need two separating columns.
func TestExactEncodeSolvesExtensions(t *testing.T) {
	cs := constraint.MustParse("symbols a b\nface a b\ndist2 a b\n")
	res, err := ExactEncodeCtx(context.Background(), cs, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.Encoding.Bits != 2 {
		t.Fatalf("want an optimal 2-bit encoding, got %d bits (optimal=%v)", res.Encoding.Bits, res.Optimal)
	}
	if v := Verify(cs, res.Encoding); len(v) != 0 {
		t.Fatalf("verification failed: %v\n%s", v, res.Encoding)
	}
}

// TestExtendedExpiredContextNotInfeasible: an extension set solved under an
// expired context yields the context error or a non-optimal incumbent —
// never ErrInfeasible, which would claim the constraints contradict.
func TestExtendedExpiredContextNotInfeasible(t *testing.T) {
	cs := constraint.MustParse(`
		symbols a b c d e f
		face a b
		face b c d
		face a e
		face d f
		nonface a b e
		dist2 a f
	`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, backend := range []Backend{BackendBranchBound, BackendSAT} {
		res, err := ExactEncodeCtx(ctx, cs, ExactOptions{Backend: backend})
		switch {
		case errors.Is(err, ErrInfeasible):
			t.Fatalf("%v: expired context reported as %v", backend, err)
		case err != nil && !errors.Is(err, context.Canceled):
			t.Fatalf("%v: err = %v, want context.Canceled", backend, err)
		case err == nil && res.Optimal:
			t.Fatalf("%v: expired context claims optimality", backend)
		case err == nil:
			if v := Verify(cs, res.Encoding); len(v) != 0 {
				t.Fatalf("%v: incumbent fails verification: %v", backend, v)
			}
		}
	}
}

func TestExhaustivePanicsOnLargeUniverse(t *testing.T) {
	cs := constraint.NewSet(nil)
	for i := 0; i < 23; i++ {
		cs.Syms.Intern(string(rune('a'+i%26)) + string(rune('0'+i/26)))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("exhaustive enumeration beyond 22 symbols must panic")
		}
	}()
	_, _ = ExactEncodeCtx(context.Background(), cs, ExactOptions{Exhaustive: true})
}

func TestSolveWithChainsRejectsLarge(t *testing.T) {
	cs := constraint.NewSet(nil)
	for i := 0; i < 15; i++ {
		cs.Syms.Intern(string(rune('a' + i)))
	}
	if _, err := SolveWithChains(context.Background(), cs, 4); err == nil {
		t.Fatal("SolveWithChains beyond 14 symbols must be rejected")
	}
}

func TestDistance2InfeasibleWhenNoSeparators(t *testing.T) {
	// Two symbols in one bit cannot be distance-2 apart: the pipeline must
	// report infeasibility rather than return a bad encoding... with
	// unbounded bits a solution exists, so instead force contradictory
	// dominances plus distance-2.
	cs := constraint.MustParse(`
		symbols a b
		dom a > b
		dom b > a
		dist2 a b
	`)
	if _, err := ExactEncodeCtx(context.Background(), cs, ExactOptions{}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

// TestExtendedOptimalityWithDistance2 pins the "exact-minimality" invariant
// on a reproducer shrunk by the differential harness (difftest, extended
// family, seed 30): a minimum-length solution under distance-2 clauses can
// require valid columns that are not primes of the base face set, so the
// extended solver must complete its candidate pool (or stop claiming
// optimality). A 3-bit witness exists — s0=000, s1=111, s4=110, s5=101 —
// and the restricted prime pool used to "prove" 4 bits minimal.
func TestExtendedOptimalityWithDistance2(t *testing.T) {
	cs := constraint.MustParse(`
		symbols s0 s1 s4 s5
		face s0 s4
		face s4 s5 [ s1 ]
		dist2 s5 s4
		dist2 s0 s4
	`)
	res, err := ExactEncodeCtx(context.Background(), cs, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v := Verify(cs, res.Encoding); len(v) != 0 {
		t.Fatalf("verification failed: %v\n%s", v, res.Encoding)
	}
	if !res.Optimal {
		t.Fatalf("small universe must be solved with the complete pool and claim optimality")
	}
	if res.Encoding.Bits != 3 {
		t.Fatalf("a 3-bit solution exists (s0=000 s1=111 s4=110 s5=101); got %d bits:\n%s",
			res.Encoding.Bits, res.Encoding)
	}
}
