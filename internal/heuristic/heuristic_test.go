package heuristic

import (
	"context"
	"testing"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/hypercube"
	"repro/internal/par"
	"repro/internal/trace"
)

func distinct(codes []hypercube.Code) bool {
	seen := map[hypercube.Code]bool{}
	for _, c := range codes {
		if seen[c] {
			return false
		}
		seen[c] = true
	}
	return true
}

// TestSection7Example runs the heuristic at minimum length on the
// Section-7 constraint set (e,f,c)(e,d,g)(a,b,d)(a,g,f,d): 3 bits cannot
// satisfy everything, so at least one violation remains, but codes must be
// distinct and the cost no worse than a naive identity assignment.
func TestSection7Example(t *testing.T) {
	cs := constraint.MustParse(`
		symbols a b c d e f g
		face e f c
		face e d g
		face a b d
		face a g f d
	`)
	for _, metric := range []cost.Metric{cost.Violations, cost.Cubes, cost.Literals} {
		res, err := EncodeCtx(context.Background(), cs, Options{Metric: metric})
		if err != nil {
			t.Fatalf("%v: %v", metric, err)
		}
		if res.Encoding.Bits != 3 {
			t.Fatalf("%v: minimum length is 3 bits, got %d", metric, res.Encoding.Bits)
		}
		if !distinct(res.Encoding.Codes) {
			t.Fatalf("%v: duplicate codes:\n%s", metric, res.Encoding)
		}
		if res.Cost.Violations < 1 {
			t.Fatalf("%v: 3-bit encodings must violate a constraint (paper, Section 7)", metric)
		}
		// A naive identity assignment violates 3-4 constraints; the
		// heuristic must do no worse than 3 on this tiny instance.
		naive := make([]hypercube.Code, cs.N())
		for i := range naive {
			naive[i] = hypercube.Code(i)
		}
		naiveViol := cost.CountViolations(cs, cost.FullAssignment(3, naive))
		if res.Cost.Violations > naiveViol {
			t.Fatalf("%v: heuristic (%d violations) worse than identity codes (%d)",
				metric, res.Cost.Violations, naiveViol)
		}
	}
}

// TestFourBitsSatisfiesAll gives the Section-7 constraints one extra bit:
// the paper shows a satisfying 4-bit encoding exists; the heuristic should
// get close (and must stay structurally sound).
func TestFourBitsSatisfiesAll(t *testing.T) {
	cs := constraint.MustParse(`
		symbols a b c d e f g
		face e f c
		face e d g
		face a b d
		face a g f d
	`)
	res, err := EncodeCtx(context.Background(), cs, Options{Metric: cost.Violations, Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Encoding.Bits != 4 {
		t.Fatalf("want 4 bits, got %d", res.Encoding.Bits)
	}
	if !distinct(res.Encoding.Codes) {
		t.Fatalf("duplicate codes:\n%s", res.Encoding)
	}
	if res.Cost.Violations > 2 {
		t.Fatalf("with 4 bits at most 2 violations are acceptable for the heuristic, got %d", res.Cost.Violations)
	}
}

// TestSingleConstraint checks the degenerate cases.
func TestSingleConstraint(t *testing.T) {
	cs := constraint.MustParse(`
		symbols a b c d
		face a b
	`)
	res, err := EncodeCtx(context.Background(), cs, Options{Metric: cost.Violations})
	if err != nil {
		t.Fatal(err)
	}
	if res.Encoding.Bits != 2 {
		t.Fatalf("4 symbols need 2 bits, got %d", res.Encoding.Bits)
	}
	if !distinct(res.Encoding.Codes) {
		t.Fatalf("duplicate codes:\n%s", res.Encoding)
	}
	if res.Cost.Violations != 0 {
		t.Fatalf("(a,b) is satisfiable in 2 bits, got %d violations:\n%s",
			res.Cost.Violations, res.Encoding)
	}
}

// TestTwoSymbols exercises the base case of the recursion.
func TestTwoSymbols(t *testing.T) {
	cs := constraint.MustParse(`
		symbols a b
		face a b
	`)
	res, err := EncodeCtx(context.Background(), cs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Encoding.Bits != 1 || !distinct(res.Encoding.Codes) {
		t.Fatalf("bad base-case encoding:\n%s", res.Encoding)
	}
}

// TestGreedySelectionPath forces the non-exhaustive selection path by
// shrinking the evaluation budget: the greedy seed plus swap passes must
// still deliver distinct codes.
func TestGreedySelectionPath(t *testing.T) {
	cs := constraint.MustParse(`
		symbols a b c d e f g h i j
		face a b c
		face d e f
		face g h i
		face a d g
		face b e h
		face c f j
	`)
	res, err := EncodeCtx(context.Background(), cs, Options{Metric: cost.Violations, MaxEvaluations: 10, Restarts: 2, PolishBudget: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !distinct(res.Encoding.Codes) {
		t.Fatalf("duplicate codes under tiny budget:\n%s", res.Encoding)
	}
	if res.Encoding.Bits != 4 {
		t.Fatalf("10 symbols at minimum length = 4 bits, got %d", res.Encoding.Bits)
	}
}

// TestEnsureUnique exercises the duplicate-repair safety net directly.
func TestEnsureUnique(t *testing.T) {
	cs := constraint.MustParse("symbols a b c d\nface a b\n")
	enc := core.NewEncoding(cs.Syms, 2, []hypercube.Code{1, 1, 1, 0})
	ensureUnique(enc, 2)
	if !distinct(enc.Codes) {
		t.Fatalf("ensureUnique failed: %v", enc.Codes)
	}
	for _, c := range enc.Codes {
		if c >= 4 {
			t.Fatalf("code out of range: %v", enc.Codes)
		}
	}
}

// TestEncodeRejectsBitsAboveLimit: the polish pass allocates one flag per
// code point, so a length above MaxBits is refused before any work.
func TestEncodeRejectsBitsAboveLimit(t *testing.T) {
	cs := constraint.MustParse("face a b\nface b c\n")
	if _, err := EncodeCtx(context.Background(), cs, Options{Bits: 40}); err == nil {
		t.Fatal("Bits: 40 accepted")
	}
	if _, err := EncodeCtx(context.Background(), cs, Options{Bits: MaxBits}); err != nil {
		t.Fatalf("Bits: MaxBits: %v", err)
	}
}

// TestPolishSpanCounters: the heuristic.polish span reports the final cost
// next to the polish evaluator's memo hits and misses, both of which a
// literal-metric polish of a few hundred moves has.
func TestPolishSpanCounters(t *testing.T) {
	cs := constraint.MustParse("face a b\nface c d\nface a c e\nface b f\n")
	ctx, rec := trace.Start(context.Background())
	res, err := EncodeCtx(ctx, cs, Options{Metric: cost.Literals, Parallelism: par.Workers(1), Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	sp, ok := rec.Snapshot().Find("heuristic.polish")
	if !ok {
		t.Fatal("no heuristic.polish span")
	}
	if v, _ := sp.Attr("cost"); v != int64(res.Cost.Literals) {
		t.Fatalf("polish span cost %d, encoding has %d literals", v, res.Cost.Literals)
	}
	hits, okHits := sp.Attr("hits")
	misses, okMisses := sp.Attr("misses")
	if !okHits || !okMisses || hits <= 0 || misses <= 0 {
		t.Fatalf("polish span hits %d (%v), misses %d (%v); want both reported and positive", hits, okHits, misses, okMisses)
	}
}
