package sat

import (
	"context"
	"math/bits"
	"testing"
)

// extendable reports whether fixing the first n variables of f to the bits
// of m leaves the formula satisfiable (i.e. the auxiliary variables can be
// completed).
func extendable(t *testing.T, f *CNF, n int, m uint) bool {
	t.Helper()
	g := NewCNF(f.NumVars())
	g.Clauses = append(g.Clauses, f.Clauses...)
	for v := 0; v < n; v++ {
		if m&(1<<v) != 0 {
			g.AddClause(Pos(v))
		} else {
			g.AddClause(Neg(v))
		}
	}
	res := (&DPLL{}).Solve(context.Background(), g)
	if res.Status == Unknown {
		t.Fatalf("solver gave up on an at-most-k extension query")
	}
	return res.Status == Sat
}

// checkAtMostK enumerates every assignment of the n original variables and
// asserts the encoding admits exactly those with ≤ k true bits: soundness
// (no > k assignment extends) plus completeness (every ≤ k assignment
// extends), the two halves the k-search minimality argument rests on.
func checkAtMostK(t *testing.T, name string, encode func(f *CNF, lits []Lit, k int), n, k int) {
	t.Helper()
	f := NewCNF(n)
	lits := make([]Lit, n)
	for i := range lits {
		lits[i] = Pos(i)
	}
	encode(f, lits, k)
	for m := uint(0); m < 1<<n; m++ {
		want := bits.OnesCount(m) <= k
		if got := extendable(t, f, n, m); got != want {
			t.Fatalf("%s(n=%d, k=%d): assignment %0*b extendable=%v, want %v",
				name, n, k, n, m, got, want)
		}
	}
}

// TestSeqCounterExhaustive: the sequential counter admits exactly the ≤ k
// assignments for every n ≤ 8, k ≤ n.
func TestSeqCounterExhaustive(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for k := 0; k <= n; k++ {
			checkAtMostK(t, "seq", (*CNF).AddAtMostK, n, k)
		}
	}
}

// TestAddAtMostKWide: the counter stays correct at the boundary count on
// 138 literals, far past the widths the exhaustive test can enumerate.
func TestAddAtMostKWide(t *testing.T) {
	n := 138
	f := NewCNF(n)
	lits := make([]Lit, n)
	for i := range lits {
		lits[i] = Pos(i)
	}
	f.AddAtMostK(lits, 2)
	var m uint = 1 | 2 | 4 // three true
	if extendable(t, f, n, m) {
		t.Fatalf("counter admitted 3 true under k=2")
	}
	if !extendable(t, f, n, 1|2) {
		t.Fatalf("counter rejected 2 true under k=2")
	}
}
