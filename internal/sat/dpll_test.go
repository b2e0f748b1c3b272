package sat

import (
	"context"
	"math/rand"
	"testing"
)

// bruteSat reports satisfiability by enumerating all assignments, and the
// lexicographically first model (for determinism checks the model itself
// is not compared — any model is acceptable as long as it satisfies f).
func bruteSat(f *CNF) bool {
	if f.Unsat() {
		return false
	}
	n := f.NumVars()
	for m := 0; m < 1<<n; m++ {
		if satisfies(f, func(v int) bool { return m&(1<<v) != 0 }) {
			return true
		}
	}
	return false
}

func satisfies(f *CNF, val func(int) bool) bool {
	for _, cl := range f.Clauses {
		ok := false
		for _, l := range cl {
			if val(l.Var()) != l.Negated() {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func checkModel(t *testing.T, f *CNF, model []bool) {
	t.Helper()
	if len(model) != f.NumVars() {
		t.Fatalf("model has %d vars, want %d", len(model), f.NumVars())
	}
	if !satisfies(f, func(v int) bool { return model[v] }) {
		t.Fatalf("reported model does not satisfy the formula")
	}
}

// randomCNF builds a random formula: nVars variables, nClauses clauses of
// 1-4 literals.
func randomCNF(rng *rand.Rand, nVars, nClauses int) *CNF {
	f := NewCNF(nVars)
	for i := 0; i < nClauses; i++ {
		width := 1 + rng.Intn(4)
		lits := make([]Lit, width)
		for j := range lits {
			v := rng.Intn(nVars)
			if rng.Intn(2) == 0 {
				lits[j] = Pos(v)
			} else {
				lits[j] = Neg(v)
			}
		}
		f.AddClause(lits...)
	}
	return f
}

// TestDPLLAgainstBruteForce cross-checks the CDCL solver against full
// enumeration on 2000 random formulas around the phase-transition density.
func TestDPLLAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := &DPLL{}
	for i := 0; i < 2000; i++ {
		nVars := 1 + rng.Intn(10)
		nClauses := 1 + rng.Intn(4*nVars)
		f := randomCNF(rng, nVars, nClauses)
		want := bruteSat(f)
		res := d.Solve(context.Background(), f)
		if res.Status == Unknown {
			t.Fatalf("formula %d: solver gave up (conflicts=%d)", i, res.Conflicts)
		}
		if got := res.Status == Sat; got != want {
			t.Fatalf("formula %d: solver says %v, brute force says %v", i, res.Status, want)
		}
		if res.Status == Sat {
			checkModel(t, f, res.Model)
		}
	}
}

// TestDPLLDeterministic: identical formulas must yield identical results,
// model included.
func TestDPLLDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := &DPLL{}
	for i := 0; i < 100; i++ {
		nVars := 4 + rng.Intn(8)
		nClauses := 2 + rng.Intn(5*nVars)
		build := func() *CNF { return randomCNF(rand.New(rand.NewSource(int64(1000+i))), nVars, nClauses) }
		a := d.Solve(context.Background(), build())
		b := d.Solve(context.Background(), build())
		if a.Status != b.Status {
			t.Fatalf("formula %d: statuses differ: %v vs %v", i, a.Status, b.Status)
		}
		if a.Status == Sat {
			for v := range a.Model {
				if a.Model[v] != b.Model[v] {
					t.Fatalf("formula %d: models differ at var %d", i, v)
				}
			}
		}
	}
}

// TestDPLLCancelled: a cancelled context yields Unknown, not a wrong
// verdict, on a formula large enough to outlive the first poll interval.
func TestDPLLCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := randomCNF(rng, 60, 260)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := (&DPLL{}).Solve(ctx, f)
	if res.Status == Unknown {
		return // gave up as intended
	}
	// Fast verdicts are fine too — the formula may collapse before the
	// first poll — but a Sat claim must still be a real model.
	if res.Status == Sat {
		checkModel(t, f, res.Model)
	}

	// Pigeonhole PHP(9,8) needs far more than one conflict to refute, so
	// a solve that polls at every conflict stops at its first.
	php := NewCNF(72) // var p*8+h: pigeon p in hole h
	for p := 0; p < 9; p++ {
		lits := make([]Lit, 8)
		for h := range lits {
			lits[h] = Pos(p*8 + h)
		}
		php.AddClause(lits...)
	}
	for h := 0; h < 8; h++ {
		for p1 := 0; p1 < 9; p1++ {
			for p2 := p1 + 1; p2 < 9; p2++ {
				php.AddClause(Neg(p1*8+h), Neg(p2*8+h))
			}
		}
	}
	res = (&DPLL{}).Solve(ctx, php)
	if res.Status != Unknown || res.Conflicts > 1 {
		t.Fatalf("canceled PHP(9,8): %v after %d conflicts, want Unknown after at most 1", res.Status, res.Conflicts)
	}
}

// TestDPLLConflictBudget: a tiny conflict budget degrades to Unknown.
func TestDPLLConflictBudget(t *testing.T) {
	// Pigeonhole PHP(5,4): 5 pigeons, 4 holes — unsatisfiable and known
	// to require exponentially many resolution steps, so a 10-conflict
	// budget cannot decide it.
	f := NewCNF(20) // var p*4+h: pigeon p in hole h
	for p := 0; p < 5; p++ {
		f.AddClause(Pos(p*4+0), Pos(p*4+1), Pos(p*4+2), Pos(p*4+3))
	}
	for h := 0; h < 4; h++ {
		for p1 := 0; p1 < 5; p1++ {
			for p2 := p1 + 1; p2 < 5; p2++ {
				f.AddClause(Neg(p1*4+h), Neg(p2*4+h))
			}
		}
	}
	res := (&DPLL{MaxConflicts: 10}).Solve(context.Background(), f)
	if res.Status != Unknown {
		t.Fatalf("want Unknown under a 10-conflict budget, got %v after %d conflicts", res.Status, res.Conflicts)
	}
	// And without the budget it is provably unsatisfiable.
	res = (&DPLL{}).Solve(context.Background(), f)
	if res.Status != Unsat {
		t.Fatalf("PHP(5,4) must be Unsat, got %v", res.Status)
	}
}
