package sat

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// bruteBinate is the independent judge: it enumerates every assignment of
// the columns and returns the minimum cost of one satisfying all clauses.
func bruteBinate(p *BinateProblem) (int, bool) {
	best := 1 << 30
	found := false
	for set := 0; set < 1<<uint(p.NumCols); set++ {
		ok := true
		for _, cl := range p.Clauses {
			sat := false
			for _, l := range cl {
				val := set&(1<<uint(l.Var())) != 0
				if val != l.Negated() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		cost := 0
		for c := 0; c < p.NumCols; c++ {
			if set&(1<<uint(c)) != 0 {
				if p.Cost == nil {
					cost++
				} else {
					cost += p.Cost[c]
				}
			}
		}
		if cost < best {
			best = cost
			found = true
		}
	}
	return best, found
}

func TestBinateVsBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 400; trial++ {
		p := &BinateProblem{NumCols: 1 + rng.Intn(8)}
		nClauses := rng.Intn(8)
		for i := 0; i < nClauses; i++ {
			var cl []Lit
			for c := 0; c < p.NumCols; c++ {
				switch rng.Intn(4) {
				case 0:
					cl = append(cl, Pos(c))
				case 1:
					cl = append(cl, Neg(c))
				}
			}
			p.Clauses = append(p.Clauses, cl)
		}
		if trial%2 == 1 {
			p.Cost = make([]int, p.NumCols)
			for c := range p.Cost {
				p.Cost[c] = rng.Intn(4) // zero-cost columns allowed
			}
		}
		want, feasible := bruteBinate(p)
		sol, err := SolveBinateCtx(context.Background(), p, CoverOptions{})
		if !feasible {
			if !errors.Is(err, ErrBinateInfeasible) {
				t.Fatalf("trial %d: want infeasible, got %v", trial, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !sol.Optimal || sol.Cost != want {
			t.Fatalf("trial %d: got cost %d (optimal=%v) want %d", trial, sol.Cost, sol.Optimal, want)
		}
		assertBinateSatisfied(t, p, sol.Selected)
	}
}

func TestBinateEmptyClauseInfeasible(t *testing.T) {
	p := &BinateProblem{NumCols: 2, Clauses: [][]Lit{{}}}
	if _, err := SolveBinateCtx(context.Background(), p, CoverOptions{}); !errors.Is(err, ErrBinateInfeasible) {
		t.Fatalf("empty clause must be infeasible, got %v", err)
	}
}

func TestBinateNegativeOnly(t *testing.T) {
	// ¬a alone: optimum selects nothing.
	p := &BinateProblem{NumCols: 1, Clauses: [][]Lit{{Neg(0)}}}
	sol, err := SolveBinateCtx(context.Background(), p, CoverOptions{})
	if err != nil || len(sol.Selected) != 0 || sol.Cost != 0 {
		t.Fatalf("sol=%+v err=%v", sol, err)
	}
}

// randomBinate builds a random binate problem seeded with a guaranteed
// model (columns of a random "solution" mask), so most instances are
// feasible while clause polarity stays mixed.
func randomBinate(rng *rand.Rand, nCols, nClauses int) *BinateProblem {
	truth := make([]bool, nCols)
	for c := range truth {
		truth[c] = rng.Intn(3) == 0
	}
	lit := func(c int, neg bool) Lit {
		if neg {
			return Neg(c)
		}
		return Pos(c)
	}
	p := &BinateProblem{NumCols: nCols}
	for i := 0; i < nClauses; i++ {
		width := 1 + rng.Intn(3)
		var clause []Lit
		hasTrue := false
		for j := 0; j < width; j++ {
			c := rng.Intn(nCols)
			neg := rng.Intn(4) == 0
			if truth[c] != neg {
				hasTrue = true
			}
			clause = append(clause, lit(c, neg))
		}
		if !hasTrue {
			// Patch the clause so the seeded assignment satisfies it,
			// keeping the instance feasible by construction.
			c := rng.Intn(nCols)
			clause = append(clause, lit(c, !truth[c]))
		}
		p.Clauses = append(p.Clauses, clause)
	}
	return p
}

// TestSolveBinateAgainstBrute: on 300 random feasible binate problems the
// SAT backend proves the optimum the brute-force enumeration finds.
func TestSolveBinateAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ctx := context.Background()
	for i := 0; i < 300; i++ {
		p := randomBinate(rng, 2+rng.Intn(10), 1+rng.Intn(12))
		want, feasible := bruteBinate(p)
		st, err := SolveBinateCtx(ctx, p, CoverOptions{})
		if !feasible || err != nil {
			t.Fatalf("problem %d: brute feasible=%v, sat err=%v (instance is feasible by construction)", i, feasible, err)
		}
		if !st.Optimal || st.Cost != want {
			t.Fatalf("problem %d: sat cost %d (optimal=%v), brute %d", i, st.Cost, st.Optimal, want)
		}
		assertBinateSatisfied(t, p, st.Selected)
	}
}

func assertBinateSatisfied(t *testing.T, p *BinateProblem, selected []int) {
	t.Helper()
	sel := map[int]bool{}
	for _, c := range selected {
		sel[c] = true
	}
	for i, cl := range p.Clauses {
		ok := false
		for _, l := range cl {
			if sel[l.Var()] != l.Negated() {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("clause %d unsatisfied by %v", i, selected)
		}
	}
}

// TestSolveBinateInfeasible: contradictory clauses yield
// ErrBinateInfeasible.
func TestSolveBinateInfeasible(t *testing.T) {
	p := &BinateProblem{NumCols: 1, Clauses: [][]Lit{{Pos(0)}, {Neg(0)}}}
	if _, err := SolveBinateCtx(context.Background(), p, CoverOptions{}); !errors.Is(err, ErrBinateInfeasible) {
		t.Fatalf("err = %v, want ErrBinateInfeasible", err)
	}
}

// TestSolveBinateZeroCostColumns: zero-cost columns (the encoder's
// non-face auxiliaries) are free — the optimum counts only priced
// columns.
func TestSolveBinateZeroCostColumns(t *testing.T) {
	// Clause (aux) forces the free column; clause (a ∨ b) costs 1.
	p := &BinateProblem{
		NumCols: 3,
		Cost:    []int{1, 1, 0},
		Clauses: [][]Lit{{Pos(2)}, {Pos(0), Pos(1)}},
	}
	sol, err := SolveBinateCtx(context.Background(), p, CoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Optimal || sol.Cost != 1 {
		t.Fatalf("got cost %d (optimal=%v), want optimal cost 1", sol.Cost, sol.Optimal)
	}
}

// TestSolveBinateCanceled: a canceled context before any model is a context
// error — never ErrBinateInfeasible, which would claim the clauses
// contradict.
func TestSolveBinateCanceled(t *testing.T) {
	p := randomBinate(rand.New(rand.NewSource(14)), 10, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := SolveBinateCtx(ctx, p, CoverOptions{})
	switch {
	case errors.Is(err, ErrBinateInfeasible):
		t.Fatalf("canceled solve reported infeasibility")
	case err == nil && sol.Optimal:
		t.Fatalf("canceled solve claims optimality: %+v", sol)
	case err != nil && !errors.Is(err, context.Canceled):
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSolveBinateSpan: a traced solve records one sat.binate span with the
// problem size, the k-search steps and the verdict.
func TestSolveBinateSpan(t *testing.T) {
	// Four columns, all needed: the first model has cost 4 and the k-search
	// runs k = 2, 3 (both UNSAT) before the incumbent is proved optimal.
	p := &BinateProblem{NumCols: 4, Clauses: [][]Lit{{Pos(0)}, {Pos(1)}, {Pos(2)}, {Pos(3)}}}
	ctx, rec := trace.Start(context.Background())
	sol, err := SolveBinateCtx(ctx, p, CoverOptions{LowerBound: 2})
	if err != nil || !sol.Optimal || sol.Cost != 4 {
		t.Fatalf("sol=%+v err=%v, want optimal cost 4", sol, err)
	}
	sp, ok := rec.Snapshot().Find("sat.binate")
	if !ok {
		t.Fatal("no sat.binate span recorded")
	}
	for key, want := range map[string]int64{"cols": 4, "clauses": 4, "k_steps": 2, "optimal": 1, "failed": 0} {
		if got, _ := sp.Attr(key); got != want {
			t.Errorf("%s = %d, want %d", key, got, want)
		}
	}
}
