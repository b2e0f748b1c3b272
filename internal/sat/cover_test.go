package sat

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/cover"
)

// randomUnate builds a random covering problem where every row keeps at
// least one column, so a cover exists.
func randomUnate(rng *rand.Rand, nCols, nRows int) *cover.Problem {
	p := &cover.Problem{NumCols: nCols, RowCols: make([][]int, nRows)}
	for r := 0; r < nRows; r++ {
		width := 1 + rng.Intn(4)
		if width > nCols {
			width = nCols
		}
		seen := map[int]bool{}
		for len(p.RowCols[r]) < width {
			c := rng.Intn(nCols)
			if !seen[c] {
				seen[c] = true
				p.RowCols[r] = append(p.RowCols[r], c)
			}
		}
	}
	return p
}

// TestSolveCoverAgainstBranchBound: on 300 random feasible unate problems
// the SAT backend's optimal cost equals branch-and-bound's, and its
// selected columns really cover.
func TestSolveCoverAgainstBranchBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ctx := context.Background()
	for i := 0; i < 300; i++ {
		p := randomUnate(rng, 2+rng.Intn(12), 1+rng.Intn(14))
		bb, err := p.SolveExactCtx(ctx, cover.Options{})
		if err != nil {
			t.Fatalf("problem %d: branch-and-bound: %v", i, err)
		}
		st, err := SolveCoverCtx(ctx, p, CoverOptions{})
		if err != nil {
			t.Fatalf("problem %d: sat: %v", i, err)
		}
		if !bb.Optimal || !st.Optimal {
			t.Fatalf("problem %d: expected both optimal (bb=%v sat=%v)", i, bb.Optimal, st.Optimal)
		}
		if bb.Cost != st.Cost {
			t.Fatalf("problem %d: cost disagreement: bb=%d sat=%d", i, bb.Cost, st.Cost)
		}
		assertCovers(t, p, st.Cols)
	}
}

func assertCovers(t *testing.T, p *cover.Problem, cols []int) {
	t.Helper()
	sel := map[int]bool{}
	for _, c := range cols {
		sel[c] = true
	}
	for r, row := range p.RowCols {
		ok := false
		for _, c := range row {
			if sel[c] {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("row %d uncovered by %v", r, cols)
		}
	}
}

// TestSolveCoverInfeasible: a row with no columns is ErrInfeasible, same
// as branch-and-bound.
func TestSolveCoverInfeasible(t *testing.T) {
	p := &cover.Problem{NumCols: 2, RowCols: [][]int{{0}, {}}}
	_, err := SolveCoverCtx(context.Background(), p, CoverOptions{})
	if !errors.Is(err, cover.ErrInfeasible) {
		t.Fatalf("err = %v, want cover.ErrInfeasible", err)
	}
}

// TestSolveCoverEmpty: no rows means an empty optimal cover.
func TestSolveCoverEmpty(t *testing.T) {
	p := &cover.Problem{NumCols: 3}
	sol, err := SolveCoverCtx(context.Background(), p, CoverOptions{})
	if err != nil || !sol.Optimal || len(sol.Cols) != 0 {
		t.Fatalf("got (%v, %v), want empty optimal cover", sol, err)
	}
}

// TestSolveCoverLowerBound: when the greedy cover already meets the
// caller's proven lower bound no SAT call is needed and the result is
// optimal.
func TestSolveCoverLowerBound(t *testing.T) {
	// Two disjoint rows: any cover needs 2 columns; greedy finds 2.
	p := &cover.Problem{NumCols: 2, RowCols: [][]int{{0}, {1}}}
	sol, err := SolveCoverCtx(context.Background(), p, CoverOptions{LowerBound: 2})
	if err != nil || !sol.Optimal || sol.Cost != 2 {
		t.Fatalf("got (%v, %v), want optimal cost-2 cover", sol, err)
	}
}

// TestSolveCoverAnytime: a cancelled context returns the greedy incumbent
// with Optimal=false instead of an error — the branch-and-bound anytime
// contract.
func TestSolveCoverAnytime(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	p := randomUnate(rng, 14, 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := SolveCoverCtx(ctx, p, CoverOptions{})
	if err != nil {
		t.Fatalf("err = %v, want incumbent fallback", err)
	}
	if sol.Optimal {
		t.Fatalf("cancelled solve claims optimality")
	}
	assertCovers(t, p, sol.Cols)
}
