package sat

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/cover"
	"repro/internal/trace"
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

// randomDenseUnate builds a covering problem whose cells are each present
// with probability 1/3 (a row left empty gets one random column), dense
// enough that the reductions often leave a core for the solver.
func randomDenseUnate(rng *rand.Rand, nCols, nRows int) *cover.Problem {
	p := &cover.Problem{NumCols: nCols, RowCols: make([][]int, nRows)}
	for r := range p.RowCols {
		for c := 0; c < nCols; c++ {
			if rng.Intn(3) == 0 {
				p.RowCols[r] = append(p.RowCols[r], c)
			}
		}
		if len(p.RowCols[r]) == 0 {
			p.RowCols[r] = []int{rng.Intn(nCols)}
		}
	}
	return p
}

// TestSolveCoverWeightedVsBrute judges the reduced-core k-search against
// exhaustive enumeration on random problems with unit, weighted and
// zero-cost columns: the proven cost is the brute-force optimum, the lifted
// columns cover every original row, and the reported cost is what those
// columns cost. A floor on the instances that reached the SAT solver keeps
// the check from passing on the reductions alone.
func TestSolveCoverWeightedVsBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	searched := 0
	for i := 0; i < 600; i++ {
		p := randomDenseUnate(rng, 4+rng.Intn(9), 4+rng.Intn(14))
		switch i % 3 {
		case 1:
			p.Cost = make([]int, p.NumCols)
			for c := range p.Cost {
				p.Cost[c] = 1 + rng.Intn(4)
			}
		case 2:
			p.Cost = make([]int, p.NumCols)
			for c := range p.Cost {
				p.Cost[c] = rng.Intn(3) // zero-cost columns allowed
			}
		}
		bp := &BinateProblem{NumCols: p.NumCols, Cost: p.Cost}
		for _, row := range p.RowCols {
			cl := make([]Lit, len(row))
			for j, c := range row {
				cl[j] = Pos(c)
			}
			bp.Clauses = append(bp.Clauses, cl)
		}
		want, _ := bruteBinate(bp)
		ctx, rec := trace.Start(context.Background())
		sol, err := SolveCoverCtx(ctx, p, CoverOptions{})
		if err != nil {
			t.Fatalf("problem %d: %v", i, err)
		}
		if !sol.Optimal || sol.Cost != want {
			t.Fatalf("problem %d: sat cost %d (optimal=%v), brute %d", i, sol.Cost, sol.Optimal, want)
		}
		assertCovers(t, p, sol.Cols)
		total := 0
		for _, c := range sol.Cols {
			if p.Cost == nil {
				total++
			} else {
				total += p.Cost[c]
			}
		}
		if total != sol.Cost {
			t.Fatalf("problem %d: reported cost %d, columns %v cost %d", i, sol.Cost, sol.Cols, total)
		}
		if sp, ok := rec.Snapshot().Find("sat.cover"); ok {
			if steps, _ := sp.Attr("k_steps"); steps > 0 {
				searched++
			}
		}
	}
	if searched < 100 {
		t.Fatalf("only %d of 600 problems reached the SAT solver", searched)
	}
}

// TestSolveCoverSpan: a traced solve records one sat.cover span with the
// problem and core sizes, the k-search steps and the verdict.
func TestSolveCoverSpan(t *testing.T) {
	// Column 3 is essential for row 3; rows 0–2 over columns 0–2 form a
	// triangle no dominance reduces, with optimum 2. Against the lower
	// bound 2 the core search starts at k = 1 (UNSAT), which proves the
	// greedy incumbent of cost 3 optimal.
	p := &cover.Problem{NumCols: 4, RowCols: [][]int{{0, 1}, {1, 2}, {2, 0}, {3}}}
	ctx, rec := trace.Start(context.Background())
	sol, err := SolveCoverCtx(ctx, p, CoverOptions{LowerBound: 2})
	if err != nil || !sol.Optimal || sol.Cost != 3 {
		t.Fatalf("sol=%+v err=%v, want optimal cost 3", sol, err)
	}
	sp, ok := rec.Snapshot().Find("sat.cover")
	if !ok {
		t.Fatal("no sat.cover span recorded")
	}
	for key, want := range map[string]int64{
		"rows": 4, "cols": 4, "core_rows": 3, "core_cols": 3, "essentials": 1,
		"k_steps": 1, "optimal": 1, "failed": 0,
	} {
		if got, _ := sp.Attr(key); got != want {
			t.Errorf("%s = %d, want %d", key, got, want)
		}
	}
	if _, ok := sp.Attr("conflicts"); !ok {
		t.Error("no conflicts attribute")
	}
}

// TestSolveCoverReducedOutright: when essential columns cover every row
// the solve makes no SAT call and proves the cover optimal — but only under
// a live context; a canceled one still gets the incumbent unproved.
func TestSolveCoverReducedOutright(t *testing.T) {
	p := &cover.Problem{NumCols: 3, RowCols: [][]int{{0}, {1}, {1, 2}}}
	ctx, rec := trace.Start(context.Background())
	sol, err := SolveCoverCtx(ctx, p, CoverOptions{})
	if err != nil || !sol.Optimal || sol.Cost != 2 {
		t.Fatalf("sol=%+v err=%v, want optimal cost 2", sol, err)
	}
	assertCovers(t, p, sol.Cols)
	sp, ok := rec.Snapshot().Find("sat.cover")
	if !ok {
		t.Fatal("no sat.cover span recorded")
	}
	for key, want := range map[string]int64{"core_rows": 0, "essentials": 2, "k_steps": 0, "optimal": 1} {
		if got, _ := sp.Attr(key); got != want {
			t.Errorf("%s = %d, want %d", key, got, want)
		}
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err = SolveCoverCtx(canceled, p, CoverOptions{})
	if err != nil || sol.Optimal {
		t.Fatalf("canceled: sol=%+v err=%v, want the incumbent with Optimal=false", sol, err)
	}
	assertCovers(t, p, sol.Cols)
}
