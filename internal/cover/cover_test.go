package cover

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/par"
)

func bruteMinCover(p *Problem) (int, bool) {
	nRows := len(p.RowCols)
	covers := make([]uint64, p.NumCols)
	for r, cols := range p.RowCols {
		for _, c := range cols {
			covers[c] |= 1 << uint(r)
		}
	}
	full := uint64(1)<<uint(nRows) - 1
	bestCost := 1 << 30
	found := false
	for set := 0; set < 1<<uint(p.NumCols); set++ {
		var covered uint64
		cost := 0
		for c := 0; c < p.NumCols; c++ {
			if set&(1<<uint(c)) != 0 {
				covered |= covers[c]
				cost += p.cost(c)
			}
		}
		if covered == full && cost < bestCost {
			bestCost = cost
			found = true
		}
	}
	return bestCost, found
}

func randomProblem(rng *rand.Rand) *Problem {
	nRows := 1 + rng.Intn(8)
	nCols := 1 + rng.Intn(10)
	p := &Problem{NumCols: nCols, RowCols: make([][]int, nRows)}
	for r := 0; r < nRows; r++ {
		for c := 0; c < nCols; c++ {
			if rng.Intn(3) == 0 {
				p.RowCols[r] = append(p.RowCols[r], c)
			}
		}
	}
	return p
}

// TestExactOptimalVsBrute checks the exact solver against exhaustive search
// on random instances, with unit and weighted costs.
func TestExactOptimalVsBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 400; trial++ {
		p := randomProblem(rng)
		if trial%2 == 1 {
			p.Cost = make([]int, p.NumCols)
			for c := range p.Cost {
				p.Cost[c] = 1 + rng.Intn(4)
			}
		}
		want, feasible := bruteMinCover(p)
		sol, err := p.SolveExactCtx(context.Background(), Options{})
		if !feasible {
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("trial %d: want ErrInfeasible, got %v", trial, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !sol.Optimal {
			t.Fatalf("trial %d: tiny instance must be solved optimally", trial)
		}
		if sol.Cost != want {
			t.Fatalf("trial %d: got cost %d want %d", trial, sol.Cost, want)
		}
		checkCovers(t, p, sol)
	}
}

func checkCovers(t *testing.T, p *Problem, sol Solution) {
	t.Helper()
	sel := map[int]bool{}
	total := 0
	for _, c := range sol.Cols {
		sel[c] = true
		total += p.cost(c)
	}
	if total != sol.Cost {
		t.Fatalf("reported cost %d != actual %d", sol.Cost, total)
	}
	for r, cols := range p.RowCols {
		ok := false
		for _, c := range cols {
			if sel[c] {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("row %d uncovered by %v", r, sol.Cols)
		}
	}
}

// TestGreedyFeasible checks the greedy solver always returns a cover.
func TestGreedyFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 200; trial++ {
		p := randomProblem(rng)
		_, feasible := bruteMinCover(p)
		sol, err := p.SolveGreedy()
		if !feasible {
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("want ErrInfeasible, got %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		checkCovers(t, p, sol)
	}
}

func TestLowerBoundEarlyExit(t *testing.T) {
	// 4 disjoint rows each with one column: optimum 4 = lower bound.
	p := &Problem{NumCols: 4, RowCols: [][]int{{0}, {1}, {2}, {3}}}
	sol, err := p.SolveExactCtx(context.Background(), Options{LowerBound: 4})
	if err != nil || sol.Cost != 4 {
		t.Fatalf("sol=%+v err=%v", sol, err)
	}
}

func TestNodeBudgetReturnsFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p := &Problem{NumCols: 20, RowCols: make([][]int, 15)}
	for r := range p.RowCols {
		for c := 0; c < 20; c++ {
			if rng.Intn(2) == 0 {
				p.RowCols[r] = append(p.RowCols[r], c)
			}
		}
		if len(p.RowCols[r]) == 0 {
			p.RowCols[r] = append(p.RowCols[r], 0)
		}
	}
	sol, err := p.SolveExactCtx(context.Background(), Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkCovers(t, p, sol)
}

func TestTimeLimitReturnsFeasible(t *testing.T) {
	p := &Problem{NumCols: 3, RowCols: [][]int{{0, 1}, {1, 2}}}
	sol, err := p.SolveExactCtx(context.Background(), Options{Parallelism: par.Budget(time.Hour)})
	if err != nil || sol.Cost != 1 {
		t.Fatalf("sol=%+v err=%v (column 1 covers both rows)", sol, err)
	}
}

func TestBadColumnIndex(t *testing.T) {
	p := &Problem{NumCols: 1, RowCols: [][]int{{5}}}
	if _, err := p.SolveExactCtx(context.Background(), Options{}); err == nil {
		t.Fatal("out-of-range column must error")
	}
}
