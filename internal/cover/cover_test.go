package cover

import (
	"context"
	"errors"
	"math/rand"
	"slices"
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
	return randomSizedProblem(rng, 1+rng.Intn(8), 1+rng.Intn(10))
}

// randomSizedProblem draws each row/column cell with probability 1/3.
func randomSizedProblem(rng *rand.Rand, nRows, nCols int) *Problem {
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

// TestGreedyVariantsRepeat: on random states of random problems, unit and
// weighted, greedy variant v builds variant v mod 3's cover, which is why
// the upper bound builds variants 0–2 only.
func TestGreedyVariantsRepeat(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 300; trial++ {
		p := randomSizedProblem(rng, 2+rng.Intn(40), 2+rng.Intn(40))
		if trial%2 == 1 {
			p = withCosts(p, 1, 4, int64(trial))
		}
		for r := range p.RowCols {
			if len(p.RowCols[r]) == 0 {
				p.RowCols[r] = []int{rng.Intn(p.NumCols)}
			}
		}
		m, err := newMatrix(p)
		if err != nil {
			t.Fatal(err)
		}
		rows, cols := randomState(m, rng)
		var plain [3][]int
		for variant := 0; variant < 8; variant++ {
			sel, ok := m.greedyCover(&ubScratch{}, rows, cols, nil, variant)
			if !ok {
				t.Fatalf("trial %d: variant %d found no cover", trial, variant)
			}
			if variant < 3 {
				plain[variant] = sel
			} else if !slices.Equal(sel, plain[variant%3]) {
				t.Fatalf("trial %d: variant %d built %v, variant %d %v", trial, variant, sel, variant%3, plain[variant%3])
			}
		}
	}
}

// TestLowerBoundEarlyExit: 4 disjoint rows each with one column, so the
// optimum 4 is the lower bound. The first greedy cover meets it, so the
// upper bound builds no other cover and the search enters no node.
func TestLowerBoundEarlyExit(t *testing.T) {
	p := &Problem{NumCols: 4, RowCols: [][]int{{0}, {1}, {2}, {3}}}
	sol, sp := solveSpan(t, p, Options{LowerBound: 4})
	if sol.Cost != 4 || !sol.Optimal {
		t.Fatalf("sol=%+v", sol)
	}
	if greedy, nodes := spanAttr(t, sp, "greedy"), spanAttr(t, sp, "nodes"); greedy != 1 || nodes != 0 {
		t.Fatalf("%d greedy covers and %d nodes, want 1 and 0", greedy, nodes)
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

// TestReduceKeepsOptimum: on random problems with unit, weighted and
// zero-cost columns, the essential columns' cost plus the brute-force
// optimum of the core equals the brute-force optimum of the original, the
// essentials and the whole core lift to a cover, and an infeasible problem
// is ErrInfeasible.
func TestReduceKeepsOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cores := 0
	for trial := 0; trial < 600; trial++ {
		p := randomSizedProblem(rng, 4+rng.Intn(14), 4+rng.Intn(9))
		if trial%3 != 0 {
			// Costs 1–4 on trials ≡ 2 (mod 3), and 0–3 on trials ≡ 1.
			p.Cost = make([]int, p.NumCols)
			for c := range p.Cost {
				p.Cost[c] = rng.Intn(4) + trial%3 - 1
			}
		}
		want, feasible := bruteMinCover(p)
		red, err := p.Reduce()
		if !feasible {
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("trial %d: want ErrInfeasible, got %v", trial, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		core := red.Core
		if (core.Cost == nil) != (p.Cost == nil) || len(red.Cols) != core.NumCols {
			t.Fatalf("trial %d: core shape: %d cols, map %v, cost %v", trial, core.NumCols, red.Cols, core.Cost)
		}
		coreOpt, ok := bruteMinCover(core)
		if !ok {
			t.Fatalf("trial %d: core %v has no cover", trial, core.RowCols)
		}
		if got := costOf(p, red.Essential) + coreOpt; got != want {
			t.Fatalf("trial %d: essentials %v + core optimum %d = %d, original optimum %d",
				trial, red.Essential, coreOpt, got, want)
		}
		all := make([]int, core.NumCols)
		for i := range all {
			all[i] = i
		}
		lifted := red.Lift(all)
		checkCovers(t, p, Solution{Cols: lifted, Cost: costOf(p, lifted)})
		if len(core.RowCols) > 0 {
			cores++
		}
	}
	if cores < 100 {
		t.Fatalf("only %d of 600 problems kept a core", cores)
	}
}

// TestReduceSolvesOutright: essential columns that cover every row leave
// an empty core.
func TestReduceSolvesOutright(t *testing.T) {
	p := &Problem{NumCols: 4, RowCols: [][]int{{2}, {0}, {0, 1}, {2, 3}}}
	red, err := p.Reduce()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(red.Essential, []int{0, 2}) || len(red.Core.RowCols) != 0 || red.Core.NumCols != 0 {
		t.Fatalf("got essentials %v, core %+v; want [0 2] and an empty core", red.Essential, red.Core)
	}
}

// TestEntryPointsValidate: every entry point rejects a malformed problem
// with an error, never a panic and never a cover. The cases are a column
// index out of range, a Cost slice of the wrong length and a negative cost.
func TestEntryPointsValidate(t *testing.T) {
	problems := map[string]*Problem{
		"column out of range":  {NumCols: 2, RowCols: [][]int{{0}, {1, 2}}},
		"negative column":      {NumCols: 2, RowCols: [][]int{{-1, 0}}},
		"short Cost":           {NumCols: 3, Cost: []int{1, 1}, RowCols: [][]int{{0}, {2}}},
		"long Cost":            {NumCols: 1, Cost: []int{1, 1}, RowCols: [][]int{{0}}},
		"negative cost":        {NumCols: 2, Cost: []int{1, -1}, RowCols: [][]int{{0, 1}}},
		"negative unused cost": {NumCols: 2, Cost: []int{1, -1}, RowCols: [][]int{{0}}},
	}
	entries := map[string]func(*Problem) error{
		"SolveExactCtx": func(p *Problem) error {
			_, err := p.SolveExactCtx(context.Background(), Options{})
			return err
		},
		"Reduce": func(p *Problem) error {
			_, err := p.Reduce()
			return err
		},
		"SolveGreedy": func(p *Problem) error {
			_, err := p.SolveGreedy()
			return err
		},
	}
	for pname, p := range problems {
		for ename, solve := range entries {
			t.Run(pname+"/"+ename, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic: %v", r)
					}
				}()
				if err := solve(p); err == nil || errors.Is(err, ErrInfeasible) {
					t.Fatalf("got %v, want a validation error", err)
				}
			})
		}
	}
}

// TestSolveGreedyNoRows: a problem with no rows has the empty cover.
func TestSolveGreedyNoRows(t *testing.T) {
	sol, err := (&Problem{NumCols: 3}).SolveGreedy()
	if err != nil || len(sol.Cols) != 0 || sol.Cost != 0 {
		t.Fatalf("sol=%+v err=%v, want the empty cover", sol, err)
	}
}
