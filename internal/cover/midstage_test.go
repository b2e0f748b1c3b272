package cover

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/par"
	"repro/internal/trace"
)

// hardInstance builds a dense feasible instance whose exact search runs for
// hundreds of milliseconds — enough that a single-digit-millisecond
// deadline reliably lands mid-branch-and-bound, not before the search
// starts or after it finishes.
func hardInstance() *Problem {
	rng := rand.New(rand.NewSource(7))
	nRows, nCols := 60, 90
	p := &Problem{NumCols: nCols, RowCols: make([][]int, nRows)}
	for r := 0; r < nRows; r++ {
		k := 4 + rng.Intn(5)
		seen := map[int]bool{}
		for len(p.RowCols[r]) < k {
			c := rng.Intn(nCols)
			if !seen[c] {
				seen[c] = true
				p.RowCols[r] = append(p.RowCols[r], c)
			}
		}
	}
	return p
}

// assertValidCover fails unless sol covers every row of p.
func assertValidCover(t *testing.T, p *Problem, sol Solution, label string) {
	t.Helper()
	covered := map[int]bool{}
	for _, c := range sol.Cols {
		covered[c] = true
	}
	for r, cols := range p.RowCols {
		ok := false
		for _, c := range cols {
			if covered[c] {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("%s: row %d uncovered in incumbent", label, r)
		}
	}
}

// TestDeadlineMidSearchAnytime pins the covering stage's half of the
// pipeline cancellation contract, complementing the prime stage's (see
// internal/prime TestDeadlineMidGeneration): a deadline expiring in the
// middle of the branch-and-bound does NOT surface an error — the solver is
// anytime, returning its incumbent (a complete, valid cover) with
// Optimal=false so callers know minimality was not proved.
func TestDeadlineMidSearchAnytime(t *testing.T) {
	p := hardInstance() // ~650ms to prove optimality vs a 5ms deadline
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		sol, err := p.SolveExactCtx(ctx, Options{Parallelism: par.Workers(workers)})
		cancel()
		if err != nil {
			t.Fatalf("workers=%d: deadline mid-search must not error (anytime contract), got %v", workers, err)
		}
		if sol.Optimal {
			t.Fatalf("workers=%d: truncated search claimed optimality", workers)
		}
		if len(sol.Cols) == 0 {
			t.Fatalf("workers=%d: no incumbent returned", workers)
		}
		assertValidCover(t, p, sol, "deadline")
	}
}

// TestCancelMidSearchAnytime is the explicit-cancellation variant: same
// anytime contract, driven by a cancel() firing while the search runs.
func TestCancelMidSearchAnytime(t *testing.T) {
	p := hardInstance()
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(5*time.Millisecond, cancel)
		sol, err := p.SolveExactCtx(ctx, Options{Parallelism: par.Workers(workers)})
		timer.Stop()
		cancel()
		if err != nil {
			t.Fatalf("workers=%d: cancellation mid-search must not error (anytime contract), got %v", workers, err)
		}
		if sol.Optimal {
			t.Fatalf("workers=%d: canceled search claimed optimality", workers)
		}
		assertValidCover(t, p, sol, "cancel")
	}
}

// TestCanceledBeforeSearch: a context done before the solve starts yields
// the first greedy cover, which always completes: no further cover is
// built and no search node entered, on either engine. That cover is
// reported optimal only when it meets Options.LowerBound.
func TestCanceledBeforeSearch(t *testing.T) {
	forceParallel(t)
	cases := []struct {
		name    string
		p       *Problem
		lb      int
		optimal bool
	}{
		{"wide", wideProblem(), 0, false},
		{"wide/unmet lower bound", wideProblem(), 4, false},
		{"lower bound met", &Problem{NumCols: 4, RowCols: [][]int{{0}, {1}, {2}, {3}}}, 4, true},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			canceled, cancel := context.WithCancel(context.Background())
			cancel()
			ctx, rec := trace.Start(canceled)
			sol, err := tc.p.SolveExactCtx(ctx, Options{Parallelism: par.Workers(workers), LowerBound: tc.lb})
			if err != nil {
				t.Fatalf("%s, workers=%d: %v", tc.name, workers, err)
			}
			if sol.Optimal != tc.optimal {
				t.Fatalf("%s, workers=%d: Optimal=%v, want %v", tc.name, workers, sol.Optimal, tc.optimal)
			}
			assertValidCover(t, tc.p, sol, tc.name)
			sp := rec.Snapshot().Spans[0]
			if greedy, nodes := spanAttr(t, sp, "greedy"), spanAttr(t, sp, "nodes"); greedy != 1 || nodes != 0 {
				t.Fatalf("%s, workers=%d: %d greedy covers and %d nodes, want 1 and 0", tc.name, workers, greedy, nodes)
			}
		}
	}
}

// TestRootPassesPoll: the root's dominance passes poll the search control
// as they go, and a root that reports halted is pruned, so a context that
// expires during the root reductions stops the solve there.
func TestRootPassesPoll(t *testing.T) {
	sv, err := NewSolver(wideProblem(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	// The first node is the one the sequential solver polls the context at.
	ctl := &solver{ctx: canceled, maxNodes: DefaultMaxNodes, bestCost: math.MaxInt, nodes: 1}
	rows := sv.rootRows.Clone()
	if sv.m.reduceRowDominance(rows, sv.rootCols, ctl) || !rows.Equal(sv.rootRows) {
		t.Fatal("a halted row pass removed rows")
	}
	if _, _, verdict := sv.m.reduce(ctl, sv.sc, sv.rootRows.Clone(), sv.rootCols.Clone(), nil, 0, true); verdict != coverPrune || !ctl.budget {
		t.Fatalf("halted root: verdict %d, budget %v; want a budget prune", verdict, ctl.budget)
	}
}
