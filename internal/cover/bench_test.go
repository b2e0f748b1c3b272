package cover

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/par"
)

// kernelProblem builds a deterministic pseudo-random unate covering
// instance sized so branch and bound dominates the solve.
func kernelProblem(rows, cols, perRow int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := &Problem{NumCols: cols, RowCols: make([][]int, rows)}
	for r := 0; r < rows; r++ {
		seen := map[int]bool{}
		for len(seen) < perRow {
			seen[rng.Intn(cols)] = true
		}
		for c := range seen {
			p.RowCols[r] = append(p.RowCols[r], c)
		}
	}
	return p
}

// wideProblem is shaped like the cyclic cores Table 1's exact rows leave
// (dk512's is 67×2,183, cse's 144×2,674): few rows, thousands of columns,
// each row covered by 150 of them. Deep nodes keep a handful of rows over
// hundreds of active columns, a regime the 48×36 kernel never reaches, and
// the search runs far past any practical node budget.
func wideProblem() *Problem { return kernelProblem(100, 2000, 150, 227) }

// BenchmarkUnateCoverKernel measures the exact branch-and-bound hot path in
// its steady state: one reusable Solver, repeated solves. allocs/op is the
// headline metric — the arena/slab/buffer-reuse discipline holds it at zero.
func BenchmarkUnateCoverKernel(b *testing.B) {
	p := kernelProblem(48, 36, 4, 11)
	sv, err := NewSolver(p, Options{Parallelism: par.Workers(1)})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sv.Solve(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sv.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnateCoverWideKernel is the steady-state solve on wideProblem
// under the default node budget, which it exhausts as the slow Table-1 rows
// do: each op pays the per-solve fixed cost (greedy upper bound, root
// dominance over 2,000 columns) and 200k search nodes. allocs/op must stay
// at zero here too.
func BenchmarkUnateCoverWideKernel(b *testing.B) {
	sv, err := NewSolver(wideProblem(), Options{Parallelism: par.Workers(1), MaxNodes: DefaultMaxNodes})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sv.Solve(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sv.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnateCoverColdKernel is the one-shot path — Solver construction
// (incidence matrix, dedupe, buffers) included in every op, as a caller of
// Problem.SolveExact pays it.
func BenchmarkUnateCoverColdKernel(b *testing.B) {
	p := kernelProblem(48, 36, 4, 11)
	opts := Options{Parallelism: par.Workers(1)}
	if _, err := p.SolveExactCtx(context.Background(), opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.SolveExactCtx(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnateCoverParallelKernel runs the same solve with Workers(0) —
// all CPUs — at a size below the adaptive cutoff (small: the engine falls
// back to the sequential path, so `-j` costs nothing) and above it (large:
// the parallel engine engages when more than one CPU is available). Either
// way the op must never be slower than the sequential solve of the same
// instance: that is exactly the contract ParallelCutoffCells pins.
func BenchmarkUnateCoverParallelKernel(b *testing.B) {
	run := func(p *Problem, maxNodes int) func(b *testing.B) {
		return func(b *testing.B) {
			opts := Options{Parallelism: par.Workers(0), MaxNodes: maxNodes}
			if _, err := p.SolveExactCtx(context.Background(), opts); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.SolveExactCtx(context.Background(), opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// 48×36 = 1728 cells: below ParallelCutoffCells, sequential fallback.
	b.Run("small", run(kernelProblem(48, 36, 4, 11), 0))
	// 96×64 = 6144 cells: above the cutoff, parallel engine (on multi-CPU
	// machines; with GOMAXPROCS=1 WorkerCount is 1 and the fallback holds).
	// The instance runs past any practical node budget, so the op is capped
	// at 5k nodes and measures search throughput, not time-to-optimal.
	b.Run("large", run(kernelProblem(96, 64, 4, 13), 5_000))
}
