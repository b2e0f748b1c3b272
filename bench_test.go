// Package repro benchmarks every experiment of the paper: one benchmark
// per table and figure (the evaluation artifacts of Section 9 and the
// worked examples of Sections 4–8), plus micro-benchmarks of the individual
// engines and the two ablations called out in DESIGN.md (Bron–Kerbosch vs
// the paper's cs/ps prime generator, and cached vs uncached cost
// evaluation).
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// Narrow to one experiment with e.g. -bench=Table1/dk512.
package repro

import (
	"context"
	"testing"
	"time"

	"repro/internal/anneal"
	"repro/internal/bench"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dichotomy"
	"repro/internal/fsm"
	"repro/internal/heuristic"
	"repro/internal/hypercube"
	"repro/internal/mv"
	"repro/internal/nova"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/prime"
)

// --- Figures ---

func BenchmarkFigure1Abstraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3PrimeGeneration(b *testing.B) {
	cs := constraint.MustParse(`
		symbols s0 s1 s2 s3 s4
		face s0 s2 s4
		face s0 s1 s4
		face s1 s2 s3
		face s1 s3 s4
	`)
	seeds := dichotomy.Initial(cs)
	b.Run("BronKerbosch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prime.GenerateCtx(context.Background(), seeds, prime.Options{Engine: prime.BronKerbosch}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CSPS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prime.GenerateCtx(context.Background(), seeds, prime.Options{Engine: prime.CSPS}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFigure4Feasibility(b *testing.B) {
	cs := constraint.MustParse(`
		symbols s0 s1 s2 s3 s4 s5
		face s1 s5
		face s2 s5
		face s4 s5
		dom s0 > s1
		dom s0 > s2
		dom s0 > s3
		dom s0 > s5
		dom s1 > s3
		dom s2 > s3
		dom s4 > s5
		dom s5 > s2
		dom s5 > s3
		disj s0 = s1 | s2
	`)
	for i := 0; i < b.N; i++ {
		if core.CheckFeasible(cs).Feasible {
			b.Fatal("figure 4 must be infeasible")
		}
	}
}

func BenchmarkFigure8Exact(b *testing.B) {
	cs := constraint.MustParse(`
		symbols s0 s1 s2 s3
		face s0 s1
		dom s0 > s1
		dom s1 > s2
		disj s0 = s1 | s3
	`)
	for i := 0; i < b.N; i++ {
		if _, err := core.ExactEncodeCtx(context.Background(), cs, core.ExactOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9CostEval(b *testing.B) {
	cs := constraint.MustParse(`
		symbols a b c d e f g
		face e f c
		face e d g
		face a b d
		face a g f d
	`)
	codes := []hypercube.Code{0b1010, 0b0010, 0b0011, 0b1110, 0b0111, 0b1011, 0b1100}
	a := cost.FullAssignment(4, codes)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := cost.Evaluate(cs, a)
		if r.Cubes != 4 {
			b.Fatalf("unexpected cubes %d", r.Cubes)
		}
	}
}

// --- Tables ---

// table1Names splits the suite so the two known-aborting instances
// (planet, vmecont — the paper's starred rows) run with a short budget.
var table1Quick = []string{
	"bbsse", "cse", "dk512", "donfile", "exlinp", "keyb", "kirkman",
	"master", "s1", "s1a",
}
var table1Heavy = []string{"dk16", "dk16x", "sand", "tbk"}
var table1Aborting = []string{"planet", "vmecont"}

func BenchmarkTable1(b *testing.B) {
	run := func(b *testing.B, name string, primeTimeout time.Duration) {
		for i := 0; i < b.N; i++ {
			rows := bench.RunTable1(bench.Table1Options{
				Names:        []string{name},
				PrimeTimeout: primeTimeout,
				CoverTimeout: 20 * time.Second,
			})
			if len(rows) != 1 || rows[0].Err != "" {
				b.Fatalf("%s: %+v", name, rows)
			}
		}
	}
	for _, name := range table1Quick {
		b.Run(name, func(b *testing.B) { run(b, name, 60*time.Second) })
	}
	for _, name := range table1Heavy {
		b.Run(name, func(b *testing.B) { run(b, name, 120*time.Second) })
	}
	for _, name := range table1Aborting {
		b.Run(name, func(b *testing.B) { run(b, name, 10*time.Second) })
	}
}

func BenchmarkTable2(b *testing.B) {
	for _, name := range bench.Table2Names {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows := bench.RunTable2(bench.Table2Options{Names: []string{name}})
				if len(rows) != 1 || rows[0].Err != "" {
					b.Fatalf("%s: %+v", name, rows)
				}
			}
		})
	}
}

func BenchmarkTable3(b *testing.B) {
	for _, name := range bench.Table3Names {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows := bench.RunTable3(bench.Table3Options{Names: []string{name}})
				if len(rows) != 1 || rows[0].Err != "" {
					b.Fatalf("%s: %+v", name, rows)
				}
			}
		})
	}
}

// --- Section-8 extensions ---

func BenchmarkDontCare(b *testing.B) {
	cs := constraint.MustParse(`
		symbols a b c d e f
		face a b
		face a c
		face a d
		face a b [ c d ] e
	`)
	for i := 0; i < b.N; i++ {
		res, err := core.ExactEncodeCtx(context.Background(), cs, core.ExactOptions{})
		if err != nil || res.Encoding.Bits != 3 {
			b.Fatalf("res=%v err=%v", res, err)
		}
	}
}

func BenchmarkDistance2(b *testing.B) {
	cs := constraint.MustParse(`
		symbols a b c d
		face a b
		dist2 a b
	`)
	for i := 0; i < b.N; i++ {
		if _, err := core.ExactEncodeCtx(context.Background(), cs, core.ExactOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNonFace(b *testing.B) {
	cs := constraint.MustParse(`
		symbols a b c d e f
		face a b
		face b c d
		face a e
		face d f
		nonface a b e
	`)
	for i := 0; i < b.N; i++ {
		if _, err := core.ExactEncodeCtx(context.Background(), cs, core.ExactOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphEmbedding(b *testing.B) {
	// The NP-completeness witness of Section 2: the 3-cube graph into the
	// 3-cube.
	var g hypercube.Graph
	g.N = 8
	for v := 0; v < 8; v++ {
		for bit := 0; bit < 3; bit++ {
			u := v ^ (1 << uint(bit))
			if v < u {
				g.Edges = append(g.Edges, [2]int{v, u})
			}
		}
	}
	for i := 0; i < b.N; i++ {
		if _, ok := hypercube.EmbedInCube(g, 3); !ok {
			b.Fatal("embedding must exist")
		}
	}
}

// --- Engine micro-benchmarks ---

func bbsseConstraints(b *testing.B) *constraint.Set {
	m, err := fsm.GenerateByName("bbsse")
	if err != nil {
		b.Fatal(err)
	}
	return mv.GenerateConstraints(m, mv.OutputOptions{MaxDominance: 25, MaxDisjunctive: 3})
}

func BenchmarkRaiseDichotomy(b *testing.B) {
	cs := bbsseConstraints(b)
	seeds := dichotomy.Initial(cs)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := seeds[i%len(seeds)]
		dichotomy.Raise(d, cs)
	}
}

func BenchmarkInitialDichotomies(b *testing.B) {
	cs := bbsseConstraints(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dichotomy.Initial(cs)
	}
}

// BenchmarkPrimeEngines is the ablation of DESIGN.md: the paper's Figure-2
// cs/ps recursion vs maximal-clique enumeration on a mid-size seed set.
func BenchmarkPrimeEngines(b *testing.B) {
	cs := bbsseConstraints(b)
	seeds := dichotomy.ValidRaised(dichotomy.Initial(cs), cs)
	b.Run("BronKerbosch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prime.GenerateCtx(context.Background(), seeds, prime.Options{Engine: prime.BronKerbosch}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CSPS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prime.GenerateCtx(context.Background(), seeds, prime.Options{Engine: prime.CSPS}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkUnateCover(b *testing.B) {
	cs := bbsseConstraints(b)
	res, err := core.ExactEncodeCtx(context.Background(), cs, core.ExactOptions{})
	if err != nil {
		b.Fatal(err)
	}
	_ = res
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.ExactEncodeCtx(context.Background(), cs, core.ExactOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinateCover(b *testing.B) {
	cs := constraint.MustParse(`
		symbols a b c d
		face a b
		dom b > c
		disj b = a | c
	`)
	tab, err := core.BuildBinateTable(cs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tab.SolveCtx(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel vs sequential ---
//
// The parallel engines are deterministic: for every worker count they
// return byte-identical results, so these benchmarks measure pure speedup.
// On a single-CPU machine all worker counts collapse to roughly the same
// time; with N cores expect the prime and covering benchmarks to approach
// Nx on instances large enough to amortize task setup.

var workerCounts = []struct {
	name    string
	workers int
}{{"seq", 1}, {"par2", 2}, {"par4", 4}, {"parAll", 0}}

// BenchmarkParallelPrime compares the sequential Bron–Kerbosch sweep with
// the frontier-parallel version on the bbsse seed set.
func BenchmarkParallelPrime(b *testing.B) {
	cs := bbsseConstraints(b)
	seeds := dichotomy.ValidRaised(dichotomy.Initial(cs), cs)
	for _, wc := range workerCounts {
		b.Run(wc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := prime.GenerateCtx(context.Background(), seeds, prime.Options{Parallelism: par.Workers(wc.workers)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelExact compares worker counts across the whole exact
// pipeline: prime generation, covering-matrix build, and the covering
// branch and bound.
func BenchmarkParallelExact(b *testing.B) {
	cs := bbsseConstraints(b)
	for _, wc := range workerCounts {
		b.Run(wc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.ExactEncodeCtx(context.Background(), cs, core.ExactOptions{Parallelism: par.Workers(wc.workers)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelHeuristic compares worker counts on the bounded-length
// heuristic (parallel candidate scoring and restarts).
func BenchmarkParallelHeuristic(b *testing.B) {
	m, err := fsm.GenerateByName("s1a")
	if err != nil {
		b.Fatal(err)
	}
	cs := mv.InputConstraints(m)
	b.ResetTimer()
	b.ReportAllocs()
	for _, wc := range workerCounts {
		b.Run(wc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := heuristic.EncodeCtx(context.Background(), cs, heuristic.Options{Metric: cost.Cubes, Parallelism: par.Workers(wc.workers)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvaluator is the second ablation: memoized vs direct cost
// evaluation under an annealing-style swap workload.
func BenchmarkEvaluator(b *testing.B) {
	m, err := fsm.GenerateByName("dk512")
	if err != nil {
		b.Fatal(err)
	}
	cs := mv.InputConstraintsDC(m)
	n := cs.N()
	codes := make([]hypercube.Code, n)
	for i := range codes {
		codes[i] = hypercube.Code(i)
	}
	bits := hypercube.MinBits(n)
	b.Run("cached", func(b *testing.B) {
		ev := cost.NewEvaluator(cs)
		for i := 0; i < b.N; i++ {
			x, y := i%n, (i*7+1)%n
			codes[x], codes[y] = codes[y], codes[x]
			ev.Of(cost.Literals, cost.FullAssignment(bits, codes))
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x, y := i%n, (i*7+1)%n
			codes[x], codes[y] = codes[y], codes[x]
			cost.Of(cost.Literals, cs, cost.FullAssignment(bits, codes))
		}
	})
}

func BenchmarkPartitioner(b *testing.B) {
	m, err := fsm.GenerateByName("dk16")
	if err != nil {
		b.Fatal(err)
	}
	cs := mv.InputConstraints(m)
	h := &partition.Hypergraph{N: cs.N()}
	for _, f := range cs.Faces {
		h.Nets = append(h.Nets, f.Members.Elems())
	}
	nodes := make([]int, cs.N())
	for i := range nodes {
		nodes[i] = i
	}
	capSide := 1 << uint(hypercube.MinBits(cs.N())-1)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		partition.BipartitionVariant(h, nodes, capSide, capSide, i)
	}
}

func BenchmarkHeuristicEncode(b *testing.B) {
	m, err := fsm.GenerateByName("s1a")
	if err != nil {
		b.Fatal(err)
	}
	cs := mv.InputConstraints(m)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := heuristic.EncodeCtx(context.Background(), cs, heuristic.Options{Metric: cost.Cubes}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNovaEncode(b *testing.B) {
	m, err := fsm.GenerateByName("s1a")
	if err != nil {
		b.Fatal(err)
	}
	cs := mv.InputConstraints(m)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := nova.Encode(cs, nova.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnnealEncode(b *testing.B) {
	m, err := fsm.GenerateByName("dk512")
	if err != nil {
		b.Fatal(err)
	}
	cs := mv.InputConstraintsDC(m)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := anneal.Encode(cs, anneal.Options{Metric: cost.Literals, Temps: 40, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSymbolicMinimization(b *testing.B) {
	m, err := fsm.GenerateByName("keyb")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mv.InputConstraints(m)
	}
}
