package prime_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/bitset"
	"repro/internal/dichotomy"
	"repro/internal/fsm"
	"repro/internal/mv"
	"repro/internal/par"
	"repro/internal/prime"
	"repro/internal/trace"
)

// table1Raised returns the raised seeds of a Table-1 row: the initial
// encoding-dichotomies of its generated constraint set, maximally raised
// and validity-filtered, which is what the exact encoder hands prime
// generation.
func table1Raised(tb testing.TB, name string) []dichotomy.D {
	tb.Helper()
	for _, cfg := range bench.Table1Benchmarks {
		if cfg.Name != name {
			continue
		}
		m, err := fsm.GenerateByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		cs := mv.GenerateConstraints(m, cfg.Out)
		return dichotomy.ValidRaised(dichotomy.Initial(cs), cs)
	}
	tb.Fatalf("no Table-1 row %q", name)
	return nil
}

// randomGraph returns a symmetric adjacency over n vertices, each edge
// present with probability density.
func randomGraph(rng *rand.Rand, n int, density float64) []bitset.Set {
	adj := make([]bitset.Set, n)
	for i := range adj {
		adj[i] = bitset.New(n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				adj[i].Add(j)
				adj[j].Add(i)
			}
		}
	}
	return adj
}

// generateSpan runs GenerateSetsCtx under a trace recorder and returns its
// prime.generate span.
func generateSpan(t *testing.T, seeds []dichotomy.D, opts prime.Options) ([]bitset.Set, trace.SpanRecord) {
	t.Helper()
	ctx, rec := trace.Start(context.Background())
	sets, err := prime.GenerateSetsCtx(ctx, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	sp, ok := rec.Snapshot().Find("prime.generate")
	if !ok {
		t.Fatal("no prime.generate span")
	}
	return sets, sp
}

// TestPivotMatchesReference holds the early-exit pivot to the full scan it
// replaced. On random (P, X) pairs over random graphs, dense and sparse,
// bkPivot picks the reference's vertex, and both of its exits are taken
// often. On seed sets — random ones, the kernel benchmark's and the raised
// seeds of the Table-1 rows that complete — the engine at one and at four
// workers returns the reference walker's cliques in its order, and its
// span reports the walker's node count.
func TestPivotMatchesReference(t *testing.T) {
	prime.ForceParallel(t)
	rng := rand.New(rand.NewSource(29))
	var xExits, topExits int
	for trial := 0; trial < 4000; trial++ {
		n := 1 + rng.Intn(150)
		adj := randomGraph(rng, n, rng.Float64())
		pIn, xIn := rng.Float64(), rng.Float64()
		p, x := bitset.New(n), bitset.New(n)
		for v := 0; v < n; v++ {
			switch r := rng.Float64(); {
			case r < pIn:
				p.Add(v)
			case r < pIn+(1-pIn)*xIn:
				x.Add(v)
			}
		}
		got, want := prime.BKPivot(p, x, adj), prime.RefPivot(p, x, adj)
		if got != want {
			t.Fatalf("trial %d: bkPivot = %d, full scan %d (|P| %d, |X| %d, n %d)", trial, got, want, p.Len(), x.Len(), n)
		}
		if want >= 0 && !p.IsEmpty() {
			switch bitset.IntersectLen(p, adj[want]) {
			case p.Len():
				xExits++
			case p.Len() - 1:
				topExits++
			}
		}
	}
	if xExits < 200 || topExits < 200 {
		t.Fatalf("exits rarely taken: %d pivots in X adjacent to all of P, %d reaching |P|-1", xExits, topExits)
	}

	type instance struct {
		name  string
		seeds []dichotomy.D
	}
	instances := []instance{
		{"kernel48", prime.KernelSeeds(48, 32, 7)},
		{"kernel96", prime.KernelSeeds(96, 32, 9)},
	}
	for i := 0; i < 20; i++ {
		instances = append(instances, instance{"random", prime.RandomSeeds(rng, 8+rng.Intn(40), 6+rng.Intn(10))})
	}
	table1 := []string{"bbsse", "cse", "dk16", "dk16x", "dk512", "exlinp", "kirkman", "master", "s1", "s1a"}
	if !testing.Short() && !raceEnabled {
		// Seconds each for the reference walker: the largest prime
		// generations Table 1 completes.
		table1 = append(table1, "donfile", "keyb", "sand", "tbk")
	}
	for _, name := range table1 {
		instances = append(instances, instance{name, table1Raised(t, name)})
	}
	for _, in := range instances {
		want, nodes := prime.RefCliques(in.seeds)
		for _, workers := range []int{1, 4} {
			sets, sp := generateSpan(t, in.seeds, prime.Options{Parallelism: par.Workers(workers), Limit: prime.DefaultLimit})
			if len(sets) != len(want) {
				t.Fatalf("%s, %d workers: %d cliques, reference %d", in.name, workers, len(sets), len(want))
			}
			for i := range want {
				if !sets[i].Equal(want[i]) {
					t.Fatalf("%s, %d workers: clique %d is %v, reference %v", in.name, workers, i, sets[i], want[i])
				}
			}
			if got, _ := sp.Attr("nodes"); got != int64(nodes) {
				t.Fatalf("%s, %d workers: span nodes %d, reference walker %d", in.name, workers, got, nodes)
			}
		}
	}
}

// TestGenerateSpanReportsWork checks the prime.generate span's work
// counters: nodes is the same at one and at four workers, and workers is
// the count the engine ran with — one below the sequential cutoff however
// many were asked for.
func TestGenerateSpanReportsWork(t *testing.T) {
	small := prime.KernelSeeds(48, 32, 7)
	if len(small) >= prime.ParallelCutoffSeeds {
		t.Fatalf("small instance has %d seeds, not below the cutoff", len(small))
	}
	large := prime.KernelSeeds(96, 32, 9)
	for _, c := range []struct {
		name    string
		seeds   []dichotomy.D
		workers int64
	}{{"small", small, 1}, {"large", large, 4}} {
		_, seq := generateSpan(t, c.seeds, prime.Options{Parallelism: par.Workers(1)})
		_, four := generateSpan(t, c.seeds, prime.Options{Parallelism: par.Workers(4)})
		n1, _ := seq.Attr("nodes")
		n4, _ := four.Attr("nodes")
		if n1 == 0 || n1 != n4 {
			t.Fatalf("%s: nodes %d at one worker, %d at four", c.name, n1, n4)
		}
		if w, _ := seq.Attr("workers"); w != 1 {
			t.Fatalf("%s: one worker asked, span reports %d", c.name, w)
		}
		if w, _ := four.Attr("workers"); w != c.workers {
			t.Fatalf("%s: four workers asked, span reports %d, want %d", c.name, w, c.workers)
		}
	}
}

// BenchmarkBronKerboschTable1Kernel enumerates the maximal compatibles of
// cse's raised seeds at Table 1's prime limit on one worker: a real
// Table-1 prime generation, where the pivot's exits fire.
func BenchmarkBronKerboschTable1Kernel(b *testing.B) {
	seeds := table1Raised(b, "cse")
	opts := prime.Options{Parallelism: par.Workers(1), Limit: prime.DefaultLimit}
	if _, err := prime.GenerateSetsCtx(context.Background(), seeds, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prime.GenerateSetsCtx(context.Background(), seeds, opts); err != nil {
			b.Fatal(err)
		}
	}
}
