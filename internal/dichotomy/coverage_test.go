package dichotomy_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/dichotomy"
	"repro/internal/fsm"
	"repro/internal/mv"
	"repro/internal/prime"
)

// table1Matrix returns the covering rows and candidate columns the exact
// encoder builds for a Table-1 row: the canonical seed rows, and the valid
// re-raised primes followed by the raised seeds, deduplicated (raising a
// raise changes nothing, so ValidRaised only drops the repeats).
func table1Matrix(tb testing.TB, name string) (rows, cols []dichotomy.D) {
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
		seeds := dichotomy.Initial(cs)
		raised := dichotomy.ValidRaised(seeds, cs)
		primes, err := prime.GenerateCtx(context.Background(), raised, prime.Options{})
		if err != nil {
			tb.Fatal(err)
		}
		cols = dichotomy.ValidRaised(append(dichotomy.ValidRaised(primes, cs), raised...), cs)
		return dichotomy.Rows(seeds), cols
	}
	tb.Fatalf("no Table-1 row %q", name)
	return nil, nil
}

// checkCoverage compares Coverage with the reference loop on one matrix
// and checks that every list is capped at its length.
func checkCoverage(t *testing.T, what string, rows, cols []dichotomy.D) {
	t.Helper()
	got, want := dichotomy.Coverage(rows, cols), refCoverage(rows, cols)
	if len(got) != len(rows) {
		t.Fatalf("%s: %d lists for %d rows", what, len(got), len(rows))
	}
	for ri := range rows {
		if cap(got[ri]) != len(got[ri]) {
			t.Fatalf("%s: row %d's list has length %d but capacity %d", what, ri, len(got[ri]), cap(got[ri]))
		}
		if !slices.Equal(got[ri], want[ri]) {
			t.Fatalf("%s: row %d %v covered by %d columns, reference %d; first %v, reference %v",
				what, ri, rows[ri], len(got[ri]), len(want[ri]), got[ri][:min(8, len(got[ri]))], want[ri][:min(8, len(want[ri]))])
		}
	}
}

// TestCoverageMatchesReference holds the transposed coverage kernel to the
// rows × columns Covers loop on the Table-1 matrices, on the seeds and
// candidate pools of generated sets with don't-care faces, and on random
// dichotomies with empty and overlapping blocks whose rows use symbols no
// column reaches.
func TestCoverageMatchesReference(t *testing.T) {
	names := []string{"bbsse", "cse", "dk16", "dk512", "exlinp", "kirkman", "master", "s1a"}
	if !testing.Short() {
		names = append(names, "dk16x", "s1")
	}
	for _, name := range names {
		rows, cols := table1Matrix(t, name)
		checkCoverage(t, name, rows, cols)
	}

	for i, cs := range raiseSets() {
		seeds := dichotomy.Initial(cs)
		raised := dichotomy.ValidRaised(seeds, cs)
		primes, err := prime.GenerateCtx(context.Background(), raised, prime.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cols := append(dichotomy.ValidRaised(primes, cs), raised...)
		checkCoverage(t, "generated set", dichotomy.Rows(seeds), cols)
		// Every seed, both orientations, against the primes as generated.
		checkCoverage(t, "generated seeds", seeds, primes)
		if i%10 == 0 {
			checkCoverage(t, "no columns", seeds, nil)
		}
	}

	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(80)
		cols := make([]dichotomy.D, rng.Intn(150))
		for i := range cols {
			cols[i] = randomD(rng, n, rng.Intn(4) == 0)
		}
		rows := make([]dichotomy.D, rng.Intn(60))
		for i := range rows {
			// A row may reach past the columns' symbols; sparse rows with
			// one or both blocks empty are covered by many columns.
			var d dichotomy.D
			for s := 0; s < n+4; s++ {
				switch rng.Intn(3 + n/2) {
				case 0:
					d.L.Add(s)
				case 1:
					d.R.Add(s)
				}
			}
			rows[i] = d
		}
		rows = append(rows, dichotomy.D{})
		checkCoverage(t, "random", rows, cols)
	}
}

// coverageSink keeps the benchmarked matrix live.
var coverageSink [][]int

// BenchmarkCoverageKernel builds cse's Table-1 covering matrix: its 293
// canonical seed rows against its 3,910 candidate columns.
func BenchmarkCoverageKernel(b *testing.B) {
	rows, cols := table1Matrix(b, "cse")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coverageSink = dichotomy.Coverage(rows, cols)
	}
}
