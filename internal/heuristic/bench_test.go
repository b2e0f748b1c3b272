package heuristic

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/constraint"
	"repro/internal/cost"
	"repro/internal/dichotomy"
	"repro/internal/fsm"
	"repro/internal/mv"
	"repro/internal/par"
)

// kernelSelection builds the inputs of one selection-phase scoring pass: a
// face-constraint set over n symbols and a candidate dichotomy pool sized
// so the exhaustive enumeration path runs.
func kernelSelection(n, pool int, seed int64) (*constraint.Set, bitset.Set, []dichotomy.D) {
	spec := "symbols"
	for s := 0; s < n; s++ {
		spec += " s" + string(rune('a'+s))
	}
	spec += "\n"
	rng := rand.New(rand.NewSource(seed))
	for f := 0; f < n; f++ {
		i, j, k := rng.Intn(n), rng.Intn(n), rng.Intn(n)
		if i == j || j == k || i == k {
			continue
		}
		spec += "face s" + string(rune('a'+i)) + " s" + string(rune('a'+j)) + " s" + string(rune('a'+k)) + "\n"
	}
	cs := constraint.MustParse(spec)
	p := bitset.New(n)
	for s := 0; s < n; s++ {
		p.Add(s)
	}
	var cands []dichotomy.D
	for len(cands) < pool {
		var d dichotomy.D
		d.L.Add(0)
		for s := 1; s < n; s++ {
			if rng.Intn(2) == 0 {
				d.L.Add(s)
			} else {
				d.R.Add(s)
			}
		}
		if !d.R.IsEmpty() {
			cands = append(cands, d)
		}
	}
	return cs, p, cands
}

// BenchmarkHeuristicScoringKernel measures the selection-phase candidate
// evaluation loop: every op scores every C(pool, c) combination, so
// allocs/op tracks the per-evaluation assignment/uniqueness scratch
// discipline.
func BenchmarkHeuristicScoringKernel(b *testing.B) {
	cs, p, cands := kernelSelection(10, 12, 3)
	e := &encoder{cs: cs, opts: Options{Metric: cost.Violations, MaxEvaluations: 2000}, workers: 1}
	if got := e.selectBest(p, 4, cands); len(got) != 4 {
		b.Fatalf("selectBest returned %d dichotomies, want 4", len(got))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.selectBest(p, 4, cands)
	}
}

// BenchmarkHeuristicEncodeKernel runs one full sequential restart pipeline.
func BenchmarkHeuristicEncodeKernel(b *testing.B) {
	cs, _, _ := kernelSelection(10, 12, 5)
	opts := Options{Metric: cost.Violations, Parallelism: par.Workers(1), Restarts: 1}
	if _, err := EncodeCtx(context.Background(), cs, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeCtx(context.Background(), cs, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3ENCKernel runs one Table-3 ENC encoding of dk16 (27
// states, its input constraints with encoding don't-cares) under the
// literal metric with the Table-3 restarts and polish budget on one
// worker: the heuristic half of perfbench synth, whose every selection
// step and polish move prices face costs through the memoizing evaluator.
func BenchmarkTable3ENCKernel(b *testing.B) {
	m, err := fsm.GenerateByName("dk16")
	if err != nil {
		b.Fatal(err)
	}
	cs := mv.InputConstraintsDC(m)
	opts := Options{Metric: cost.Literals, Parallelism: par.Workers(1), Restarts: 6, PolishBudget: 15000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeCtx(context.Background(), cs, opts); err != nil {
			b.Fatal(err)
		}
	}
}
