// Kernel benchmarks for the two exact-encoding backends on one generated
// instance, external test package so core (which imports sat) can drive
// the full pipeline. The pair rides the repository's bench-json/bench-gate
// harness: the SAT row tracks CNF compilation + DPLL solve cost, the
// branch-and-bound row is the baseline the README's comparison cites.
package sat_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/par"
)

// benchEncode measures one-worker exact encodes of inst through backend,
// after checking that the instance solves to optimality.
func benchEncode(b *testing.B, inst gen.Instance, backend core.Backend) {
	opts := core.ExactOptions{
		Parallelism: par.Workers(1),
		Backend:     backend,
	}
	ctx := context.Background()
	res, err := core.ExactEncodeCtx(ctx, inst.Set, opts)
	if err != nil {
		b.Fatal(err)
	}
	if !res.Optimal {
		b.Fatalf("benchmark instance not solved to optimality (%d bits)", res.Encoding.Bits)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ExactEncodeCtx(ctx, inst.Set, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// unateInstance is a fixed seeded 8-symbol mixed constraint set: large
// enough that the covering solve dominates the op, small enough that one
// op stays in the microsecond range for -benchtime=20x CI gating.
func unateInstance() gen.Instance {
	return gen.Random(11, gen.DefaultConfig(8))
}

// BenchmarkSATEncodeKernel measures the full exact encode through the
// CNF/SAT covering backend: seeds → primes → matrix → clause compilation →
// k-search over cover cardinality with the embedded DPLL solver.
func BenchmarkSATEncodeKernel(b *testing.B) {
	benchEncode(b, unateInstance(), core.BackendSAT)
}

// BenchmarkBranchBoundEncodeKernel is the identical solve through the
// default branch-and-bound covering engine — the baseline the SAT row is
// read against.
func BenchmarkBranchBoundEncodeKernel(b *testing.B) {
	benchEncode(b, unateInstance(), core.BackendBranchBound)
}

// BenchmarkBinateEncodeKernel measures an exact encode whose covering is
// binate, so SolveBinateCtx's feasibility solve and k-search run whatever
// the backend: 9 symbols plus 2 distance-2 and 1 non-face constraint give
// 144 candidate columns.
func BenchmarkBinateEncodeKernel(b *testing.B) {
	cfg := gen.DefaultConfig(9)
	cfg.Distance2s, cfg.NonFaces = 2, 1
	benchEncode(b, gen.Random(3, cfg), core.BackendBranchBound)
}
