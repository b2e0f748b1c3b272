package cost_test

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/hypercube"
)

// benchSink keeps the measured calls' results live.
var benchSink int

// BenchmarkFaceCostKernel prices the Table-3 dk16 input (27 states, 5-bit
// codes) through the face-cost path: "miss" minimizes every face's F_I on
// each op (direct cost.Of), "hit" is an evaluator swap loop whose memo
// already holds every state it visits, so allocs/op tracks the key path.
func BenchmarkFaceCostKernel(b *testing.B) {
	cs := table3Input(b, "dk16")
	n := cs.N()
	bits := hypercube.MinBits(n)
	codes := make([]hypercube.Code, n)
	for i := range codes {
		codes[i] = hypercube.Code(i)
	}
	a := cost.FullAssignment(bits, codes)
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = cost.Of(cost.Literals, cs, a)
		}
	})
	b.Run("hit", func(b *testing.B) {
		const pairs = 16
		swap := func(i int) {
			x, y := i%pairs, (i%pairs*7+3)%n
			codes[x], codes[y] = codes[y], codes[x]
		}
		ev := cost.NewEvaluator(cs)
		for i := 0; i < pairs; i++ {
			swap(i)
			ev.Of(cost.Literals, a)
			swap(i)
		}
		misses := ev.Misses
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			swap(i)
			benchSink = ev.Of(cost.Literals, a)
			swap(i)
		}
		b.StopTimer()
		if ev.Misses != misses {
			b.Fatalf("%d misses after warm-up", ev.Misses-misses)
		}
	})
}
