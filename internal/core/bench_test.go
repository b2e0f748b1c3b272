package core_test

import (
	"testing"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/gen"
)

// hashSink keeps the measured hashes live.
var hashSink core.Hash128

// BenchmarkCanonicalHashKernel hashes 100 sets shaped like the serve
// workload's requests, gen.DefaultConfig(6..10) at seeds 1–20, per op: the
// cache key every /v1/encode request, batch item and job pays before its
// cache lookup.
func BenchmarkCanonicalHashKernel(b *testing.B) {
	var sets []*constraint.Set
	for n := 6; n <= 10; n++ {
		for seed := int64(1); seed <= 20; seed++ {
			sets = append(sets, gen.Random(seed, gen.DefaultConfig(n)).Set)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cs := range sets {
			hashSink = core.CanonicalHashSet(cs)
		}
	}
}
