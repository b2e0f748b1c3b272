package constraint_test

import (
	"testing"

	"repro/internal/constraint"
	"repro/internal/gen"
)

// parseSink keeps the parsed sets live.
var parseSink *constraint.Set

// BenchmarkParseKernel parses the texts of 100 sets shaped like the serve
// workload's requests, gen.DefaultConfig(6..10) at seeds 1–20, per op: the
// parse every /v1/encode request and batch item pays first.
func BenchmarkParseKernel(b *testing.B) {
	var texts []string
	for n := 6; n <= 10; n++ {
		for seed := int64(1); seed <= 20; seed++ {
			texts = append(texts, gen.Random(seed, gen.DefaultConfig(n)).Set.String())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, text := range texts {
			cs, err := constraint.ParseString(text)
			if err != nil {
				b.Fatal(err)
			}
			parseSink = cs
		}
	}
}
