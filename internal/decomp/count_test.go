package decomp_test

import (
	"testing"

	"repro/internal/constraint"
	"repro/internal/decomp"
	"repro/internal/gen"
)

// TestCountMatchesSplit: Count is the number of components Split builds
// on generated single- and multi-component sets, and 1 on the sets Split
// refuses: a chain, a set that fails validation, and the generated sets
// with a non-face (odd seeds).
func TestCountMatchesSplit(t *testing.T) {
	invalid := constraint.MustParse("face a b\nface c d\n")
	invalid.Dominances = append(invalid.Dominances, constraint.Dominance{Big: 0, Small: 9})
	sets := []*constraint.Set{constraint.MustParse("chain a b\nface c d\n"), invalid}
	for n := 4; n <= 12; n++ {
		for _, k := range []int{0, 2, 3} {
			for seed := int64(1); seed <= 60; seed++ {
				cfg := gen.DefaultConfig(n)
				cfg.Components = k
				cfg.Distance2s = 1
				cfg.NonFaces = int(seed % 2)
				sets = append(sets, gen.Random(seed, cfg).Set)
			}
		}
	}
	for i, cs := range sets {
		want := 1
		if plan, err := decomp.Split(cs); err == nil {
			want = len(plan.Components)
		}
		if got := decomp.Count(cs); got != want {
			t.Fatalf("set %d: Count = %d, Split says %d", i, got, want)
		}
	}
}
