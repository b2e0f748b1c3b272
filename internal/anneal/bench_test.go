package anneal_test

import (
	"os"
	"testing"

	"repro/internal/anneal"
	"repro/internal/constraint"
	"repro/internal/cost"
	"repro/internal/kiss"
	"repro/internal/mv"
)

// corpusInput is the face-constraint set the pipeline's encoders receive
// for a corpus machine: the faces of its minimized symbolic cover.
func corpusInput(b *testing.B, name string) *constraint.Set {
	f, err := os.Open("../../testdata/corpus/" + name + ".kiss2")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	m, err := kiss.Parse(f)
	if err != nil {
		b.Fatal(err)
	}
	sc := mv.Cover(m)
	sc.Minimize()
	cs := constraint.NewSet(m.States)
	sc.FaceConstraints(cs)
	return cs
}

// BenchmarkAnnealKernel is one full anneal of the corpus syn12 input per
// op, as the pipeline's anneal strategy runs it (Cubes, memoizing
// evaluator, seed 1): a real trajectory of swaps and relocations, each
// priced by the evaluator.
func BenchmarkAnnealKernel(b *testing.B) {
	cs := corpusInput(b, "syn12")
	opts := anneal.Options{Metric: cost.Cubes, Seed: 1, UseCache: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := anneal.Encode(cs, opts); err != nil {
			b.Fatal(err)
		}
	}
}
