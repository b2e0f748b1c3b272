package mv_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/constraint"
	"repro/internal/corpus"
	"repro/internal/fsm"
	"repro/internal/gen"
	"repro/internal/mv"
)

// checkAdmission fails t unless OutputConstraints admits exactly the set
// the from-scratch reference loop admits on m's minimized cover.
func checkAdmission(t *testing.T, name string, m *fsm.FSM, opts mv.OutputOptions) {
	t.Helper()
	sc := mv.Cover(m)
	sc.Minimize()
	faces := constraint.NewSet(m.States)
	sc.FaceConstraints(faces)
	got, want := faces.Clone(), faces.Clone()
	sc.OutputConstraints(got, opts)
	mv.RefOutputConstraints(sc, want, opts)
	if got.String() != want.String() {
		t.Fatalf("%s: admitted\n%s\nthe reference admits\n%s", name, got, want)
	}
}

// TestOutputConstraintsMatchReference holds the incremental admission to
// the from-scratch loop, byte for byte, on every Table-1 machine under its
// Table-1 budget, every corpus machine under the default options and
// random machines.
func TestOutputConstraintsMatchReference(t *testing.T) {
	for _, row := range bench.Table1Benchmarks {
		m, err := fsm.GenerateByName(row.Name)
		if err != nil {
			t.Fatal(err)
		}
		checkAdmission(t, row.Name, m, row.Out)
	}
	machines, err := corpus.Load("../../" + corpus.DefaultDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, mc := range machines {
		checkAdmission(t, mc.Name, mc.FSM, mv.OutputOptions{})
	}
	for seed := int64(1); seed <= 30; seed++ {
		cfg := gen.DefaultFSMConfig(4 + int(seed)%9)
		cfg.Partial = seed%2 == 0
		checkAdmission(t, fmt.Sprintf("random seed %d", seed), gen.RandomFSM(seed, cfg), mv.OutputOptions{MaxDominance: 40, MaxDisjunctive: 3})
	}
}
