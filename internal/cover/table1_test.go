package cover_test

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/dichotomy"
	"repro/internal/fsm"
	"repro/internal/mv"
	"repro/internal/par"
	"repro/internal/prime"
)

// table1Matrix builds the covering matrix core's exact flow solves for a
// Table-1 row: the canonical seed rows by the re-raised primes plus the
// raised seeds, primes cut off at the paper's 50,000.
func table1Matrix(t *testing.T, name string) *cover.Problem {
	t.Helper()
	var out mv.OutputOptions
	for _, cfg := range bench.Table1Benchmarks {
		if cfg.Name == name {
			out = cfg.Out
		}
	}
	m, err := fsm.GenerateByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cs := mv.GenerateConstraints(m, out)
	p1 := core.NewFeasibilityState(cs).Report()
	primes, err := prime.GenerateCtx(context.Background(), p1.Raised, prime.Options{Limit: 50000, Parallelism: par.Workers(1)})
	if err != nil {
		t.Fatal(err)
	}
	cands := dichotomy.Distinct(append(dichotomy.ValidRaised(primes, cs), p1.Raised...))
	return &cover.Problem{NumCols: len(cands), RowCols: dichotomy.Coverage(dichotomy.Rows(p1.Seeds), cands)}
}

// TestPassesMatchReferenceTable1: at the root of the six mid-size Table-1
// covering matrices, the indexed dominance passes leave exactly the rows
// and columns the all-pairs passes leave, the lazy greedy variants build
// the eager ones' covers, and the lazy weighted greedy keeps the eager
// one's incumbent.
func TestPassesMatchReferenceTable1(t *testing.T) {
	for _, name := range []string{"master", "kirkman", "dk512", "s1a", "exlinp", "cse"} {
		msg, err := cover.RootReferenceMismatch(table1Matrix(t, name))
		if err != nil {
			t.Fatal(err)
		}
		if msg != "" {
			t.Fatalf("%s: %s", name, msg)
		}
	}
}
