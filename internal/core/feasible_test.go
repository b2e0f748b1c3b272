package core_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/dichotomy"
	"repro/internal/gen"
)

// scanFeasibility is the P-1 check written out from its exported pieces:
// every seed looked up among every raise.
func scanFeasibility(cs *constraint.Set) core.Feasibility {
	seeds := dichotomy.Initial(cs)
	raised := dichotomy.ValidRaised(seeds, cs)
	f := core.Feasibility{Seeds: seeds, Raised: raised}
	for _, d := range seeds {
		if !dichotomy.CoveredBySome(d, raised) {
			f.Uncovered = append(f.Uncovered, d)
		}
	}
	f.Feasible = len(f.Uncovered) == 0
	return f
}

func sameDs(a, b []dichotomy.D) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func checkReport(t *testing.T, got core.Feasibility, cs *constraint.Set, what string) {
	t.Helper()
	want := scanFeasibility(cs)
	if got.Feasible != want.Feasible || !sameDs(got.Seeds, want.Seeds) ||
		!sameDs(got.Raised, want.Raised) || !sameDs(got.Uncovered, want.Uncovered) {
		t.Fatalf("%s: feasible %v with %d raised, %d uncovered; the scan says %v with %d raised, %d uncovered\n%s",
			what, got.Feasible, len(got.Raised), len(got.Uncovered),
			want.Feasible, len(want.Raised), len(want.Uncovered), cs)
	}
}

// TestFeasibilityStateMatchesScan holds the per-seed state to the plain
// seeds × raises scan: from scratch on generated sets and the infeasible
// reproducer, and after every dominance and disjunctive it admits or
// rejects while a set is rebuilt one output constraint at a time, random
// extra candidates included. Enough of the generated sets are infeasible
// that the uncovered seeds, which the state reads off its flags alone, are
// checked too.
func TestFeasibilityStateMatchesScan(t *testing.T) {
	repro := infeasibleReproducer()
	checkReport(t, core.CheckFeasible(repro), repro, "the infeasible reproducer")
	rng := rand.New(rand.NewSource(7))
	infeasible := 0
	for n := 3; n <= 10; n++ {
		for seed := int64(1); seed <= 8; seed++ {
			for _, cfg := range []gen.Config{
				gen.DefaultConfig(n),
				{Symbols: n, Faces: n / 2, Dominances: n, Disjunctives: 2, ExtDisjunctives: 1, DontCareProb: 0.3},
			} {
				full := gen.Random(seed, cfg).Set
				f := core.CheckFeasible(full)
				checkReport(t, f, full, "from scratch")
				if len(f.Uncovered) > 0 {
					infeasible++
				}

				cs := full.Clone()
				cs.Dominances, cs.Disjunctives = nil, nil
				st := core.NewFeasibilityState(cs)
				doms := append([]constraint.Dominance(nil), full.Dominances...)
				for i := 0; i < 3; i++ {
					p := rng.Perm(n)
					doms = append(doms, constraint.Dominance{Big: p[0], Small: p[1]})
				}
				for _, d := range doms {
					grown := cs.Clone()
					grown.Dominances = append(grown.Dominances, d)
					want := core.CheckFeasible(grown).Feasible
					if got := st.AddDominance(d); got != want {
						t.Fatalf("AddDominance(%v) = %v, from scratch %v\n%s", d, got, want, grown)
					}
					checkReport(t, st.Report(), cs, "after a dominance")
				}
				djs := append([]constraint.Disjunctive(nil), full.Disjunctives...)
				if n >= 3 {
					p := rng.Perm(n)
					djs = append(djs, constraint.Disjunctive{Parent: p[0], Children: []int{p[1], p[2]}})
				}
				for _, d := range djs {
					grown := cs.Clone()
					grown.Disjunctives = append(grown.Disjunctives, d)
					want := core.CheckFeasible(grown).Feasible
					if got := st.AddDisjunctive(d); got != want {
						t.Fatalf("AddDisjunctive(%v) = %v, from scratch %v\n%s", d, got, want, grown)
					}
					checkReport(t, st.Report(), cs, "after a disjunctive")
				}
			}
		}
	}
	if infeasible < 20 {
		t.Fatalf("only %d generated sets have uncovered seeds", infeasible)
	}
}

// infeasibleReproducer is an infeasible set of 173 constraints whose
// conflict minimization runs for seconds: each of its hundreds of P-1
// checks costs tens of milliseconds.
func infeasibleReproducer() *constraint.Set {
	return gen.Random(1, gen.Config{Symbols: 56, Faces: 56, Dominances: 112, Disjunctives: 3, ExtDisjunctives: 2, DontCareProb: 0.3}).Set
}

// TestMinimizeInfeasibleHonoursContext checks that conflict minimization
// stops when its context ends: a canceled context yields the nil conflict
// at once, and so does an exact solve's error path, which still reports
// the uncovered seeds.
func TestMinimizeInfeasibleHonoursContext(t *testing.T) {
	cs := infeasibleReproducer()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if c := core.MinimizeInfeasible(ctx, cs); c != nil {
		t.Fatalf("canceled minimization returned a conflict:\n%s", c)
	}
	_, err := core.ExactEncodeCtx(ctx, cs, core.ExactOptions{})
	var ie *core.InfeasibleError
	if !errors.As(err, &ie) {
		t.Fatalf("ExactEncodeCtx = %v, want an InfeasibleError", err)
	}
	if ie.Conflict != nil || len(ie.Uncovered) == 0 {
		t.Fatalf("canceled solve: conflict %v, %d uncovered; want no conflict and the uncovered seeds", ie.Conflict != nil, len(ie.Uncovered))
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("canceled minimization took %v", d)
	}

	ctx, cancel = context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start = time.Now()
	if c := core.MinimizeInfeasible(ctx, cs); c != nil {
		t.Fatalf("expired minimization returned a conflict:\n%s", c)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("minimization ran %v past a 50ms deadline", d)
	}
}
