package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/constraint"
)

func TestParseBackend(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Backend
		ok   bool
	}{
		{"", BackendBranchBound, true},
		{"bb", BackendBranchBound, true},
		{"branchbound", BackendBranchBound, true},
		{"sat", BackendSAT, true},
		{"minisat", BackendBranchBound, false},
	} {
		got, ok := ParseBackend(tc.name)
		if got != tc.want || ok != tc.ok {
			t.Errorf("ParseBackend(%q) = (%v, %v), want (%v, %v)", tc.name, got, ok, tc.want, tc.ok)
		}
	}
	if BackendBranchBound.String() != "bb" || BackendSAT.String() != "sat" {
		t.Errorf("String() renderings changed: %q, %q", BackendBranchBound, BackendSAT)
	}
}

// TestSATBackendAgreesPlain: the SAT backend proves the same optimal code
// length as branch-and-bound on plain input/output constraint sets, and
// its encodings verify clean.
func TestSATBackendAgreesPlain(t *testing.T) {
	for _, tc := range []struct {
		name string
		text string
	}{
		{"section1", `
			symbols a b c d
			face b c
			face c d
			face b a
			face a d
			dom b > c
			dom a > c
			disj a = b | d
		`},
		{"faces-only", `
			symbols a b c d e
			face a b c
			face c d
			face b e
		`},
		{"uniqueness-only", `
			symbols a b c d e f g
		`},
		{"single", `
			symbols a
		`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cs := constraint.MustParse(tc.text)
			bb, err := ExactEncodeCtx(context.Background(), cs, ExactOptions{})
			if err != nil {
				t.Fatalf("branch-and-bound: %v", err)
			}
			st, err := ExactEncodeCtx(context.Background(), cs, ExactOptions{Backend: BackendSAT})
			if err != nil {
				t.Fatalf("sat: %v", err)
			}
			if !bb.Optimal || !st.Optimal {
				t.Fatalf("expected both optimal: bb=%v sat=%v", bb.Optimal, st.Optimal)
			}
			if bb.Encoding.Bits != st.Encoding.Bits {
				t.Fatalf("bits disagree: bb=%d sat=%d", bb.Encoding.Bits, st.Encoding.Bits)
			}
			if v := Verify(cs, st.Encoding); len(v) != 0 {
				t.Fatalf("sat encoding fails verification: %v\n%s", v, st.Encoding)
			}
		})
	}
}

// TestSATBackendAgreesExtended: on Section-8 extension sets the covering
// is binate and always runs on the CNF backend, so the Backend choice
// cannot change the answer: both return the same verified encoding.
func TestSATBackendAgreesExtended(t *testing.T) {
	for _, tc := range []struct {
		name string
		text string
	}{
		{"nonface", `
			symbols a b c d e f
			face a b
			face b c d
			face a e
			face d f
			nonface a b e
		`},
		{"dist2", `
			symbols a b c d
			face a b
			dist2 a b
		`},
		{"mixed", `
			symbols a b c d
			face a b
			dom a > c
			dist2 c d
		`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cs := constraint.MustParse(tc.text)
			bb, err := ExactEncodeCtx(context.Background(), cs, ExactOptions{})
			if err != nil {
				t.Fatalf("branch-and-bound: %v", err)
			}
			st, err := ExactEncodeCtx(context.Background(), cs, ExactOptions{Backend: BackendSAT})
			if err != nil {
				t.Fatalf("sat: %v", err)
			}
			if bb.Optimal != st.Optimal || bb.Encoding.String() != st.Encoding.String() {
				t.Fatalf("backends disagree: bb (optimal=%v)\n%s\nsat (optimal=%v)\n%s",
					bb.Optimal, bb.Encoding, st.Optimal, st.Encoding)
			}
			if v := Verify(cs, st.Encoding); len(v) != 0 {
				t.Fatalf("sat encoding fails verification: %v\n%s", v, st.Encoding)
			}
		})
	}
}

// TestSATBackendInfeasible: either backend returns the typed infeasibility
// on a contradictory extended set.
func TestSATBackendInfeasible(t *testing.T) {
	cs := constraint.MustParse(`
		symbols a b
		dom a > b
		dom b > a
		dist2 a b
	`)
	if _, err := ExactEncodeCtx(context.Background(), cs, ExactOptions{}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("branch-and-bound: want ErrInfeasible, got %v", err)
	}
	if _, err := ExactEncodeCtx(context.Background(), cs, ExactOptions{Backend: BackendSAT}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("sat: want ErrInfeasible, got %v", err)
	}
}

// TestSATBackendExhaustive: the SAT backend composes with the exhaustive
// column pool exactly like branch-and-bound.
func TestSATBackendExhaustive(t *testing.T) {
	cs := constraint.MustParse(`
		symbols a b c d e
		face a b
		face c d e
	`)
	bb, err := ExactEncodeCtx(context.Background(), cs, ExactOptions{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := ExactEncodeCtx(context.Background(), cs, ExactOptions{Exhaustive: true, Backend: BackendSAT})
	if err != nil {
		t.Fatal(err)
	}
	if bb.Encoding.Bits != st.Encoding.Bits || !st.Optimal {
		t.Fatalf("bits bb=%d sat=%d (optimal=%v)", bb.Encoding.Bits, st.Encoding.Bits, st.Optimal)
	}
}
