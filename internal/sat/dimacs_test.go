package sat

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestDIMACSRoundTrip: 1000 random formulas survive emit → parse with the
// variable count, clause list and unsatisfiable flag intact.
func TestDIMACSRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		nVars := 1 + rng.Intn(30)
		f := randomCNF(rng, nVars, rng.Intn(60))
		if rng.Intn(50) == 0 {
			f.AddClause() // empty clause: trivially unsat formula
		}
		var buf bytes.Buffer
		if err := WriteDIMACS(&buf, f); err != nil {
			t.Fatalf("formula %d: write: %v", i, err)
		}
		g, err := ParseDIMACS(&buf)
		if err != nil {
			t.Fatalf("formula %d: parse: %v\n%s", i, err, buf.String())
		}
		if g.NumVars() != f.NumVars() {
			t.Fatalf("formula %d: vars %d → %d", i, f.NumVars(), g.NumVars())
		}
		if g.Unsat() != f.Unsat() {
			t.Fatalf("formula %d: unsat flag %v → %v", i, f.Unsat(), g.Unsat())
		}
		if !reflect.DeepEqual(normClauses(f), normClauses(g)) {
			t.Fatalf("formula %d: clauses changed across round-trip", i)
		}
	}
}

// normClauses returns the clause list in a comparable form (clauses are
// already sorted internally by AddClause).
func normClauses(f *CNF) [][]Lit {
	if len(f.Clauses) == 0 {
		return nil
	}
	return f.Clauses
}

// TestDIMACSFormat pins the emitted syntax on a tiny formula.
func TestDIMACSFormat(t *testing.T) {
	f := NewCNF(3)
	f.AddClause(Pos(0), Neg(1))
	f.AddClause(Pos(2))
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, f); err != nil {
		t.Fatal(err)
	}
	want := "p cnf 3 2\n1 -2 0\n3 0\n"
	if buf.String() != want {
		t.Fatalf("emitted:\n%q\nwant:\n%q", buf.String(), want)
	}
}

// TestDIMACSParseTolerance: comments, blank lines, multi-line clauses and
// under-declared variable counts all parse.
func TestDIMACSParseTolerance(t *testing.T) {
	in := "c a comment\n\np cnf 2 2\n1 -2\n0\nc mid comment\n3 0\n"
	f, err := ParseDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars() != 3 {
		t.Fatalf("vars = %d, want 3 (grown by literal 3)", f.NumVars())
	}
	if len(f.Clauses) != 2 {
		t.Fatalf("clauses = %d, want 2", len(f.Clauses))
	}
}

// TestDIMACSParseErrors: malformed inputs are rejected, not mangled.
func TestDIMACSParseErrors(t *testing.T) {
	for _, in := range []string{
		"",                       // no problem line
		"1 2 0\n",                // clause before problem line
		"p cnf x 1\n1 0\n",       // bad var count
		"p cnf 2 1\n1 2\n",       // unterminated clause
		"p cnf 2 1\n1 y 0\n",     // bad literal
		"p cnf 1 0\np cnf 1 0\n", // duplicate problem line
	} {
		if _, err := ParseDIMACS(strings.NewReader(in)); err == nil {
			t.Errorf("ParseDIMACS(%q) succeeded, want error", in)
		}
	}
}
