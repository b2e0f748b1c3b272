package kiss

import (
	"strings"
	"testing"

	"repro/internal/fsm"
)

const sample = `
# a comment
.i 2
.o 1
.s 3
.p 4
.r s0
00 s0 s1 0
01 s0 s2 1
-- s1 s0 0
1- s2 s2 1
.e
`

func TestParse(t *testing.T) {
	m, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumInputs != 2 || m.NumOutputs != 1 {
		t.Fatalf("i/o wrong: %d/%d", m.NumInputs, m.NumOutputs)
	}
	if m.NumStates() != 3 || len(m.Trans) != 4 {
		t.Fatalf("states=%d trans=%d", m.NumStates(), len(m.Trans))
	}
	if m.States.Name(m.Reset) != "s0" {
		t.Fatalf("reset = %q", m.States.Name(m.Reset))
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if !m.Deterministic() {
		t.Fatal("sample is deterministic")
	}
}

func TestRoundTrip(t *testing.T) {
	m, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	text := Format(m)
	m2, err := ParseString(text)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, text)
	}
	if Format(m2) != text {
		t.Fatalf("round trip unstable:\n%s\nvs\n%s", text, Format(m2))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		".i 2\n.o 1\n0 s0 s1 0\n",       // input width mismatch
		".i 1\n.o 2\n0 s0 s1 0\n",       // output width mismatch
		".i 1\n.o 1\n0 s0 s1 0 extra\n", // too many fields
		".i x\n",                        // non-numeric
		".q 1\n",                        // unknown directive
		".i 1\n.o 1\n.s 5\n0 s0 s1 1\n", // state count mismatch
		".i 1\n.o 1\n.p 9\n0 s0 s1 1\n", // term count mismatch
		".i 1\n.o 1\n2 s0 s1 1\n",       // bad pattern char
	}
	for _, text := range bad {
		if _, err := ParseString(text); err == nil {
			t.Errorf("expected error for %q", text)
		}
	}
}

func TestSuiteRoundTrips(t *testing.T) {
	for _, spec := range fsm.Suite {
		m := fsm.Generate(spec)
		text := Format(m)
		m2, err := Parse(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if m2.NumStates() != m.NumStates() || len(m2.Trans) != len(m.Trans) {
			t.Fatalf("%s: round trip changed the machine", spec.Name)
		}
	}
}

func TestNondeterministicDetected(t *testing.T) {
	m, err := ParseString(".i 1\n.o 1\n- s0 s1 0\n1 s0 s2 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if m.Deterministic() {
		t.Fatal("overlapping input cubes with different targets must be non-deterministic")
	}
}

// TestParserRobustness feeds the parser structured garbage: it must never
// panic, only return errors or tolerate benign noise.
func TestParserRobustness(t *testing.T) {
	inputs := []string{
		"",
		"\n\n\n",
		"# only comments\n# more\n",
		".i\n",
		".i 1 2 3\n",
		".r\n",
		strings.Repeat(".i 1\n", 100),
		".i 1\n.o 1\n0 a\n",
		".i 1\n.o 1\n0 a b 1 extra stuff here\n",
		".i 1\n.o 1\nü ä ö 1\n",
		".e\n.e\n.e\n",
		".i 1\n.o 1\n.e\n0 a b 1\n", // transition after .e: tolerated
	}
	for _, in := range inputs {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on %q: %v", in, r)
				}
			}()
			_, _ = ParseString(in)
		}()
	}
}

func TestResetStateInterned(t *testing.T) {
	// A reset naming a state that appears in no transition is interned.
	m, err := ParseString(".i 1\n.o 1\n.r ghost\n0 a a 1\n1 a a 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if m.States.Name(m.Reset) != "ghost" {
		t.Fatalf("reset = %q", m.States.Name(m.Reset))
	}
}

// TestLateWidthRedeclarationRejected pins a fuzzer finding (the
// FuzzParseKISS round-trip invariant: every machine Parse accepts must
// pass Validate). A ".o 0" after a 1-output transition used to reset the
// machine's output width without re-checking the transitions already
// read, yielding an accepted machine that fails its own validation.
func TestLateWidthRedeclarationRejected(t *testing.T) {
	for _, text := range []string{
		".i 1\n.o 1\n0 0 0 0\n.o 0",
		".i 1\n.o 1\n0 a b 1\n.i 2",
	} {
		if _, err := ParseString(text); err == nil {
			t.Fatalf("late width redeclaration accepted:\n%s", text)
		}
	}
	// An agreeing redeclaration stays legal.
	if _, err := ParseString(".i 1\n.o 1\n0 a b 1\n.o 1\n"); err != nil {
		t.Fatalf("agreeing redeclaration rejected: %v", err)
	}
}

// TestNoTransitionsFailsValidation: texts that parse to a machine without
// transitions have no states, not even a reset state, and must fail
// validation rather than reach an encoder.
func TestNoTransitionsFailsValidation(t *testing.T) {
	for _, text := range []string{"#000", ".i 1\n.o 1\n"} {
		m, err := ParseString(text)
		if err != nil {
			t.Fatalf("%q: parse: %v", text, err)
		}
		if err := m.Validate(); err == nil {
			t.Errorf("%q: machine with %d states passed validation", text, m.NumStates())
		}
	}
}
