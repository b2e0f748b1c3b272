package fsm

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/espresso"
	"repro/internal/hypercube"
	"repro/internal/sym"
)

func TestSuiteShapes(t *testing.T) {
	// State counts must match the machines the paper names.
	want := map[string]int{
		"bbsse": 16, "cse": 16, "dk16": 27, "dk16x": 27, "dk512": 15,
		"donfile": 24, "ex1": 20, "exlinp": 20, "keyb": 19, "kirkman": 16,
		"master": 15, "planet": 48, "s1": 20, "s1a": 20, "sand": 32,
		"styr": 30, "tbk": 32, "viterbi": 68, "vmecont": 32,
	}
	for _, spec := range Suite {
		m := Generate(spec)
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if w, ok := want[spec.Name]; !ok || m.NumStates() != w {
			t.Errorf("%s: %d states, want %d", spec.Name, m.NumStates(), w)
		}
		if !m.Deterministic() {
			t.Errorf("%s: synthetic machines must be deterministic", spec.Name)
		}
		if !complete(m) {
			t.Errorf("%s: synthetic machines must cover every (state, input)", spec.Name)
		}
	}
}

// complete checks that every state's transitions tile the whole input space.
func complete(m *FSM) bool {
	for s := 0; s < m.NumStates(); s++ {
		cov := espresso.NewCover(m.NumInputs)
		for i, tr := range m.Trans {
			if tr.From == s {
				cov.Add(m.InCube(i))
			}
		}
		if !cov.Tautology() {
			return false
		}
	}
	return true
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Suite[0])
	b := Generate(Suite[0])
	if len(a.Trans) != len(b.Trans) {
		t.Fatal("generation must be reproducible")
	}
	for i := range a.Trans {
		if a.Trans[i] != b.Trans[i] {
			t.Fatalf("transition %d differs between runs", i)
		}
	}
}

func TestGenerateByName(t *testing.T) {
	if _, err := GenerateByName("bbsse"); err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateByName("nonexistent"); err == nil {
		t.Fatal("unknown benchmark must error")
	}
	names := SuiteNames()
	if len(names) != len(Suite) {
		t.Fatal("SuiteNames must list everything")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("SuiteNames must be sorted")
		}
	}
}

func testEncoding(states *sym.Table, bits int) *core.Encoding {
	codes := make([]hypercube.Code, states.Len())
	for i := range codes {
		codes[i] = hypercube.Code(i)
	}
	return core.NewEncoding(states, bits, codes)
}

func TestEncodePLA(t *testing.T) {
	m := New("toy", 1, 1)
	m.AddTransition("0", "a", "a", "0")
	m.AddTransition("1", "a", "b", "1")
	m.AddTransition("-", "b", "a", "1")
	enc := testEncoding(m.States, 1)

	pla := m.Encode(enc)
	if pla.NumInputs != 2 || pla.NumOutputs != 2 {
		t.Fatalf("PLA geometry wrong: %d/%d", pla.NumInputs, pla.NumOutputs)
	}
	if pla.Cubes() != 3 {
		t.Fatalf("one row per transition, got %d", pla.Cubes())
	}
	// Functional check against the machine on all (input, state) points.
	checkPLA(t, m, enc, pla)
	pla.Minimize()
	checkPLA(t, m, enc, pla)
}

// checkPLA verifies the PLA computes the encoded machine's next state and
// 1-outputs on every defined point.
func checkPLA(t *testing.T, m *FSM, enc *core.Encoding, pla *EncodedPLA) {
	t.Helper()
	bits := enc.Bits
	for in := uint64(0); in < 1<<uint(m.NumInputs); in++ {
		for s := 0; s < m.NumStates(); s++ {
			// Find the machine's defined behavior.
			var wantOut uint64
			defined := false
			for i, tr := range m.Trans {
				if tr.From != s || !m.InCube(i).ContainsMinterm(m.NumInputs, in) {
					continue
				}
				defined = true
				next := enc.Codes[tr.To]
				for b := 0; b < bits; b++ {
					if next&(1<<uint(b)) != 0 {
						wantOut |= 1 << uint(b)
					}
				}
				for o := 0; o < m.NumOutputs; o++ {
					if tr.Out[o] == '1' {
						wantOut |= 1 << uint(bits+o)
					}
				}
				break
			}
			if !defined {
				continue
			}
			point := in | uint64(enc.Codes[s])<<uint(m.NumInputs)
			var got uint64
			for _, r := range pla.Rows {
				if r.In.ContainsMinterm(pla.NumInputs, point) {
					got |= r.Out
				}
			}
			if got != wantOut {
				t.Fatalf("PLA(%0*b, %s) = %b, want %b", m.NumInputs, in, m.States.Name(s), got, wantOut)
			}
		}
	}
}

func TestMergeRows(t *testing.T) {
	pla := &EncodedPLA{NumInputs: 2, NumOutputs: 2}
	c := espresso.ParseCube("01")
	pla.Rows = []PLARow{{In: c, Out: 1}, {In: c, Out: 2}, {In: espresso.ParseCube("10"), Out: 0}}
	pla.MergeRows()
	// Identical cubes OR their outputs; the zero-output row is retained as
	// off-set context until DropEmpty.
	if len(pla.Rows) != 2 || pla.Rows[0].Out != 3 {
		t.Fatalf("MergeRows wrong: %+v", pla.Rows)
	}
	pla.DropEmpty()
	if len(pla.Rows) != 1 {
		t.Fatalf("DropEmpty wrong: %+v", pla.Rows)
	}
}

func TestPLAStringParsesBack(t *testing.T) {
	m := New("toy", 1, 1)
	m.AddTransition("-", "a", "b", "1")
	m.AddTransition("-", "b", "a", "0")
	enc := testEncoding(m.States, 1)
	pla := m.Encode(enc)
	s := pla.String()
	if !strings.Contains(s, ".i 2") || !strings.Contains(s, ".o 2") {
		t.Fatalf("PLA header wrong:\n%s", s)
	}
}

func TestValidateRejects(t *testing.T) {
	m := New("bad", 2, 1)
	m.Trans = append(m.Trans, Transition{In: "0", From: 0, To: 0, Out: "1"})
	m.States.Intern("a")
	if err := m.Validate(); err == nil {
		t.Fatal("short input cube must fail validation")
	}
}

func TestValidateRejectsNoStates(t *testing.T) {
	if err := New("empty", 1, 1).Validate(); err == nil || !strings.Contains(err.Error(), "no states") {
		t.Fatalf("machine with no states: err = %v, want a no-states error", err)
	}
}
