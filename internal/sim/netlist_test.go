package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/blif"
	"repro/internal/fsm"
	"repro/internal/kiss"
	"repro/internal/mv"
	"repro/internal/nova"
)

func mustNetlist(t *testing.T, text string) *blif.Netlist {
	t.Helper()
	nl, err := blif.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// A toggle flip-flop netlist, stepped by hand: the state bit flips whenever
// the input is 1, the output exposes the state bit.
func TestNetlistSimToggle(t *testing.T) {
	nl := mustNetlist(t, `
.model toggle
.inputs in0
.outputs out0
.latch ns0 st0 0
.names in0 st0 ns0
10 1
01 1
.names st0 out0
1 1
.end
`)
	s, err := NewNetlistSim(nl)
	if err != nil {
		t.Fatal(err)
	}
	// ns0 = in0 XOR st0, out0 = st0 sampled before the edge. From st0=0 the
	// input walk 1,0,1,1 visits states 0,1,1,0 at sampling time.
	want := []bool{false, true, true, false}
	ins := []bool{true, false, true, true}
	for i, in := range ins {
		outs := s.Step(map[string]bool{"in0": in})
		if outs["out0"] != want[i] {
			t.Fatalf("step %d: out0=%v want %v", i, outs["out0"], want[i])
		}
	}
	s.Reset()
	if outs := s.Step(map[string]bool{}); outs["out0"] {
		t.Fatal("Reset did not restore the initial state")
	}
}

// Step must sample outputs before the clock edge (Mealy semantics) and
// treat absent input names as 0.
func TestNetlistSimMealyAndDefaults(t *testing.T) {
	nl := mustNetlist(t, `
.model mealy
.inputs in0
.outputs out0
.latch ns0 st0 0
.names in0 ns0
1 1
.names in0 st0 out0
1- 1
.end
`)
	s, err := NewNetlistSim(nl)
	if err != nil {
		t.Fatal(err)
	}
	// out0 = in0: asserted the same cycle, not one later.
	if outs := s.Step(map[string]bool{"in0": true}); !outs["out0"] {
		t.Fatal("output lagged the input: latch updated before sampling")
	}
	// Absent input name reads as 0.
	if outs := s.Step(nil); outs["out0"] {
		t.Fatal("absent input did not default to 0")
	}
}

func TestNewNetlistSimRejects(t *testing.T) {
	cases := []struct {
		name, text, want string
	}{
		{"multiple drivers", ".model m\n.inputs a\n.outputs a\n.names a\n.end\n", "multiple drivers"},
		{"undriven output", ".model m\n.outputs y\n.end\n", "undriven"},
		{"undriven table input", ".model m\n.outputs y\n.names x y\n1 1\n.end\n", "undriven"},
		{"undriven latch input", ".model m\n.latch a b 0\n.end\n", "undriven"},
		{"unknown latch init", ".model m\n.inputs a\n.latch a b\n.end\n", "unspecified initial value"},
		{"combinational cycle", ".model m\n.outputs y\n.names y x\n1 1\n.names x y\n1 1\n.end\n", "cycle"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewNetlistSim(mustNetlist(t, tc.text))
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

const replayKISS = `
.i 2
.o 2
00 a a 00
01 a b 01
1- a c 10
-- b a 11
00 c c 0-
-1 c a 01
10 c b 1-
`

func replayFixture(t *testing.T) (*fsm.FSM, string) {
	t.Helper()
	fm, err := kiss.ParseString(replayKISS)
	if err != nil {
		t.Fatal(err)
	}
	fm.Name = "replayfix"
	cs := mv.GenerateConstraints(fm, mv.OutputOptions{})
	enc, err := nova.Encode(cs, nova.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pla := fm.Encode(enc)
	pla.Minimize()
	out, err := blif.FormatPLA(fm, enc, pla)
	if err != nil {
		t.Fatal(err)
	}
	return fm, out
}

// ReplayNetlist must pass on a correctly synthesized netlist, including an
// incompletely specified machine with output don't-cares.
func TestReplayNetlistPasses(t *testing.T) {
	fm, text := replayFixture(t)
	if err := ReplayNetlist(fm, mustNetlist(t, text), 8, 32, 1); err != nil {
		t.Fatalf("replay of a correct netlist failed: %v\n%s", err, text)
	}
}

// The verifier must not be vacuous: corrupting one cube of one output table
// has to surface as a divergence.
func TestReplayNetlistCatchesCorruption(t *testing.T) {
	fm, text := replayFixture(t)
	corrupted, changed := corruptOutputTable(text)
	if !changed {
		t.Fatalf("fixture netlist has no output cube to corrupt:\n%s", text)
	}
	err := ReplayNetlist(fm, mustNetlist(t, corrupted), 16, 64, 1)
	if err == nil {
		t.Fatalf("replay accepted a corrupted netlist:\noriginal:\n%s\ncorrupted:\n%s", text, corrupted)
	}
	if !strings.Contains(err.Error(), "netlist outputs") {
		t.Fatalf("unexpected error %q", err)
	}
}

// TestReplayNetlistWrongReset pins the latch-init path: a netlist whose
// registers start in the wrong state must diverge.
func TestReplayNetlistWrongReset(t *testing.T) {
	fm, text := replayFixture(t)
	flipped := strings.Replace(text, ".latch ns0 st0 0", ".latch ns0 st0 1", 1)
	if flipped == text {
		flipped = strings.Replace(text, ".latch ns0 st0 1", ".latch ns0 st0 0", 1)
	}
	if flipped == text {
		t.Fatalf("no latch line found:\n%s", text)
	}
	if err := ReplayNetlist(fm, mustNetlist(t, flipped), 16, 64, 1); err == nil {
		t.Fatal("replay accepted a netlist with the wrong reset code")
	}
}

// corruptOutputTable flips the first literal of the first cube of the first
// out<o> table, returning the mutated text.
func corruptOutputTable(text string) (string, bool) {
	lines := strings.Split(text, "\n")
	inOut := false
	for i, line := range lines {
		if strings.HasPrefix(line, ".names ") {
			inOut = strings.Contains(line, " out")
			continue
		}
		if !inOut || strings.HasPrefix(line, ".") || line == "" {
			continue
		}
		row := []byte(line)
		switch row[0] {
		case '1':
			row[0] = '0'
		case '0':
			row[0] = '1'
		default:
			row[0] = '0'
		}
		lines[i] = string(row)
		return strings.Join(lines, "\n"), true
	}
	return text, false
}

// A walk step — one machine step and one netlist cycle — allocates
// nothing: a whole 64-step walk is measured.
func TestReplayWalkAllocationFree(t *testing.T) {
	fm, text := replayFixture(t)
	r, err := newReplay(fm, mustNetlist(t, text))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	allocs := testing.AllocsPerRun(50, func() {
		if err := r.walk(rng, 0, 64); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a 64-step replay walk allocates %v times, want 0", allocs)
	}
}

// An output may be a latch output itself. Replay samples it before the
// clock edge, so a Moore machine whose output is its state bit replays,
// and the same netlist started in the other state diverges at once.
func TestReplayLatchDrivenOutput(t *testing.T) {
	m, err := kiss.ParseString(".i 1\n.o 1\n0 off off 0\n1 off on 0\n0 on on 1\n1 on off 1\n")
	if err != nil {
		t.Fatal(err)
	}
	const moore = ".model moore\n.inputs in0\n.outputs out0\n.latch ns0 out0 %d\n.names in0 out0 ns0\n10 1\n01 1\n.end\n"
	if err := ReplayNetlist(m, mustNetlist(t, fmt.Sprintf(moore, 0)), 8, 32, 1); err != nil {
		t.Fatal(err)
	}
	err = ReplayNetlist(m, mustNetlist(t, fmt.Sprintf(moore, 1)), 8, 32, 1)
	if err == nil || !strings.Contains(err.Error(), "sequence 0 step 0") {
		t.Fatalf("wrong initial state: got %v, want a divergence at sequence 0 step 0", err)
	}
}

// Netlists built in memory rather than parsed can carry cubes the parser
// would reject: a cube narrower or wider than its table is an error, and a
// zero-input table with an (empty) cube is the constant 1.
func TestNetlistSimInMemoryTables(t *testing.T) {
	bad := &blif.Netlist{
		Inputs:  []string{"a", "b"},
		Outputs: []string{"y"},
		Tables:  []blif.Table{{Inputs: []string{"a", "b"}, Output: "y", Cubes: []string{"1"}}},
	}
	if _, err := NewNetlistSim(bad); err == nil || !strings.Contains(err.Error(), "width 1, want 2") {
		t.Fatalf("narrow cube: got %v", err)
	}
	one := &blif.Netlist{
		Outputs: []string{"y", "z"},
		Tables:  []blif.Table{{Output: "y", Cubes: []string{""}}, {Output: "z"}},
	}
	s, err := NewNetlistSim(one)
	if err != nil {
		t.Fatal(err)
	}
	if outs := s.Step(nil); !outs["y"] || outs["z"] {
		t.Fatalf("constant tables: got %v, want y=1 z=0", outs)
	}
}
