package sim

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/blif"
	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/hypercube"
	"repro/internal/kiss"
	"repro/internal/mv"
)

func toggler(t *testing.T) *fsm.FSM {
	t.Helper()
	m, err := kiss.ParseString(`
.i 1
.o 1
0 off off 0
1 off on  1
0 on  on  1
1 on  off 0
`)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// outputTrace steps the compiled machine from start over an input
// sequence and returns the asserted outputs of every step.
func outputTrace(m *fsm.FSM, start int, inputs []uint64) ([]uint64, error) {
	c := compileMachine(m)
	state := start
	outs := make([]uint64, 0, len(inputs))
	for _, in := range inputs {
		next, out, _, err := c.step(state, in)
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
		state = next
	}
	return outs, nil
}

// encodedNetlist lowers m through enc to the minimized PLA, emits it as
// BLIF and parses the text back: the netlist the pipeline replays.
func encodedNetlist(t *testing.T, m *fsm.FSM, enc *core.Encoding) *blif.Netlist {
	t.Helper()
	pla := m.Encode(enc)
	pla.Minimize()
	text, err := blif.FormatPLA(m, enc, pla)
	if err != nil {
		t.Fatal(err)
	}
	return mustNetlist(t, text)
}

func TestSymbolicStep(t *testing.T) {
	m := toggler(t)
	c := compileMachine(m)
	off, _ := m.States.Lookup("off")
	on, _ := m.States.Lookup("on")
	next, out, _, err := c.step(off, 1)
	if err != nil || next != on || out != 1 {
		t.Fatalf("step: next=%d out=%b err=%v", next, out, err)
	}
	next, out, _, err = c.step(on, 0)
	if err != nil || next != on || out != 1 {
		t.Fatalf("step: next=%d out=%b err=%v", next, out, err)
	}
}

func TestSymbolicStepErrors(t *testing.T) {
	m, err := kiss.ParseString(".i 1\n.o 1\n0 a a 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := compileMachine(m).step(0, 1); err == nil {
		t.Fatal("undefined input must error")
	}
	nd, err := kiss.ParseString(".i 1\n.o 1\n- a a 0\n1 a b 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := compileMachine(nd).step(0, 1); err == nil || !strings.Contains(err.Error(), "non-deterministic") {
		t.Fatalf("non-determinism must be detected, got %v", err)
	}
}

func TestMachineTrace(t *testing.T) {
	m := toggler(t)
	outs, err := outputTrace(m, 0, []uint64{1, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 1, 0, 1}
	for i := range want {
		if outs[i] != want[i] {
			t.Fatalf("trace %v, want %v", outs, want)
		}
	}
}

func TestHardwareMatchesMachine(t *testing.T) {
	m := toggler(t)
	enc := core.NewEncoding(m.States, 1, []hypercube.Code{0, 1})
	if err := ReplayNetlist(m, encodedNetlist(t, m, enc), 10, 30, 42); err != nil {
		t.Fatal(err)
	}
}

// TestEncodedSuiteEquivalence is the flow's strongest end-to-end check:
// the exact encoder's codes drive a netlist behaviorally equivalent to the
// symbolic machine.
func TestEncodedSuiteEquivalence(t *testing.T) {
	budgets := map[string]int{"dk512": 8, "master": 20, "exlinp": 40}
	for _, name := range []string{"dk512", "master", "exlinp"} {
		t.Run(name, func(t *testing.T) {
			m, err := fsm.GenerateByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cs := mv.GenerateConstraints(m, mv.OutputOptions{MaxDominance: budgets[name], MaxDisjunctive: 3})
			res, err := core.ExactEncodeCtx(context.Background(), cs, core.ExactOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := ReplayNetlist(m, encodedNetlist(t, m, res.Encoding), 5, 40, 7); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBrokenEncodingDetected: assigning two states the same code must make
// the netlist diverge, and the replay must notice.
func TestBrokenEncodingDetected(t *testing.T) {
	m := toggler(t)
	enc := core.NewEncoding(m.States, 1, []hypercube.Code{0, 0})
	err := ReplayNetlist(m, encodedNetlist(t, m, enc), 5, 20, 1)
	if err == nil || !strings.Contains(err.Error(), "netlist outputs") {
		t.Fatalf("duplicate codes must break equivalence, got %v", err)
	}
}

func TestDontCareOutputsIgnored(t *testing.T) {
	m, err := kiss.ParseString(`
.i 1
.o 2
0 a a 0-
1 a b 10
- b a 01
`)
	if err != nil {
		t.Fatal(err)
	}
	enc := core.NewEncoding(m.States, 1, []hypercube.Code{0, 1})
	if err := ReplayNetlist(m, encodedNetlist(t, m, enc), 5, 20, 3); err != nil {
		t.Fatalf("don't-care outputs must not cause mismatches: %v", err)
	}
}

// TestMinimizedMachineEquivalent: the state-minimized quotient machine
// must produce identical output traces to the original.
func TestMinimizedMachineEquivalent(t *testing.T) {
	for _, name := range []string{"dk512", "master", "bbsse", "donfile"} {
		m, err := fsm.GenerateByName(name)
		if err != nil {
			t.Fatal(err)
		}
		q, _, err := fsm.MinimizeStates(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rngSeed := int64(11)
		inputs := randomInputs(m.NumInputs, 60, rngSeed)
		want, err := outputTrace(m, m.Reset, inputs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := outputTrace(q, q.Reset, inputs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s: traces diverge at step %d: %b vs %b", name, i, want[i], got[i])
			}
		}
	}
}

func randomInputs(width, length int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]uint64, length)
	for i := range out {
		out[i] = uint64(rng.Intn(1 << uint(width)))
	}
	return out
}
