// Package sim provides behavioral simulation of finite state machines and
// of their encoded two-level implementations, closing the verification loop
// of the encoding flow: after state assignment and PLA lowering, the
// encoded hardware (PLA + state register) must produce the same output
// trace as the symbolic machine on every input sequence.
//
// # Contract
//
// Three simulators, in increasing distance from the source machine:
// SymbolicStep/Machine replay the transition table itself (the oracle);
// Hardware evaluates the in-memory encoded PLA against a state register;
// NetlistSim consumes only a parsed BLIF netlist, so a divergence there
// implicates the textual emission, not just the encoding. The comparison
// drivers (Equivalent for Hardware, ReplayNetlist for NetlistSim) compare
// outputs under the machine's specified-bits mask, so output don't-cares
// never produce false divergences; ReplayNetlist walks random *defined*
// transitions only, so incompletely specified machines replay without
// ever touching undefined input space. All simulation is Mealy: outputs
// are sampled before the clock edge. Everything is deterministic under a
// fixed seed.
//
// # Compiled evaluation
//
// Both sides of a comparison are compiled once and then stepped without
// maps, string formatting or allocation. The machine becomes per-state
// transition lists with parsed input cubes and asserted/specified output
// masks; one step function over them defines the symbolic semantics for
// SymbolicStep, Machine, Equivalent and ReplayNetlist alike. A netlist
// becomes a dense signal vector, its .names tables in topological order,
// and each cube a care mask and a value mask over the table's packed
// inputs, one uint64 word per 64 inputs. The map-based evaluator this
// replaced is kept in the package tests as the reference the compiled
// replay must match verdict for verdict.
package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/espresso"
	"repro/internal/fsm"
	"repro/internal/hypercube"
)

// SymbolicStep runs the symbolic machine one step: given the current
// state and an input vector (bit i of in is primary input i), it returns
// the next state and the asserted outputs, or an error when the behavior
// is undefined (incompletely specified machine) or non-deterministic.
func SymbolicStep(m *fsm.FSM, state int, in uint64) (next int, out uint64, err error) {
	next, out, _, err = compileMachine(m).step(state, in)
	return next, out, err
}

// Machine simulates the symbolic machine over an input sequence, returning
// the output trace.
func Machine(m *fsm.FSM, start int, inputs []uint64) ([]uint64, error) {
	outs, _, err := compileMachine(m).run(start, inputs)
	return outs, err
}

// machine is a symbolic machine compiled for stepping: each state's
// outgoing transitions in table order, with input cubes parsed and output
// patterns reduced to bit masks once.
type machine struct {
	m    *fsm.FSM
	from [][]edge // per state
}

// edge is one compiled transition.
type edge struct {
	trans int // index in m.Trans
	in    espresso.Cube
	to    int
	out   uint64 // asserted outputs ('1')
	spec  uint64 // specified outputs (not '-')
}

func compileMachine(m *fsm.FSM) *machine {
	c := &machine{m: m, from: make([][]edge, m.NumStates())}
	for i, t := range m.Trans {
		if t.From < 0 || t.From >= len(c.from) {
			continue // an unknown state, which Validate rejects: never stepped from
		}
		var out, spec uint64
		for o := 0; o < len(t.Out); o++ {
			if t.Out[o] == '1' {
				out |= 1 << uint(o)
			}
			if t.Out[o] != '-' {
				spec |= 1 << uint(o)
			}
		}
		c.from[t.From] = append(c.from[t.From], edge{trans: i, in: m.InCube(i), to: t.To, out: out, spec: spec})
	}
	return c
}

// step is the one implementation of the machine's step semantics. Every
// transition out of state whose input cube contains in must agree on the
// next state and the asserted outputs; spec is the specified-output mask
// of the first of them in table order.
func (c *machine) step(state int, in uint64) (next int, out, spec uint64, err error) {
	var edges []edge
	if state >= 0 && state < len(c.from) {
		edges = c.from[state]
	}
	found := false
	for i := range edges {
		e := &edges[i]
		if !e.in.ContainsMinterm(c.m.NumInputs, in) {
			continue
		}
		if !found {
			next, out, spec, found = e.to, e.out, e.spec, true
		} else if next != e.to || out != e.out {
			return 0, 0, 0, fmt.Errorf("sim: state %s is non-deterministic on input %0*b",
				c.m.States.Name(state), c.m.NumInputs, in)
		}
	}
	if !found {
		return 0, 0, 0, fmt.Errorf("sim: state %s has no transition for input %0*b",
			c.m.States.Name(state), c.m.NumInputs, in)
	}
	return next, out, spec, nil
}

// run steps the machine from start over an input sequence, returning the
// asserted and the specified outputs of every step.
func (c *machine) run(start int, inputs []uint64) (outs, spec []uint64, err error) {
	state := start
	outs = make([]uint64, 0, len(inputs))
	spec = make([]uint64, 0, len(inputs))
	for _, in := range inputs {
		next, out, mask, err := c.step(state, in)
		if err != nil {
			return nil, nil, err
		}
		outs = append(outs, out)
		spec = append(spec, mask)
		state = next
	}
	return outs, spec, nil
}

// Hardware simulates the encoded implementation: a PLA evaluated
// combinationally, feeding a state register holding the current state
// code. It returns the primary-output trace.
type Hardware struct {
	PLA       *fsm.EncodedPLA
	Bits      int // state-register width
	NumInputs int // primary inputs
	State     hypercube.Code
}

// NewHardware builds the encoded implementation of machine m under enc,
// minimizing the PLA.
func NewHardware(m *fsm.FSM, enc *core.Encoding, start int) *Hardware {
	pla := m.Encode(enc)
	pla.Minimize()
	return &Hardware{
		PLA:       pla,
		Bits:      enc.Bits,
		NumInputs: m.NumInputs,
		State:     enc.Codes[start],
	}
}

// Step clocks the hardware once with the given primary inputs and returns
// the asserted primary outputs.
func (h *Hardware) Step(in uint64) uint64 {
	point := in | uint64(h.State)<<uint(h.NumInputs)
	var asserted uint64
	for _, r := range h.PLA.Rows {
		if r.In.ContainsMinterm(h.PLA.NumInputs, point) {
			asserted |= r.Out
		}
	}
	h.State = hypercube.Code(asserted) & (hypercube.Code(1)<<uint(h.Bits) - 1)
	return asserted >> uint(h.Bits)
}

// Run simulates the hardware over an input sequence.
func (h *Hardware) Run(inputs []uint64) []uint64 {
	outs := make([]uint64, 0, len(inputs))
	for _, in := range inputs {
		outs = append(outs, h.Step(in))
	}
	return outs
}

// Equivalent drives both the symbolic machine and its encoded hardware
// with the same random input sequences and compares the output traces.
// It returns an error describing the first divergence. Machines with
// output don't-cares ('-') are compared only on their specified bits.
func Equivalent(m *fsm.FSM, enc *core.Encoding, sequences, length int, seed int64) error {
	c := compileMachine(m)
	rng := rand.New(rand.NewSource(seed))
	limit := uint64(1) << uint(m.NumInputs)
	for s := 0; s < sequences; s++ {
		inputs := make([]uint64, length)
		for i := range inputs {
			inputs[i] = uint64(rng.Intn(int(limit)))
		}
		want, spec, err := c.run(m.Reset, inputs)
		if err != nil {
			return err
		}
		hw := NewHardware(m, enc, m.Reset)
		got := hw.Run(inputs)
		for i, mask := range spec {
			if got[i]&mask != want[i]&mask {
				return fmt.Errorf("sim: sequence %d step %d: hardware outputs %0*b, machine %0*b",
					s, i, m.NumOutputs, got[i], m.NumOutputs, want[i])
			}
		}
	}
	return nil
}
