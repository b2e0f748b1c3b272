// Package sim provides behavioral simulation of finite state machines and
// of their synthesized netlists, closing the verification loop of the
// encoding flow: after state assignment, PLA lowering and BLIF emission,
// the netlist (PLA + state register) must produce the same output trace as
// the symbolic machine on every input sequence.
//
// # Contract
//
// Two simulators: the machine oracle replays the transition table itself,
// and NetlistSim consumes only a parsed BLIF netlist, so a divergence there
// implicates the encoding or the textual emission. ReplayNetlist compares
// the two under the machine's specified-bits mask, so output don't-cares
// never produce false divergences, and walks random *defined* transitions
// only, so incompletely specified machines replay without ever touching
// undefined input space. All simulation is Mealy: outputs are sampled
// before the clock edge. Everything is deterministic under a fixed seed.
//
// # Compiled evaluation
//
// Both sides of a comparison are compiled once and then stepped without
// maps, string formatting or allocation. The machine becomes per-state
// transition lists with parsed input cubes and asserted/specified output
// masks; one step function over them defines the symbolic semantics. A
// netlist becomes a dense signal vector, its .names tables in topological
// order, and each cube a care mask and a value mask over the table's packed
// inputs, one uint64 word per 64 inputs. The map-based evaluator this
// replaced is kept in the package tests as the reference the compiled
// replay must match verdict for verdict.
package sim

import (
	"fmt"

	"repro/internal/espresso"
	"repro/internal/fsm"
)

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
