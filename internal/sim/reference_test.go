package sim_test

import (
	"fmt"
	"math/rand"

	"repro/internal/blif"
	"repro/internal/fsm"
)

// This file keeps the map-based netlist evaluator and the transition-scan
// symbolic step that the compiled simulator replaced, unchanged but for
// their names, as the reference oracle of the differential tests:
// sim.ReplayNetlist must return refReplayNetlist's verdict byte for byte.

// refNetlistSim evaluates a netlist by name, memoizing signal values in a
// map and recursing from the outputs and latch inputs each cycle.
type refNetlistSim struct {
	nl      *blif.Netlist
	tables  map[string]*blif.Table // combinational driver per signal
	latchOf map[string]*blif.Latch // register driver per signal
	state   map[string]bool        // current latch outputs
}

func newRefNetlistSim(nl *blif.Netlist) (*refNetlistSim, error) {
	s := &refNetlistSim{
		nl:      nl,
		tables:  make(map[string]*blif.Table, len(nl.Tables)),
		latchOf: make(map[string]*blif.Latch, len(nl.Latches)),
		state:   make(map[string]bool, len(nl.Latches)),
	}
	driven := map[string]bool{}
	for _, in := range nl.Inputs {
		if driven[in] {
			return nil, fmt.Errorf("sim: duplicate input %s", in)
		}
		driven[in] = true
	}
	for i := range nl.Latches {
		l := &nl.Latches[i]
		if driven[l.Output] {
			return nil, fmt.Errorf("sim: signal %s has multiple drivers", l.Output)
		}
		driven[l.Output] = true
		if l.Init != 0 && l.Init != 1 {
			return nil, fmt.Errorf("sim: latch %s has unspecified initial value", l.Output)
		}
		s.latchOf[l.Output] = l
		s.state[l.Output] = l.Init == 1
	}
	for i := range nl.Tables {
		t := &nl.Tables[i]
		if driven[t.Output] {
			return nil, fmt.Errorf("sim: signal %s has multiple drivers", t.Output)
		}
		driven[t.Output] = true
		s.tables[t.Output] = t
	}
	for _, out := range nl.Outputs {
		if !driven[out] {
			return nil, fmt.Errorf("sim: output %s is undriven", out)
		}
	}
	for _, l := range nl.Latches {
		if !driven[l.Input] {
			return nil, fmt.Errorf("sim: latch input %s is undriven", l.Input)
		}
	}
	for _, t := range nl.Tables {
		for _, in := range t.Inputs {
			if !driven[in] {
				return nil, fmt.Errorf("sim: table input %s is undriven", in)
			}
		}
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(sig string) error
	visit = func(sig string) error {
		t, ok := s.tables[sig]
		if !ok {
			return nil
		}
		switch color[sig] {
		case gray:
			return fmt.Errorf("sim: combinational cycle through %s", sig)
		case black:
			return nil
		}
		color[sig] = gray
		for _, in := range t.Inputs {
			if err := visit(in); err != nil {
				return err
			}
		}
		color[sig] = black
		return nil
	}
	for _, t := range nl.Tables {
		if err := visit(t.Output); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *refNetlistSim) reset() {
	for _, l := range s.nl.Latches {
		s.state[l.Output] = l.Init == 1
	}
}

func (s *refNetlistSim) step(inputs map[string]bool) map[string]bool {
	values := make(map[string]bool, len(s.state)+len(s.nl.Inputs)+len(s.tables))
	for _, sig := range s.nl.Inputs {
		values[sig] = false
	}
	for sig, v := range s.state {
		values[sig] = v
	}
	for sig, v := range inputs {
		values[sig] = v
	}
	var eval func(sig string) bool
	eval = func(sig string) bool {
		if v, ok := values[sig]; ok {
			return v
		}
		t := s.tables[sig]
		v := false
		for _, cube := range t.Cubes {
			match := true
			for i, in := range t.Inputs {
				bit := eval(in)
				if cube[i] == '1' && !bit || cube[i] == '0' && bit {
					match = false
					break
				}
			}
			if match {
				v = true
				break
			}
		}
		values[sig] = v
		return v
	}
	outs := make(map[string]bool, len(s.nl.Outputs))
	for _, out := range s.nl.Outputs {
		outs[out] = eval(out)
	}
	next := make(map[string]bool, len(s.nl.Latches))
	for _, l := range s.nl.Latches {
		next[l.Output] = eval(l.Input)
	}
	for sig, v := range next {
		s.state[sig] = v
	}
	return outs
}

func refReplayNetlist(m *fsm.FSM, nl *blif.Netlist, sequences, length int, seed int64) error {
	if err := m.Validate(); err != nil {
		return err
	}
	sim, err := newRefNetlistSim(nl)
	if err != nil {
		return err
	}
	byState := make([][]int, m.NumStates())
	for i, t := range m.Trans {
		byState[t.From] = append(byState[t.From], i)
	}
	if m.Reset < 0 || m.Reset >= m.NumStates() {
		return fmt.Errorf("sim: machine %s has no usable reset state", m.Name)
	}
	rng := rand.New(rand.NewSource(seed))
	for seq := 0; seq < sequences; seq++ {
		sim.reset()
		state := m.Reset
		for step := 0; step < length; step++ {
			choices := byState[state]
			if len(choices) == 0 {
				break
			}
			ti := choices[rng.Intn(len(choices))]
			in := refRandomMinterm(rng, m.Trans[ti].In)
			next, want, err := refSymbolicStep(m, state, in)
			if err != nil {
				return err
			}
			inputs := make(map[string]bool, m.NumInputs)
			for b := 0; b < m.NumInputs; b++ {
				inputs[fmt.Sprintf("in%d", b)] = in&(1<<uint(b)) != 0
			}
			outs := sim.step(inputs)
			mask := refSpecifiedMask(m, state, in)
			var got uint64
			for o := 0; o < m.NumOutputs; o++ {
				if outs[fmt.Sprintf("out%d", o)] {
					got |= 1 << uint(o)
				}
			}
			if got&mask != want&mask {
				return fmt.Errorf("sim: sequence %d step %d (state %s, input %0*b): netlist outputs %0*b, machine %0*b",
					seq, step, m.States.Name(state), m.NumInputs, in,
					m.NumOutputs, got, m.NumOutputs, want)
			}
			state = next
		}
	}
	return nil
}

func refRandomMinterm(rng *rand.Rand, cube string) uint64 {
	var m uint64
	for i := 0; i < len(cube); i++ {
		switch cube[i] {
		case '1':
			m |= 1 << uint(i)
		case '-':
			if rng.Intn(2) == 1 {
				m |= 1 << uint(i)
			}
		}
	}
	return m
}

func refSymbolicStep(m *fsm.FSM, state int, in uint64) (next int, out uint64, err error) {
	found := false
	for i, t := range m.Trans {
		if t.From != state || !m.InCube(i).ContainsMinterm(m.NumInputs, in) {
			continue
		}
		o := refOutBits(t.Out)
		if found && (next != t.To || out != o) {
			return 0, 0, fmt.Errorf("sim: state %s is non-deterministic on input %0*b",
				m.States.Name(state), m.NumInputs, in)
		}
		next, out, found = t.To, o, true
	}
	if !found {
		return 0, 0, fmt.Errorf("sim: state %s has no transition for input %0*b",
			m.States.Name(state), m.NumInputs, in)
	}
	return next, out, nil
}

func refOutBits(pattern string) uint64 {
	var o uint64
	for i := 0; i < len(pattern); i++ {
		if pattern[i] == '1' {
			o |= 1 << uint(i)
		}
	}
	return o
}

func refSpecifiedMask(m *fsm.FSM, state int, in uint64) uint64 {
	for i, t := range m.Trans {
		if t.From == state && m.InCube(i).ContainsMinterm(m.NumInputs, in) {
			var mask uint64
			for o := 0; o < m.NumOutputs; o++ {
				if t.Out[o] != '-' {
					mask |= 1 << uint(o)
				}
			}
			return mask
		}
	}
	return 0
}
