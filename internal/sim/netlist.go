package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/blif"
	"repro/internal/fsm"
)

// NetlistSim simulates a parsed BLIF netlist cycle by cycle: combinational
// .names tables are evaluated in topological order each cycle, and .latch
// registers load their input signals at the clock edge. It is the back end
// of the pipeline's replay verifier: unlike Hardware, which re-evaluates the
// in-memory PLA, NetlistSim consumes only the textual netlist, so a
// divergence implicates the BLIF emission itself.
//
// NewNetlistSim compiles the netlist once. Every signal name resolves to a
// dense index into one value vector, and every cube becomes a care mask and
// a value mask over its table's packed input vector, so a cycle is mask
// compares over slices with no map lookup and no allocation.
type NetlistSim struct {
	nl      *blif.Netlist
	index   map[string]int // signal name → position in vals
	inputs  []int          // primary inputs
	outputs []int          // primary outputs, in .outputs order
	latches []latch
	tables  []table  // topological order: each driver before its readers
	state   []uint64 // current latch outputs, per latch, 0 or 1
	vals    []uint64 // signal values of the cycle being evaluated, 0 or 1
	packed  []uint64 // a table's input vector, packed 64 inputs a word
}

type latch struct {
	in, out int
	init    uint64
}

// table is a compiled .names node. Cube c occupies words
// [c*words, (c+1)*words) of care and value; input i is bit i%64 of word
// i/64. The cube matches when every word of the packed input vector agrees
// with value on care. A zero-input table still takes one word, all don't
// care, so a cube there matches: the constant 1.
type table struct {
	out   int
	in    []int
	words int
	care  []uint64
	value []uint64
	held  bool // the caller sets out each cycle; the table is not evaluated
}

// NewNetlistSim builds a simulator, validating that every signal has
// exactly one driver, latch initial values are specified, every cube is as
// wide as its table, and the combinational logic is acyclic.
func NewNetlistSim(nl *blif.Netlist) (*NetlistSim, error) {
	s := &NetlistSim{
		nl:    nl,
		index: make(map[string]int, len(nl.Inputs)+len(nl.Latches)+len(nl.Tables)),
	}
	var driver []int // per signal: its table in nl.Tables, or -1 for a source
	drive := func(name string, tbl int) bool {
		if _, ok := s.index[name]; ok {
			return false
		}
		s.index[name] = len(driver)
		driver = append(driver, tbl)
		return true
	}
	for _, in := range nl.Inputs {
		if !drive(in, -1) {
			return nil, fmt.Errorf("sim: duplicate input %s", in)
		}
		s.inputs = append(s.inputs, s.index[in])
	}
	for _, l := range nl.Latches {
		if !drive(l.Output, -1) {
			return nil, fmt.Errorf("sim: signal %s has multiple drivers", l.Output)
		}
		if l.Init != 0 && l.Init != 1 {
			return nil, fmt.Errorf("sim: latch %s has unspecified initial value", l.Output)
		}
		s.latches = append(s.latches, latch{out: s.index[l.Output], init: uint64(l.Init)})
	}
	for i, t := range nl.Tables {
		if !drive(t.Output, i) {
			return nil, fmt.Errorf("sim: signal %s has multiple drivers", t.Output)
		}
	}
	for _, out := range nl.Outputs {
		sig, ok := s.index[out]
		if !ok {
			return nil, fmt.Errorf("sim: output %s is undriven", out)
		}
		s.outputs = append(s.outputs, sig)
	}
	for i, l := range nl.Latches {
		sig, ok := s.index[l.Input]
		if !ok {
			return nil, fmt.Errorf("sim: latch input %s is undriven", l.Input)
		}
		s.latches[i].in = sig
	}
	words := 1
	for _, t := range nl.Tables {
		for _, in := range t.Inputs {
			if _, ok := s.index[in]; !ok {
				return nil, fmt.Errorf("sim: table input %s is undriven", in)
			}
		}
		for _, cube := range t.Cubes {
			if len(cube) != len(t.Inputs) {
				return nil, fmt.Errorf("sim: table %s cube %q has width %d, want %d", t.Output, cube, len(cube), len(t.Inputs))
			}
		}
		words = max(words, (len(t.Inputs)+63)/64)
	}
	// Cycle check and topological order in one depth-first pass over the
	// combinational dependency graph: a table is compiled after all of its
	// inputs' drivers.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, len(driver))
	var visit func(sig int) error
	visit = func(sig int) error {
		tbl := driver[sig]
		if tbl < 0 {
			return nil // primary input or latch output: a source
		}
		t := &nl.Tables[tbl]
		switch color[sig] {
		case gray:
			return fmt.Errorf("sim: combinational cycle through %s", t.Output)
		case black:
			return nil
		}
		color[sig] = gray
		for _, in := range t.Inputs {
			if err := visit(s.index[in]); err != nil {
				return err
			}
		}
		color[sig] = black
		s.tables = append(s.tables, s.compile(sig, t))
		return nil
	}
	for _, t := range nl.Tables {
		if err := visit(s.index[t.Output]); err != nil {
			return nil, err
		}
	}
	s.state = make([]uint64, len(s.latches))
	s.vals = make([]uint64, len(driver))
	s.packed = make([]uint64, words)
	s.Reset()
	return s, nil
}

// compile resolves a table's input names and lowers its cubes to masks.
func (s *NetlistSim) compile(out int, t *blif.Table) table {
	words := max(1, (len(t.Inputs)+63)/64)
	c := table{
		out:   out,
		in:    make([]int, len(t.Inputs)),
		words: words,
		care:  make([]uint64, len(t.Cubes)*words),
		value: make([]uint64, len(t.Cubes)*words),
	}
	for i, name := range t.Inputs {
		c.in[i] = s.index[name]
	}
	for k, cube := range t.Cubes {
		for i := 0; i < len(cube); i++ {
			w, bit := k*words+i/64, uint64(1)<<uint(i%64)
			switch cube[i] {
			case '0':
				c.care[w] |= bit
			case '1':
				c.care[w] |= bit
				c.value[w] |= bit
			}
		}
	}
	return c
}

// Reset returns every latch to its initial value.
func (s *NetlistSim) Reset() {
	for i, l := range s.latches {
		s.state[i] = l.init
	}
}

// hold marks the signals the caller sets after begin in every following
// cycle: their drivers are skipped, so the caller's value wins.
func (s *NetlistSim) hold(sigs []int) {
	held := make([]bool, len(s.vals))
	for _, sig := range sigs {
		held[sig] = true
	}
	for i := range s.tables {
		s.tables[i].held = held[s.tables[i].out]
	}
}

// begin starts a cycle: primary inputs read 0, latch outputs their state.
// The caller then sets the signals it holds and calls settle.
func (s *NetlistSim) begin() {
	for _, sig := range s.inputs {
		s.vals[sig] = 0
	}
	for i, l := range s.latches {
		s.vals[l.out] = s.state[i]
	}
}

// settle evaluates every table the caller does not hold, drivers first.
func (s *NetlistSim) settle() {
	for i := range s.tables {
		t := &s.tables[i]
		if t.held {
			continue
		}
		x := s.packed[:t.words]
		for w := range x {
			var word uint64
			for j, sig := range t.in[w*64 : min(len(t.in), w*64+64)] {
				word |= s.vals[sig] << uint(j)
			}
			x[w] = word
		}
		v := uint64(0)
	cubes:
		for c := 0; c < len(t.care); c += t.words {
			for w, xw := range x {
				if xw&t.care[c+w] != t.value[c+w] {
					continue cubes
				}
			}
			v = 1
			break
		}
		s.vals[t.out] = v
	}
}

// clock is the clock edge: every latch loads its input signal.
func (s *NetlistSim) clock() {
	for i, l := range s.latches {
		s.state[i] = s.vals[l.in]
	}
}

// Step clocks the netlist once: inputs maps signal names to values — a
// primary input absent from the map reads 0, and a named signal of any
// other kind is held at the given value over its driver — the return maps
// each primary output name to its combinational value before the clock
// edge, and all latches load their input signals afterwards.
func (s *NetlistSim) Step(inputs map[string]bool) map[string]bool {
	sigs := make([]int, 0, len(inputs))
	for name := range inputs {
		if sig, ok := s.index[name]; ok {
			sigs = append(sigs, sig)
		}
	}
	s.hold(sigs)
	s.begin()
	for name, v := range inputs {
		if sig, ok := s.index[name]; ok {
			s.vals[sig] = 0
			if v {
				s.vals[sig] = 1
			}
		}
	}
	s.settle()
	outs := make(map[string]bool, len(s.outputs))
	for i, sig := range s.outputs {
		outs[s.nl.Outputs[i]] = s.vals[sig] == 1
	}
	s.clock()
	return outs
}

// ReplayNetlist drives the symbolic machine and the synthesized netlist
// with the same random input walks and compares output traces, masking
// output bits the machine leaves unspecified ('-'). Walks follow defined
// transitions only — at each step a random transition out of the current
// symbolic state is chosen and a random minterm of its input cube applied —
// so incompletely specified machines replay without touching undefined
// input space. Primary inputs are named in<i>, outputs out<o>, matching
// blif.WriteEncoded. It returns an error describing the first divergence.
func ReplayNetlist(m *fsm.FSM, nl *blif.Netlist, sequences, length int, seed int64) error {
	r, err := newReplay(m, nl)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	for seq := 0; seq < sequences; seq++ {
		if err := r.walk(rng, seq, length); err != nil {
			return err
		}
	}
	return nil
}

// replay is ReplayNetlist compiled: the machine, the netlist, and the
// netlist signals a walk drives and samples.
type replay struct {
	mach *machine
	net  *NetlistSim
	in   []int // per input bit b: the signal in<b>, or -1 if there is none
	out  []int // per output bit o: the primary output out<o>, or -1
}

func newReplay(m *fsm.FSM, nl *blif.Netlist) (*replay, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	net, err := NewNetlistSim(nl)
	if err != nil {
		return nil, err
	}
	if m.Reset < 0 || m.Reset >= m.NumStates() {
		return nil, fmt.Errorf("sim: machine %s has no usable reset state", m.Name)
	}
	r := &replay{mach: compileMachine(m), net: net, in: make([]int, m.NumInputs), out: make([]int, m.NumOutputs)}
	// A walk's in<b> values override whatever else drives those names.
	var held []int
	for b := range r.in {
		r.in[b] = -1
		if sig, ok := net.index[fmt.Sprintf("in%d", b)]; ok {
			r.in[b] = sig
			held = append(held, sig)
		}
	}
	net.hold(held)
	primary := make(map[string]int, len(nl.Outputs))
	for i, name := range nl.Outputs {
		primary[name] = net.outputs[i]
	}
	for o := range r.out {
		r.out[o] = -1
		if sig, ok := primary[fmt.Sprintf("out%d", o)]; ok {
			r.out[o] = sig
		}
	}
	return r, nil
}

// walk replays one random walk of up to length steps from the reset state.
func (r *replay) walk(rng *rand.Rand, seq, length int) error {
	m := r.mach.m
	r.net.Reset()
	state := m.Reset
	for step := 0; step < length; step++ {
		choices := r.mach.from[state]
		if len(choices) == 0 {
			break // dead-end state: the walk ends early
		}
		e := &choices[rng.Intn(len(choices))]
		in := randomMinterm(rng, m.Trans[e.trans].In)
		next, want, mask, err := r.mach.step(state, in)
		if err != nil {
			return err
		}
		got := r.cycle(in)
		if got&mask != want&mask {
			return fmt.Errorf("sim: sequence %d step %d (state %s, input %0*b): netlist outputs %0*b, machine %0*b",
				seq, step, m.States.Name(state), m.NumInputs, in,
				m.NumOutputs, got, m.NumOutputs, want)
		}
		state = next
	}
	return nil
}

// cycle clocks the netlist once on input vector in and returns the out<o>
// bits sampled before the edge.
func (r *replay) cycle(in uint64) uint64 {
	r.net.begin()
	for b, sig := range r.in {
		if sig >= 0 {
			r.net.vals[sig] = in >> uint(b) & 1
		}
	}
	r.net.settle()
	var got uint64
	for o, sig := range r.out {
		if sig >= 0 {
			got |= r.net.vals[sig] << uint(o)
		}
	}
	r.net.clock()
	return got
}

// randomMinterm picks a uniform random minterm of an input cube over
// {0,1,-}: fixed positions are kept, dashes flip a fair coin.
func randomMinterm(rng *rand.Rand, cube string) uint64 {
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
