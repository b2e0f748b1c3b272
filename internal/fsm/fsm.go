// Package fsm provides the finite-state-machine substrate: the transition
// table model the encoding flow consumes, the encoded-PLA back-end, and the
// deterministic synthetic benchmark suite standing in for the MCNC machines
// the paper evaluates on.
package fsm

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/espresso"
	"repro/internal/sym"
)

// Transition is one row of a symbolic state transition table.
type Transition struct {
	// In is the primary-input cube over {0,1,-}.
	In string
	// From and To index the state table.
	From, To int
	// Out is the primary-output part over {0,1,-}.
	Out string
}

// FSM is a symbolic finite state machine.
type FSM struct {
	Name       string
	NumInputs  int
	NumOutputs int
	States     *sym.Table
	Reset      int
	Trans      []Transition
}

// New returns an empty machine.
func New(name string, inputs, outputs int) *FSM {
	return &FSM{Name: name, NumInputs: inputs, NumOutputs: outputs, States: sym.NewTable()}
}

// AddTransition appends a transition, interning state names.
func (m *FSM) AddTransition(in, from, to, out string) {
	m.Trans = append(m.Trans, Transition{
		In:   in,
		From: m.States.Intern(from),
		To:   m.States.Intern(to),
		Out:  out,
	})
}

// NumStates returns the state count.
func (m *FSM) NumStates() int { return m.States.Len() }

// Validate checks structural sanity of the table. A machine needs at
// least one state: its reset state.
func (m *FSM) Validate() error {
	if m.NumStates() == 0 {
		return fmt.Errorf("fsm %s: machine has no states", m.Name)
	}
	for i, t := range m.Trans {
		if len(t.In) != m.NumInputs {
			return fmt.Errorf("fsm %s: transition %d input width %d != %d", m.Name, i, len(t.In), m.NumInputs)
		}
		if len(t.Out) != m.NumOutputs {
			return fmt.Errorf("fsm %s: transition %d output width %d != %d", m.Name, i, len(t.Out), m.NumOutputs)
		}
		if t.From < 0 || t.From >= m.NumStates() || t.To < 0 || t.To >= m.NumStates() {
			return fmt.Errorf("fsm %s: transition %d references unknown state", m.Name, i)
		}
	}
	return nil
}

// InCube converts transition i's input part to an espresso cube.
func (m *FSM) InCube(i int) espresso.Cube {
	return espresso.ParseCube(m.Trans[i].In)
}

// Deterministic reports whether no two transitions from the same state have
// overlapping input cubes with different (next state, output).
func (m *FSM) Deterministic() bool {
	for i := range m.Trans {
		for j := i + 1; j < len(m.Trans); j++ {
			a, b := m.Trans[i], m.Trans[j]
			if a.From != b.From {
				continue
			}
			if a.To == b.To && a.Out == b.Out {
				continue
			}
			if m.InCube(i).Intersects(m.NumInputs, m.InCube(j)) {
				return false
			}
		}
	}
	return true
}

// EncodedPLA is the two-level implementation of an encoded machine: a
// multi-output cover over (primary inputs + state bits), asserting (state
// bits of the next state + primary outputs).
type EncodedPLA struct {
	NumInputs  int // primary inputs + state bits
	NumOutputs int // state bits + primary outputs
	Rows       []PLARow
}

// PLARow is one product term.
type PLARow struct {
	In  espresso.Cube
	Out uint64 // asserted outputs, bit o set when output o is 1
}

// Encode lowers the machine through an encoding into a PLA cover: each
// transition contributes one row whose input part concatenates the primary
// input cube with the present state's code and whose output part asserts
// the next state's code bits plus the 1-outputs.
func (m *FSM) Encode(enc *core.Encoding) *EncodedPLA {
	bits := enc.Bits
	pla := &EncodedPLA{
		NumInputs:  m.NumInputs + bits,
		NumOutputs: bits + m.NumOutputs,
	}
	for i, t := range m.Trans {
		in := m.InCube(i)
		// Append state code bits as fixed literals after the inputs.
		code := enc.Codes[t.From]
		for b := 0; b < bits; b++ {
			v := uint64(1) << uint(m.NumInputs+b)
			if code&(1<<uint(b)) != 0 {
				in.O |= v
			} else {
				in.Z |= v
			}
		}
		var out uint64
		next := enc.Codes[t.To]
		for b := 0; b < bits; b++ {
			if next&(1<<uint(b)) != 0 {
				out |= 1 << uint(b)
			}
		}
		for o := 0; o < m.NumOutputs; o++ {
			if t.Out[o] == '1' {
				out |= 1 << uint(bits+o)
			}
		}
		pla.Rows = append(pla.Rows, PLARow{In: in, Out: out})
	}
	return pla
}

// MergeRows merges rows with identical input cubes (OR-ing outputs).
// Rows asserting nothing are kept: they pin down input regions where the
// outputs are specified 0, which the minimizer needs as off-set context.
// Use DropEmpty before emitting a final PLA.
func (p *EncodedPLA) MergeRows() {
	byCube := map[espresso.Cube]int{}
	var rows []PLARow
	for _, r := range p.Rows {
		if i, ok := byCube[r.In]; ok {
			rows[i].Out |= r.Out
		} else {
			byCube[r.In] = len(rows)
			rows = append(rows, r)
		}
	}
	p.Rows = rows
}

// DropEmpty removes rows that assert no output.
func (p *EncodedPLA) DropEmpty() {
	var rows []PLARow
	for _, r := range p.Rows {
		if r.Out != 0 {
			rows = append(rows, r)
		}
	}
	p.Rows = rows
}

// Minimize performs per-output two-level minimization with input sharing:
// each output's on-set is minimized independently against its off-set, and
// the resulting cubes are re-shared across outputs by identical input
// parts. This approximates full multiple-output minimization. Splitting a
// many-output row into per-output rows can lose sharing, so the result is
// kept only when it is no larger than the merged original cover.
func (p *EncodedPLA) Minimize() {
	p.MergeRows()
	original := append([]PLARow(nil), p.Rows...)
	n := p.NumInputs
	var shared []PLARow
	for o := 0; o < p.NumOutputs; o++ {
		bit := uint64(1) << uint(o)
		on := espresso.NewCover(n)
		off := espresso.NewCover(n)
		for _, r := range p.Rows {
			if r.Out&bit != 0 {
				on.Add(r.In)
			} else {
				off.Add(r.In) // rows fully specify their outputs: 0 here
			}
		}
		if on.Size() == 0 {
			continue
		}
		// Input space covered by no row at all is don't care.
		min := espresso.Minimize(on, nil, subtractApprox(off, on))
		for _, c := range min.Cubes {
			shared = append(shared, PLARow{In: c, Out: bit})
		}
	}
	candidate := &EncodedPLA{NumInputs: p.NumInputs, NumOutputs: p.NumOutputs, Rows: shared}
	candidate.MergeRows()
	candidate.DropEmpty()
	p.Rows = original
	p.DropEmpty()
	if len(candidate.Rows) <= len(p.Rows) {
		p.Rows = candidate.Rows
	}
}

// subtractApprox removes from off the cubes contained in on; a conservative
// off-set approximation keeping expansion sound.
func subtractApprox(off, on *espresso.Cover) *espresso.Cover {
	out := espresso.NewCover(off.N)
	for _, c := range off.Cubes {
		if !on.CoversCube(c) {
			out.Add(c)
		}
	}
	return out
}

// Cubes returns the product-term count.
func (p *EncodedPLA) Cubes() int { return len(p.Rows) }

// Literals returns the input literal count of the cover.
func (p *EncodedPLA) Literals() int {
	total := 0
	for _, r := range p.Rows {
		total += r.In.Literals(p.NumInputs)
	}
	return total
}

// String renders the PLA in espresso .type fr-ish form.
func (p *EncodedPLA) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, ".i %d\n.o %d\n.p %d\n", p.NumInputs, p.NumOutputs, len(p.Rows))
	for _, r := range p.Rows {
		b.WriteString(r.In.String(p.NumInputs))
		b.WriteByte(' ')
		for o := 0; o < p.NumOutputs; o++ {
			if r.Out&(1<<uint(o)) != 0 {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString(".e\n")
	return b.String()
}
