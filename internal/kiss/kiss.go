// Package kiss reads and writes finite state machines in the KISS2 format
// used by the MCNC benchmark suite the paper evaluates on.
//
//	.i 2          number of primary inputs
//	.o 1          number of primary outputs
//	.s 4          number of states (optional)
//	.p 8          number of transitions (optional)
//	.r st0        reset state (optional)
//	01 st0 st1 1  transition: input-cube present next output-bits
//	.e            end marker (optional)
//
// Input cubes use 0/1/-; output bits use 0/1/- (dash = don't care).
package kiss

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/fsm"
)

// Parse reads a KISS2 description.
func Parse(r io.Reader) (*fsm.FSM, error) {
	m := fsm.New("", 0, 0)
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<22)
	lineNo := 0
	declaredStates, declaredTerms := -1, -1
	resetName := ""
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if strings.HasPrefix(fields[0], ".") {
			switch fields[0] {
			case ".i", ".o", ".s", ".p":
				if len(fields) != 2 {
					return nil, fmt.Errorf("kiss: line %d: %s wants one argument", lineNo, fields[0])
				}
				v, err := strconv.Atoi(fields[1])
				if err != nil {
					return nil, fmt.Errorf("kiss: line %d: %v", lineNo, err)
				}
				switch fields[0] {
				case ".i":
					// Transitions are checked against the declared widths as
					// they are read, so a late redeclaration would let an
					// inconsistent machine through (found by fuzzing:
					// ".o 0" after a 1-output transition).
					if len(m.Trans) > 0 && v != m.NumInputs {
						return nil, fmt.Errorf("kiss: line %d: .i %d after transitions with %d inputs", lineNo, v, m.NumInputs)
					}
					m.NumInputs = v
				case ".o":
					if len(m.Trans) > 0 && v != m.NumOutputs {
						return nil, fmt.Errorf("kiss: line %d: .o %d after transitions with %d outputs", lineNo, v, m.NumOutputs)
					}
					m.NumOutputs = v
				case ".s":
					declaredStates = v
				case ".p":
					declaredTerms = v
				}
			case ".r":
				if len(fields) != 2 {
					return nil, fmt.Errorf("kiss: line %d: .r wants one argument", lineNo)
				}
				resetName = fields[1]
			case ".e", ".end":
				// end marker
			default:
				return nil, fmt.Errorf("kiss: line %d: unknown directive %s", lineNo, fields[0])
			}
			continue
		}
		if len(fields) != 4 {
			return nil, fmt.Errorf("kiss: line %d: transition wants 4 fields, got %d", lineNo, len(fields))
		}
		in, from, to, out := fields[0], fields[1], fields[2], fields[3]
		if len(in) != m.NumInputs {
			return nil, fmt.Errorf("kiss: line %d: input cube %q does not match .i %d", lineNo, in, m.NumInputs)
		}
		if len(out) != m.NumOutputs {
			return nil, fmt.Errorf("kiss: line %d: output part %q does not match .o %d", lineNo, out, m.NumOutputs)
		}
		if err := checkPattern(in); err != nil {
			return nil, fmt.Errorf("kiss: line %d: %v", lineNo, err)
		}
		if err := checkPattern(out); err != nil {
			return nil, fmt.Errorf("kiss: line %d: %v", lineNo, err)
		}
		m.AddTransition(in, from, to, out)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if resetName != "" {
		if i, ok := m.States.Lookup(resetName); ok {
			m.Reset = i
		} else {
			m.Reset = m.States.Intern(resetName)
		}
	}
	if declaredStates >= 0 && declaredStates != m.States.Len() {
		return nil, fmt.Errorf("kiss: .s declares %d states but %d appear", declaredStates, m.States.Len())
	}
	if declaredTerms >= 0 && declaredTerms != len(m.Trans) {
		return nil, fmt.Errorf("kiss: .p declares %d terms but %d appear", declaredTerms, len(m.Trans))
	}
	return m, nil
}

// ParseString is Parse over a string.
func ParseString(text string) (*fsm.FSM, error) {
	return Parse(strings.NewReader(text))
}

func checkPattern(s string) error {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0', '1', '-':
		default:
			return fmt.Errorf("bad pattern character %q in %q", s[i], s)
		}
	}
	return nil
}

// Write emits the machine in KISS2 format.
func Write(w io.Writer, m *fsm.FSM) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".i %d\n.o %d\n.p %d\n.s %d\n", m.NumInputs, m.NumOutputs, len(m.Trans), m.States.Len())
	if m.Reset >= 0 && m.Reset < m.States.Len() {
		fmt.Fprintf(bw, ".r %s\n", m.States.Name(m.Reset))
	}
	for _, t := range m.Trans {
		fmt.Fprintf(bw, "%s %s %s %s\n", t.In, m.States.Name(t.From), m.States.Name(t.To), t.Out)
	}
	fmt.Fprintln(bw, ".e")
	return bw.Flush()
}

// Format renders the machine as a KISS2 string.
func Format(m *fsm.FSM) string {
	var b strings.Builder
	if err := Write(&b, m); err != nil {
		return ""
	}
	return b.String()
}
