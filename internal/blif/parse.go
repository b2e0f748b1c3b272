package blif

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Netlist is a parsed BLIF model: the structural view of what WriteEncoded
// emits, sufficient to simulate the synthesized machine (internal/sim's
// netlist simulator) and to close the emission/replay verification loop.
type Netlist struct {
	Model   string
	Inputs  []string
	Outputs []string
	Latches []Latch
	Tables  []Table
}

// Latch is a clocked register: Output holds the value Input had at the end
// of the previous cycle, starting at Init.
type Latch struct {
	Input  string
	Output string
	Init   int
}

// Table is a single-output .names node: Output is 1 exactly when the input
// signal vector lies in one of the on-set Cubes (each over {0,1,-}, one
// character per input signal). A table with no cubes is the constant 0.
type Table struct {
	Inputs []string
	Output string
	Cubes  []string
}

// Parse reads the BLIF subset this package writes: .model, .inputs,
// .outputs, .latch <in> <out> [init], single-output .names tables with
// on-set ("... 1") rows, and .end. Line continuations with '\' are folded.
// Multi-model files, .subckt, and off-set ("... 0") rows are rejected.
func Parse(r io.Reader) (*Netlist, error) {
	nl := &Netlist{}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<22)
	lineNo := 0
	sawModel := false
	ended := false
	var cur *Table // open .names block receiving rows

	// readLine folds '\' continuations into one logical line.
	var pending string
	nextLine := func() (string, bool) {
		for sc.Scan() {
			lineNo++
			line := sc.Text()
			if i := strings.IndexByte(line, '#'); i >= 0 {
				line = line[:i]
			}
			line = strings.TrimSpace(line)
			if strings.HasSuffix(line, "\\") {
				pending += strings.TrimSuffix(line, "\\") + " "
				continue
			}
			line = pending + line
			pending = ""
			if line == "" {
				continue
			}
			return line, true
		}
		return "", false
	}

	for {
		line, ok := nextLine()
		if !ok {
			break
		}
		fields := strings.Fields(line)
		if !strings.HasPrefix(fields[0], ".") {
			// A table row belongs to the open .names block.
			if cur == nil {
				return nil, fmt.Errorf("blif: line %d: table row outside .names", lineNo)
			}
			if ended {
				return nil, fmt.Errorf("blif: line %d: content after .end", lineNo)
			}
			if len(fields) != 2 || fields[1] != "1" {
				return nil, fmt.Errorf("blif: line %d: want on-set row %q 1, got %q", lineNo, strings.Repeat("-", len(cur.Inputs)), line)
			}
			cube := fields[0]
			if len(cube) != len(cur.Inputs) {
				return nil, fmt.Errorf("blif: line %d: cube %q width %d != %d inputs", lineNo, cube, len(cube), len(cur.Inputs))
			}
			for i := 0; i < len(cube); i++ {
				switch cube[i] {
				case '0', '1', '-':
				default:
					return nil, fmt.Errorf("blif: line %d: bad cube character %q", lineNo, cube[i])
				}
			}
			cur.Cubes = append(cur.Cubes, cube)
			continue
		}
		directive := fields[0]
		if directive != ".names" {
			cur = nil
		}
		if ended && directive != ".end" {
			return nil, fmt.Errorf("blif: line %d: %s after .end", lineNo, directive)
		}
		switch directive {
		case ".model":
			if sawModel {
				return nil, fmt.Errorf("blif: line %d: multiple .model declarations", lineNo)
			}
			sawModel = true
			if len(fields) > 1 {
				nl.Model = fields[1]
			}
		case ".inputs":
			nl.Inputs = append(nl.Inputs, fields[1:]...)
		case ".outputs":
			nl.Outputs = append(nl.Outputs, fields[1:]...)
		case ".latch":
			if len(fields) < 3 || len(fields) > 4 {
				return nil, fmt.Errorf("blif: line %d: .latch wants input output [init]", lineNo)
			}
			l := Latch{Input: fields[1], Output: fields[2], Init: 3} // BLIF default: unknown
			if len(fields) == 4 {
				switch fields[3] {
				case "0":
					l.Init = 0
				case "1":
					l.Init = 1
				case "2", "3":
					l.Init = 3
				default:
					return nil, fmt.Errorf("blif: line %d: bad latch init %q", lineNo, fields[3])
				}
			}
			nl.Latches = append(nl.Latches, l)
		case ".names":
			if len(fields) < 2 {
				return nil, fmt.Errorf("blif: line %d: .names wants at least an output signal", lineNo)
			}
			nl.Tables = append(nl.Tables, Table{
				Inputs: append([]string(nil), fields[1:len(fields)-1]...),
				Output: fields[len(fields)-1],
			})
			cur = &nl.Tables[len(nl.Tables)-1]
		case ".end":
			ended = true
		default:
			return nil, fmt.Errorf("blif: line %d: unsupported directive %s", lineNo, directive)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if pending != "" {
		return nil, fmt.Errorf("blif: line %d: dangling line continuation", lineNo)
	}
	if !sawModel {
		return nil, fmt.Errorf("blif: missing .model")
	}
	return nl, nil
}

// ParseString is Parse over a string.
func ParseString(text string) (*Netlist, error) {
	return Parse(strings.NewReader(text))
}
