package pipeline

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Report is the structured outcome of one pipeline run: per-stage sizes and
// times from parse to verified netlist. All fields except the ElapsedMS
// times are deterministic for a given (machine, Options) pair.
type Report struct {
	// Machine identification and input sizes.
	Machine       string `json:"machine"`
	States        int    `json:"states"`
	EncodedStates int    `json:"encoded_states"` // after optional state minimization
	Inputs        int    `json:"inputs"`
	Outputs       int    `json:"outputs"`
	Transitions   int    `json:"transitions"`

	// Symbolic minimization and constraint extraction.
	SymbolicCubes int `json:"symbolic_cubes"`
	Faces         int `json:"faces"`
	Dominances    int `json:"dominances,omitempty"`
	Disjunctives  int `json:"disjunctives,omitempty"`
	// Components is the number of connected components of the extracted
	// constraint set's symbol graph (1 when it is not decomposable).
	Components int `json:"components,omitempty"`

	// Encoding.
	Strategy   string            `json:"strategy"`
	Bits       int               `json:"bits"`
	Optimal    bool              `json:"optimal,omitempty"` // exact only
	Violations int               `json:"violations"`        // violated face constraints
	Codes      map[string]string `json:"codes"`

	// Two-level implementation.
	RawCubes int `json:"raw_cubes"` // product terms before minimization
	Cubes    int `json:"cubes"`
	Literals int `json:"literals"`

	// BLIF is the emitted netlist text.
	BLIF string `json:"blif,omitempty"`

	// Replay is the end-to-end verification outcome (nil when skipped).
	Replay *ReplayResult `json:"replay,omitempty"`

	// Stages records per-stage wall time in pipeline order.
	Stages    []StageStat `json:"stages"`
	ElapsedMS float64     `json:"elapsed_ms"`
}

// StageStat is one stage's wall time.
type StageStat struct {
	Name      string  `json:"name"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// ReplayResult is the replay verifier's verdict: the synthesized netlist
// was driven through Sequences random defined-input walks of Length steps
// against the symbolic machine.
type ReplayResult struct {
	OK        bool   `json:"ok"`
	Sequences int    `json:"sequences"`
	Length    int    `json:"length"`
	Error     string `json:"error,omitempty"`
}

// JSON renders the report as indented JSON (map keys sorted, so the
// rendering is deterministic up to the elapsed times).
func (r *Report) JSON() string {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Sprintf("{%q: %q}", "error", err.Error())
	}
	return string(b) + "\n"
}

// ClearTimes zeroes every wall-time field, leaving only the deterministic
// content — the form golden tests and byte-stable artifacts compare.
func (r *Report) ClearTimes() {
	r.ElapsedMS = 0
	for i := range r.Stages {
		r.Stages[i].ElapsedMS = 0
	}
}

// Text renders a human-oriented stage summary, the fsmenc -pipeline default
// output (codes and netlist are printed separately by the CLI).
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine    %s: %d states", r.Machine, r.States)
	if r.EncodedStates != r.States {
		fmt.Fprintf(&b, " (minimized to %d)", r.EncodedStates)
	}
	fmt.Fprintf(&b, ", %d inputs, %d outputs, %d transitions\n", r.Inputs, r.Outputs, r.Transitions)
	fmt.Fprintf(&b, "symbolic   %d MV cubes\n", r.SymbolicCubes)
	fmt.Fprintf(&b, "constraints %d faces", r.Faces)
	if r.Dominances+r.Disjunctives > 0 {
		fmt.Fprintf(&b, ", %d dominance, %d disjunctive", r.Dominances, r.Disjunctives)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "encode     %s: %d bits, %d face violations", r.Strategy, r.Bits, r.Violations)
	if r.Strategy == string(Exact) {
		fmt.Fprintf(&b, ", optimal=%v", r.Optimal)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "espresso   %d -> %d product terms, %d literals\n", r.RawCubes, r.Cubes, r.Literals)
	if r.Replay != nil {
		if r.Replay.OK {
			fmt.Fprintf(&b, "verify     replay ok (%d sequences x %d steps)\n", r.Replay.Sequences, r.Replay.Length)
		} else {
			fmt.Fprintf(&b, "verify     REPLAY FAILED: %s\n", r.Replay.Error)
		}
	}
	if len(r.Stages) > 0 {
		var parts []string
		for _, s := range r.Stages {
			parts = append(parts, fmt.Sprintf("%s %.1fms", s.Name, s.ElapsedMS))
		}
		fmt.Fprintf(&b, "stages     %s (total %.1fms)\n", strings.Join(parts, ", "), r.ElapsedMS)
	}
	return b.String()
}

// Markdown renders the report as a two-column markdown table, codes
// inlined sorted by symbol name.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "| stage | result |\n|---|---|\n")
	fmt.Fprintf(&b, "| machine | %s: %d states, %d inputs, %d outputs, %d transitions |\n",
		r.Machine, r.States, r.Inputs, r.Outputs, r.Transitions)
	fmt.Fprintf(&b, "| symbolic | %d MV cubes |\n", r.SymbolicCubes)
	fmt.Fprintf(&b, "| constraints | %d faces, %d dominance, %d disjunctive |\n",
		r.Faces, r.Dominances, r.Disjunctives)
	fmt.Fprintf(&b, "| encode (%s) | %d bits, %d face violations |\n", r.Strategy, r.Bits, r.Violations)
	names := make([]string, 0, len(r.Codes))
	for name := range r.Codes {
		names = append(names, name)
	}
	sort.Strings(names)
	var codes []string
	for _, name := range names {
		codes = append(codes, fmt.Sprintf("%s=%s", name, r.Codes[name]))
	}
	fmt.Fprintf(&b, "| codes | %s |\n", strings.Join(codes, " "))
	fmt.Fprintf(&b, "| espresso | %d → %d cubes, %d literals |\n", r.RawCubes, r.Cubes, r.Literals)
	if r.Replay != nil {
		verdict := "ok"
		if !r.Replay.OK {
			verdict = "FAILED: " + r.Replay.Error
		}
		fmt.Fprintf(&b, "| replay | %s (%d×%d) |\n", verdict, r.Replay.Sequences, r.Replay.Length)
	}
	return b.String()
}
