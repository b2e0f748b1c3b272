// Package corpus loads the committed benchmark corpus under
// testdata/corpus/: a manifest (name, file, sizes, provenance) plus one
// KISS2 file per machine. The manifest is the single source of truth that
// both the docs tables (cmd/paper regenerating EXPERIMENTS.md) and the
// test suites read, and Load cross-checks every manifest entry against the
// parsed machine so the two cannot drift silently.
package corpus

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/fsm"
	"repro/internal/kiss"
)

// DefaultDir is the corpus location relative to the repository root.
const DefaultDir = "testdata/corpus"

// Entry is one manifest row.
type Entry struct {
	Name        string `json:"name"`
	File        string `json:"file"`
	States      int    `json:"states"`
	Inputs      int    `json:"inputs"`
	Outputs     int    `json:"outputs"`
	Transitions int    `json:"transitions"`
	Provenance  string `json:"provenance"`
}

// Machine is a loaded corpus machine: its manifest entry plus the parsed
// FSM (named after the entry).
type Machine struct {
	Entry
	FSM *fsm.FSM
}

type manifest struct {
	Machines []Entry `json:"machines"`
}

// Load reads the manifest in dir, parses every listed machine, and
// validates each entry's declared sizes against the parsed table. Machines
// are returned in manifest order (the corpus's canonical presentation
// order: hand-written machines first, then the synthetic scale family).
func Load(dir string) ([]Machine, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		return nil, fmt.Errorf("corpus: parsing manifest: %w", err)
	}
	if len(mf.Machines) == 0 {
		return nil, fmt.Errorf("corpus: manifest in %s lists no machines", dir)
	}
	seen := map[string]bool{}
	machines := make([]Machine, 0, len(mf.Machines))
	for _, e := range mf.Machines {
		if e.Name == "" || e.File == "" {
			return nil, fmt.Errorf("corpus: manifest entry %+v missing name or file", e)
		}
		if seen[e.Name] {
			return nil, fmt.Errorf("corpus: duplicate machine %s", e.Name)
		}
		seen[e.Name] = true
		f, err := os.Open(filepath.Join(dir, e.File))
		if err != nil {
			return nil, fmt.Errorf("corpus: %s: %w", e.Name, err)
		}
		m, err := kiss.Parse(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("corpus: %s: %w", e.Name, err)
		}
		m.Name = e.Name
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("corpus: %s: %w", e.Name, err)
		}
		if !m.Deterministic() {
			return nil, fmt.Errorf("corpus: %s: machine is non-deterministic", e.Name)
		}
		if m.NumStates() != e.States || m.NumInputs != e.Inputs ||
			m.NumOutputs != e.Outputs || len(m.Trans) != e.Transitions {
			return nil, fmt.Errorf("corpus: %s: manifest declares %d states/%d in/%d out/%d trans, file has %d/%d/%d/%d",
				e.Name, e.States, e.Inputs, e.Outputs, e.Transitions,
				m.NumStates(), m.NumInputs, m.NumOutputs, len(m.Trans))
		}
		machines = append(machines, Machine{Entry: e, FSM: m})
	}
	return machines, nil
}

// Find returns the named machine from a loaded corpus.
func Find(machines []Machine, name string) (Machine, bool) {
	for _, m := range machines {
		if m.Name == name {
			return m, true
		}
	}
	return Machine{}, false
}
