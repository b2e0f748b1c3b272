package bench

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/fsm"
	"repro/internal/heuristic"
	"repro/internal/mv"
	"repro/internal/nova"
)

// Table2Names is the paper's Table-2 benchmark list.
var Table2Names = []string{
	"bbsse", "cse", "dk16", "dk512", "donfile", "ex1", "kirkman", "master",
	"planet", "s1", "sand", "styr", "tbk", "viterbi", "vmecont",
}

// Table2Row compares the heuristic encoder (ENC) against the NOVA baseline
// at minimum code length: satisfied face constraints and the cube count of
// a two-level implementation of the encoded constraints.
type Table2Row struct {
	Name        string
	States      int
	Constraints int
	NovaSat     int
	EncSat      int
	NovaCubes   int
	EncCubes    int
	Err         string
}

// Table2Options tunes the run.
type Table2Options struct {
	// Names restricts the run; nil means the full Table-2 list.
	Names []string
}

// RunTable2 generates minimum-length encodings with both programs and
// evaluates the Section-7 cost functions on each.
func RunTable2(opts Table2Options) []Table2Row {
	names := opts.Names
	if names == nil {
		names = Table2Names
	}
	var rows []Table2Row
	for _, name := range names {
		m, err := fsm.GenerateByName(name)
		if err != nil {
			rows = append(rows, Table2Row{Name: name, Err: err.Error()})
			continue
		}
		cs := mv.InputConstraints(m)
		row := Table2Row{Name: name, States: m.NumStates(), Constraints: len(cs.Faces)}

		novaEnc, err := nova.Encode(cs, nova.Options{})
		if err != nil {
			row.Err = "nova: " + err.Error()
			rows = append(rows, row)
			continue
		}
		novaCost := cost.Evaluate(cs, cost.FullAssignment(novaEnc.Bits, novaEnc.Codes))
		row.NovaSat = len(cs.Faces) - novaCost.Violations
		row.NovaCubes = novaCost.Cubes

		encRes, err := heuristic.EncodeCtx(context.Background(), cs, heuristic.Options{
			Metric:       cost.Cubes,
			Restarts:     6,
			PolishBudget: 20000,
		})
		if err != nil {
			row.Err = "enc: " + err.Error()
			rows = append(rows, row)
			continue
		}
		row.EncSat = len(cs.Faces) - encRes.Cost.Violations
		row.EncCubes = encRes.Cost.Cubes
		if dup := duplicateCodes(encRes.Encoding); dup {
			row.Err = "enc: duplicate codes"
		}
		rows = append(rows, row)
	}
	return rows
}

func duplicateCodes(e *core.Encoding) bool {
	seen := map[uint64]bool{}
	for _, c := range e.Codes {
		if seen[uint64(c)] {
			return true
		}
		seen[uint64(c)] = true
	}
	return false
}

// FormatTable2 renders the rows as a markdown table in the paper's Table-2
// layout, with a totals row and the ENC/NOVA ratio of the total cubes.
func FormatTable2(rows []Table2Row) string {
	var t mdTable
	t.header("l", "machine", "states", "constraints", "NOVA sat", "ENC sat", "NOVA cubes", "ENC cubes")
	var sum Table2Row
	for _, r := range rows {
		if r.Err != "" {
			t.row(r.Name, r.States, r.Constraints, "! "+r.Err, "-", "-", "-")
			continue
		}
		t.row(r.Name, r.States, r.Constraints, r.NovaSat, r.EncSat, r.NovaCubes, r.EncCubes)
		sum.Constraints += r.Constraints
		sum.NovaSat += r.NovaSat
		sum.EncSat += r.EncSat
		sum.NovaCubes += r.NovaCubes
		sum.EncCubes += r.EncCubes
	}
	t.row("**total**", "", bold(sum.Constraints), bold(sum.NovaSat), bold(sum.EncSat), bold(sum.NovaCubes), bold(sum.EncCubes))
	if sum.NovaCubes > 0 {
		fmt.Fprintf(&t, "\nTotal cubes ENC/NOVA = %.2f.\n", float64(sum.EncCubes)/float64(sum.NovaCubes))
	}
	return t.String()
}
