package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/anneal"
	"repro/internal/cost"
	"repro/internal/fsm"
	"repro/internal/heuristic"
	"repro/internal/mv"
)

// Table3Names lists the paper's Table-3 benchmarks; the dagger set (sand,
// tbk, viterbi, vmecont) is annealed with only 4 swaps per temperature
// point, exactly as the paper reports SA could not complete with 10 on
// those.
var Table3Names = []string{
	"bbsse", "cse", "dk16", "dk512", "donfile", "kirkman", "master", "s1",
	"sand", "tbk", "viterbi", "vmecont",
}

// Table3Dagger marks the large examples annealed with the reduced budget.
var Table3Dagger = map[string]bool{"sand": true, "tbk": true, "viterbi": true, "vmecont": true}

// daggerTemps is the shortened annealing schedule of the dagger examples,
// in temperature points.
const daggerTemps = 30

// Table3Row compares heuristic encoding (ENC) against simulated annealing
// (SA) on the literal count of the encoded constraints, with the six-call
// MIS-MV script protocol timed for both.
type Table3Row struct {
	Name     string
	States   int
	SALits   int
	EncLits  int
	SATime   time.Duration
	EncTime  time.Duration
	Dagger   bool
	Err      string
	CacheHit float64 // evaluator hit rate during SA, for the ablation story
}

// Table3Options tunes the run.
type Table3Options struct {
	// Names restricts the run; nil means the full Table-3 list.
	Names []string
}

// RunTable3 mirrors the MIS-MV script: the constraint-satisfaction routine
// is invoked six times per benchmark — five cost-evaluation calls and one
// final encoding call. For SA, the paper's protocol anneals the five
// evaluation calls with 1 swap per temperature and the final call with 10
// (4 on the dagger examples); the heuristic encoder runs full-strength all
// six times.
func RunTable3(opts Table3Options) []Table3Row {
	names := opts.Names
	if names == nil {
		names = Table3Names
	}
	var rows []Table3Row
	for _, name := range names {
		m, err := fsm.GenerateByName(name)
		if err != nil {
			rows = append(rows, Table3Row{Name: name, Err: err.Error()})
			continue
		}
		cs := mv.InputConstraintsDC(m)
		row := Table3Row{Name: name, States: m.NumStates(), Dagger: Table3Dagger[name]}

		// Simulated annealing, six calls. On the dagger examples SA "cannot
		// complete" at full strength; following the paper it is limited to
		// 4 swaps per temperature point and, in this reproduction, a
		// shortened schedule.
		finalSwaps, temps := 10, 0
		if row.Dagger {
			finalSwaps, temps = 4, daggerTemps
		}
		saStart := time.Now()
		var saLits int
		for call := 0; call < 6; call++ {
			swaps := 1
			if call == 5 {
				swaps = finalSwaps
			}
			enc, _, err := anneal.Encode(cs, anneal.Options{
				Metric:       cost.Literals,
				SwapsPerTemp: swaps,
				Temps:        temps,
				Seed:         int64(call + 1),
			})
			if err != nil {
				row.Err = "sa: " + err.Error()
				break
			}
			saLits = cost.Evaluate(cs, cost.FullAssignment(enc.Bits, enc.Codes)).Literals
		}
		row.SATime = time.Since(saStart)
		row.SALits = saLits

		if row.Err != "" {
			rows = append(rows, row)
			continue
		}

		// Heuristic encoder, six full-strength calls.
		encStart := time.Now()
		var encLits int
		for call := 0; call < 6; call++ {
			res, err := heuristic.EncodeCtx(context.Background(), cs, heuristic.Options{
				Metric:       cost.Literals,
				Restarts:     6,
				PolishBudget: 15000,
			})
			if err != nil {
				row.Err = "enc: " + err.Error()
				break
			}
			encLits = res.Cost.Literals
		}
		row.EncTime = time.Since(encStart)
		row.EncLits = encLits
		rows = append(rows, row)
	}
	return rows
}

// FormatTable3 renders the rows as a markdown table in the paper's Table-3
// layout, marking the dagger examples with a leading +. With times, each
// row also gets both sides' wall times and their ratio.
func FormatTable3(rows []Table3Row, times bool) string {
	var t mdTable
	cols := []any{"machine", "states", "SA lits", "ENC lits", "SA time", "ENC time", "SA/ENC"}
	if !times {
		cols = cols[:4]
	}
	t.header("l", cols...)
	for _, r := range rows {
		name := r.Name
		if r.Dagger {
			name = "+" + name
		}
		cells := []any{name, r.States, "! " + r.Err, "-", "-", "-", "-"}
		if r.Err == "" {
			ratio := 0.0
			if r.EncTime > 0 {
				ratio = float64(r.SATime) / float64(r.EncTime)
			}
			cells = []any{name, r.States, r.SALits, r.EncLits,
				r.SATime.Round(time.Millisecond), r.EncTime.Round(time.Millisecond), fmt.Sprintf("%.1f", ratio)}
		}
		t.row(cells[:len(cols)]...)
	}
	t.WriteString("\n`+`: SA limited to 4 swaps per temperature point (the paper's dagger).\n")
	return t.String()
}
