package bench

import (
	"context"
	"fmt"

	"repro/internal/corpus"
	"repro/internal/par"
	"repro/internal/pipeline"
)

// Result is one corpus machine's reports, one per strategy.
type Result struct {
	Machine corpus.Machine
	Reports map[pipeline.Strategy]*pipeline.Report
}

// MatrixOptions configures a corpus matrix run.
type MatrixOptions struct {
	// Strategies to compare; nil means pipeline.Strategies.
	Strategies []pipeline.Strategy
	// Workers bounds concurrent pipeline runs; 0 means 4. Results are
	// independent of the worker count.
	Workers int
}

// RunMatrix executes corpus × strategies, preserving corpus order. Any
// pipeline failure aborts the whole matrix: the tables must never be
// rendered from partial data. The error returned is the failure of the
// first cell in corpus-then-strategy order.
func RunMatrix(ctx context.Context, machines []corpus.Machine, opts MatrixOptions) ([]Result, error) {
	strategies := opts.Strategies
	if len(strategies) == 0 {
		strategies = pipeline.Strategies
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 4
	}

	// One run per (machine, strategy) cell, row-major.
	reps := make([]*pipeline.Report, len(machines)*len(strategies))
	errs := make([]error, len(reps))
	par.ForEach(len(reps), workers, func(i int) {
		m, s := machines[i/len(strategies)], strategies[i%len(strategies)]
		reps[i], errs[i] = pipeline.Run(ctx, m.FSM, pipeline.Options{Strategy: s})
		if errs[i] != nil {
			errs[i] = fmt.Errorf("bench: %s/%s: %w", m.Name, s, errs[i])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	results := make([]Result, len(machines))
	for mi, m := range machines {
		results[mi] = Result{Machine: m, Reports: make(map[pipeline.Strategy]*pipeline.Report, len(strategies))}
		for si, s := range strategies {
			results[mi].Reports[s] = reps[mi*len(strategies)+si]
		}
	}
	return results, nil
}

// corpusBlocks renders the five corpus blocks EXPERIMENTS.md embeds: the
// manifest overview, then per strategy the code length and face-constraint
// satisfaction, the minimized cubes and literals, and the replay verdicts.
func corpusBlocks(machines []corpus.Machine, results []Result, strategies []pipeline.Strategy) map[string]string {
	var overview mdTable
	overview.header("lrrrrl", "machine", "states", "inputs", "outputs", "transitions", "provenance")
	for _, m := range machines {
		overview.row(m.Name, m.States, m.Inputs, m.Outputs, m.Transitions, m.Provenance)
	}
	return map[string]string{
		"corpus":   overview.String(),
		"encoding": encodingTable(results, strategies),
		"cubes":    strategyTable(results, strategies, true, func(r *pipeline.Report) any { return r.Cubes }),
		"literals": strategyTable(results, strategies, true, func(r *pipeline.Report) any { return r.Literals }),
		"replay":   strategyTable(results, strategies, false, replayCell),
	}
}

// encodingTable compares code length and face-constraint satisfaction per
// strategy, plus the connected-component count of each machine's extracted
// constraint set (the decomposed solver's unit of caching and parallelism).
// An exact-strategy entry whose search exhausted its budget before proving
// minimality is marked with a dagger.
func encodingTable(results []Result, strategies []pipeline.Strategy) string {
	var t mdTable
	cols := []any{"machine", "faces", "dom", "disj", "comp"}
	for _, s := range strategies {
		cols = append(cols, fmt.Sprintf("%s bits", s), "viol")
	}
	t.header("l", cols...)
	for _, r := range results {
		// Constraint counts come from the exact report when present (only
		// the exact path extracts output constraints), else the first
		// strategy's.
		cc := r.Reports[pipeline.Exact]
		if cc == nil {
			cc = r.Reports[strategies[0]]
		}
		cells := []any{r.Machine.Name, cc.Faces, cc.Dominances, cc.Disjunctives, cc.Components}
		for _, s := range strategies {
			rep := r.Reports[s]
			bits := fmt.Sprint(rep.Bits)
			if s == pipeline.Exact && !rep.Optimal {
				bits += "†"
			}
			cells = append(cells, bits, rep.Violations)
		}
		t.row(cells...)
	}
	return t.String()
}

// strategyTable renders one cell per machine and strategy; with total, a
// totals row sums the integer cells.
func strategyTable(results []Result, strategies []pipeline.Strategy, total bool, cell func(*pipeline.Report) any) string {
	var t mdTable
	cols := []any{"machine"}
	for _, s := range strategies {
		cols = append(cols, s)
	}
	t.header("l", cols...)
	sums := make([]int, len(strategies))
	for _, r := range results {
		cells := []any{r.Machine.Name}
		for i, s := range strategies {
			c := cell(r.Reports[s])
			if v, ok := c.(int); ok {
				sums[i] += v
			}
			cells = append(cells, c)
		}
		t.row(cells...)
	}
	if total {
		cells := []any{"**total**"}
		for _, v := range sums {
			cells = append(cells, bold(v))
		}
		t.row(cells...)
	}
	return t.String()
}

// replayCell is one pipeline run's end-to-end replay verdict.
func replayCell(rep *pipeline.Report) any {
	switch rp := rep.Replay; {
	case rp == nil:
		return "—"
	case !rp.OK:
		return "FAIL"
	default:
		return fmt.Sprintf("ok (%d×%d)", rp.Sequences, rp.Length)
	}
}
