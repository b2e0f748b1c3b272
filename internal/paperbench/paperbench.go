// Package paperbench runs the full synthesis pipeline over the committed
// benchmark corpus for every encoding strategy and renders the paper-style
// comparison tables that EXPERIMENTS.md embeds. Every number in the tables
// is deterministic (fixed seeds, worker-count-invariant engines, no wall
// times), so regeneration is byte-identical and `paperbench -check` can
// fail CI when the committed document drifts from the code.
package paperbench

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/corpus"
	"repro/internal/par"
	"repro/internal/pipeline"
)

// Result is one corpus machine's reports, one per strategy.
type Result struct {
	Machine corpus.Machine
	Reports map[pipeline.Strategy]*pipeline.Report
}

// Options configures a matrix run.
type Options struct {
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
func RunMatrix(ctx context.Context, machines []corpus.Machine, opts Options) ([]Result, error) {
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
			errs[i] = fmt.Errorf("paperbench: %s/%s: %w", m.Name, s, errs[i])
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

// OverviewTable renders the corpus manifest as a markdown table.
func OverviewTable(machines []corpus.Machine) string {
	var b strings.Builder
	b.WriteString("| machine | states | inputs | outputs | transitions | provenance |\n")
	b.WriteString("|---|---:|---:|---:|---:|---|\n")
	for _, m := range machines {
		fmt.Fprintf(&b, "| %s | %d | %d | %d | %d | %s |\n",
			m.Name, m.States, m.Inputs, m.Outputs, m.Transitions, m.Provenance)
	}
	return b.String()
}

// EncodingTable compares code length and face-constraint satisfaction per
// strategy, plus the connected-component count of each machine's extracted
// constraint set (the decomposed solver's unit of caching and parallelism).
// An exact-strategy entry whose search exhausted its budget before proving
// minimality is marked with a dagger.
func EncodingTable(results []Result, strategies []pipeline.Strategy) string {
	var b strings.Builder
	b.WriteString("| machine | faces | dom | disj | comp |")
	for _, s := range strategies {
		fmt.Fprintf(&b, " %s bits | viol |", s)
	}
	b.WriteString("\n|---|---:|---:|---:|---:|")
	for range strategies {
		b.WriteString("---:|---:|")
	}
	b.WriteByte('\n')
	for _, r := range results {
		// Constraint counts come from the exact report when present (only
		// the exact path extracts output constraints), else the first
		// strategy's.
		cc := r.Reports[pipeline.Exact]
		if cc == nil {
			cc = r.Reports[strategies[0]]
		}
		fmt.Fprintf(&b, "| %s | %d | %d | %d | %d |", r.Machine.Name, cc.Faces, cc.Dominances, cc.Disjunctives, cc.Components)
		for _, s := range strategies {
			rep := r.Reports[s]
			bits := fmt.Sprintf("%d", rep.Bits)
			if s == pipeline.Exact && !rep.Optimal {
				bits += "†"
			}
			fmt.Fprintf(&b, " %s | %d |", bits, rep.Violations)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// metricTable renders one per-strategy integer metric with a totals row.
func metricTable(results []Result, strategies []pipeline.Strategy, metric func(*pipeline.Report) int) string {
	var b strings.Builder
	b.WriteString("| machine |")
	for _, s := range strategies {
		fmt.Fprintf(&b, " %s |", s)
	}
	b.WriteString("\n|---|")
	for range strategies {
		b.WriteString("---:|")
	}
	b.WriteByte('\n')
	totals := make(map[pipeline.Strategy]int, len(strategies))
	for _, r := range results {
		fmt.Fprintf(&b, "| %s |", r.Machine.Name)
		for _, s := range strategies {
			v := metric(r.Reports[s])
			totals[s] += v
			fmt.Fprintf(&b, " %d |", v)
		}
		b.WriteByte('\n')
	}
	b.WriteString("| **total** |")
	for _, s := range strategies {
		fmt.Fprintf(&b, " **%d** |", totals[s])
	}
	b.WriteByte('\n')
	return b.String()
}

// CubesTable compares minimized product-term counts.
func CubesTable(results []Result, strategies []pipeline.Strategy) string {
	return metricTable(results, strategies, func(r *pipeline.Report) int { return r.Cubes })
}

// LiteralsTable compares minimized literal counts.
func LiteralsTable(results []Result, strategies []pipeline.Strategy) string {
	return metricTable(results, strategies, func(r *pipeline.Report) int { return r.Literals })
}

// ReplayTable reports the end-to-end replay verdict per cell.
func ReplayTable(results []Result, strategies []pipeline.Strategy) string {
	var b strings.Builder
	b.WriteString("| machine |")
	for _, s := range strategies {
		fmt.Fprintf(&b, " %s |", s)
	}
	b.WriteString("\n|---|")
	for range strategies {
		b.WriteString("---:|")
	}
	b.WriteByte('\n')
	for _, r := range results {
		fmt.Fprintf(&b, "| %s |", r.Machine.Name)
		for _, s := range strategies {
			rep := r.Reports[s]
			cell := "—"
			if rep.Replay != nil {
				if rep.Replay.OK {
					cell = fmt.Sprintf("ok (%d×%d)", rep.Replay.Sequences, rep.Replay.Length)
				} else {
					cell = "FAIL"
				}
			}
			fmt.Fprintf(&b, " %s |", cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Blocks renders every named table block EXPERIMENTS.md embeds.
func Blocks(machines []corpus.Machine, results []Result, strategies []pipeline.Strategy) map[string]string {
	if len(strategies) == 0 {
		strategies = pipeline.Strategies
	}
	return map[string]string{
		"corpus":   OverviewTable(machines),
		"encoding": EncodingTable(results, strategies),
		"cubes":    CubesTable(results, strategies),
		"literals": LiteralsTable(results, strategies),
		"replay":   ReplayTable(results, strategies),
	}
}

const (
	beginFmt = "<!-- paperbench:begin %s -->"
	endFmt   = "<!-- paperbench:end %s -->"
)

// Splice replaces the content between each block's begin/end markers in
// doc with the freshly rendered table, leaving everything outside the
// markers untouched. Every block must have its marker pair in the
// document; unknown markers in the document are an error too, so the
// document and the generator cannot disagree about the block set.
func Splice(doc string, blocks map[string]string) (string, error) {
	names := make([]string, 0, len(blocks))
	for name := range blocks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		begin := fmt.Sprintf(beginFmt, name)
		end := fmt.Sprintf(endFmt, name)
		bi := strings.Index(doc, begin)
		ei := strings.Index(doc, end)
		if bi < 0 || ei < 0 {
			return "", fmt.Errorf("paperbench: document is missing the %q marker block", name)
		}
		if ei < bi {
			return "", fmt.Errorf("paperbench: %q end marker precedes its begin marker", name)
		}
		doc = doc[:bi+len(begin)] + "\n" + blocks[name] + doc[ei:]
	}
	for _, m := range markerNames(doc) {
		if _, ok := blocks[m]; !ok {
			return "", fmt.Errorf("paperbench: document has a %q marker block the generator does not produce", m)
		}
	}
	return doc, nil
}

// markerNames lists the begin-marker names present in a document.
func markerNames(doc string) []string {
	const prefix = "<!-- paperbench:begin "
	var names []string
	for i := strings.Index(doc, prefix); i >= 0; {
		rest := doc[i+len(prefix):]
		j := strings.Index(rest, " -->")
		if j < 0 {
			break
		}
		names = append(names, rest[:j])
		next := strings.Index(rest, prefix)
		if next < 0 {
			break
		}
		i += len(prefix) + next
	}
	return names
}
