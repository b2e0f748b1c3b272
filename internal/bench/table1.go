// Package bench drives the paper's experiments: Table 1 (exact input and
// output encoding on the benchmark suite), Table 2 (heuristic minimum-length
// input encoding vs the NOVA baseline), Table 3 (heuristic vs simulated
// annealing on multi-level literal counts), the figure walk-throughs, and
// the corpus matrix (the synthesis pipeline over testdata/corpus for every
// strategy). Each Run function returns structured rows and each Format
// function renders them as one markdown table. Blocks renders the
// deterministic cells EXPERIMENTS.md embeds, and Splice writes them between
// the document's marker pairs.
package bench

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/fsm"
	"repro/internal/mv"
	"repro/internal/par"
	"repro/internal/prime"
)

// Table1Config fixes the constraint-generation budget per benchmark. The
// dominance density plays the role the paper ascribes to the symbolic
// minimizer's output constraints: it is what prunes the prime count below
// the 50 000 cut-off (Section 9's discussion of planet and vmecont).
type Table1Config struct {
	Name string
	Out  mv.OutputOptions
}

// Table1Benchmarks is the paper's Table-1 suite with tuned generation
// budgets.
var Table1Benchmarks = []Table1Config{
	{Name: "bbsse", Out: mv.OutputOptions{MaxDominance: 15, MaxDisjunctive: 3}},
	{Name: "cse", Out: mv.OutputOptions{MaxDominance: 15, MaxDisjunctive: 3}},
	{Name: "dk16", Out: mv.OutputOptions{MaxDominance: 100, MaxDisjunctive: 3}},
	{Name: "dk16x", Out: mv.OutputOptions{MaxDominance: 100, MaxDisjunctive: 3}},
	{Name: "dk512", Out: mv.OutputOptions{MaxDominance: 8, MaxDisjunctive: 3}},
	{Name: "donfile", Out: mv.OutputOptions{MaxDominance: 60, MaxDisjunctive: 3}},
	{Name: "exlinp", Out: mv.OutputOptions{MaxDominance: 40, MaxDisjunctive: 3}},
	{Name: "keyb", Out: mv.OutputOptions{MaxDominance: 25, MaxDisjunctive: 3}},
	{Name: "kirkman", Out: mv.OutputOptions{MaxDominance: 40, MaxDisjunctive: 3}},
	{Name: "master", Out: mv.OutputOptions{MaxDominance: 20, MaxDisjunctive: 3}},
	{Name: "planet", Out: mv.OutputOptions{MaxDominance: 20, MaxDisjunctive: 3}},
	{Name: "s1", Out: mv.OutputOptions{MaxDominance: 40, MaxDisjunctive: 3}},
	{Name: "s1a", Out: mv.OutputOptions{MaxDominance: 40, MaxDisjunctive: 3}},
	{Name: "sand", Out: mv.OutputOptions{MaxDominance: 100, MaxDisjunctive: 3}},
	{Name: "tbk", Out: mv.OutputOptions{MaxDominance: 180, MaxDisjunctive: 3, AggressiveDominance: true}},
	{Name: "vmecont", Out: mv.OutputOptions{MaxDominance: 20, MaxDisjunctive: 3}},
}

// Table1Row is one line of Table 1.
type Table1Row struct {
	Name    string
	States  int
	Primes  int
	Bits    int
	Optimal bool // the covering search proved Bits minimal before its budgets ran out
	Time    time.Duration
	Aborted bool // prime count or time budget exceeded: the paper's "*"
	Err     string
}

// table1PrimeLimit is the paper's maximal-compatible cut-off.
const table1PrimeLimit = 50000

// Table1Options tunes the run.
type Table1Options struct {
	// PrimeTimeout bounds prime generation per benchmark; 0 means 60s.
	PrimeTimeout time.Duration
	// CoverTimeout bounds the covering search per benchmark; 0 means 30s.
	CoverTimeout time.Duration
	// Names restricts the run to a subset of benchmarks; nil means all.
	Names []string
}

// RunTable1 executes the exact mixed-constraint encoding flow per
// benchmark and reports states, valid prime count, code length and time.
// The covering search runs at one worker: cut short by its node budget,
// it then returns the same cover on any CPU count.
func RunTable1(opts Table1Options) []Table1Row {
	if opts.PrimeTimeout == 0 {
		opts.PrimeTimeout = 60 * time.Second
	}
	if opts.CoverTimeout == 0 {
		opts.CoverTimeout = 30 * time.Second
	}
	var rows []Table1Row
	for _, cfg := range Table1Benchmarks {
		if opts.Names != nil && !containsName(opts.Names, cfg.Name) {
			continue
		}
		m, err := fsm.GenerateByName(cfg.Name)
		if err != nil {
			rows = append(rows, Table1Row{Name: cfg.Name, Err: err.Error()})
			continue
		}
		start := time.Now()
		cs := mv.GenerateConstraints(m, cfg.Out)
		res, err := core.ExactEncodeCtx(context.Background(), cs, core.ExactOptions{
			Prime: prime.Options{Limit: table1PrimeLimit, Parallelism: par.Budget(opts.PrimeTimeout)},
			Cover: cover.Options{Parallelism: par.Parallelism{Workers: 1, TimeLimit: opts.CoverTimeout}},
		})
		row := Table1Row{Name: cfg.Name, States: m.NumStates(), Time: time.Since(start)}
		switch {
		case errors.Is(err, prime.ErrLimit), errors.Is(err, prime.ErrTimeout):
			row.Aborted = true
		case err != nil:
			row.Err = err.Error()
		default:
			row.Primes = len(res.Primes)
			row.Bits = res.Encoding.Bits
			row.Optimal = res.Optimal
			if v := core.Verify(cs, res.Encoding); len(v) != 0 {
				row.Err = fmt.Sprintf("encoding failed verification: %v", v[0])
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatTable1 renders the rows as a markdown table in the paper's Table-1
// layout, plus a Proved column: yes when the covering search proved the
// code length minimal, budget when a node or time budget stopped it first.
// With times, each row also gets its wall time, an aborted row the time it
// took to reach its budget.
func FormatTable1(rows []Table1Row, times bool) string {
	var t mdTable
	cols := []any{"machine", "states", "primes", "bits", "proved", "time"}
	if !times {
		cols = cols[:5]
	}
	t.header("lrrrl", cols...)
	for _, r := range rows {
		cells := []any{r.Name, r.States, "> limit", "*", "*", r.Time.Round(time.Millisecond)}
		switch {
		case r.Err != "":
			cells = []any{r.Name, r.States, "! " + r.Err, "-", "-", "-"}
		case !r.Aborted:
			proved := "budget"
			if r.Optimal {
				proved = "yes"
			}
			cells = []any{r.Name, r.States, r.Primes, r.Bits, proved, r.Time.Round(time.Millisecond)}
		}
		t.row(cells[:len(cols)]...)
	}
	t.WriteString("\n`*`: the prime-count or time budget was exceeded (paper: planet, vmecont). " +
		"`budget`: the search returned its best cover when its node or time budget ran out.\n")
	return t.String()
}

func containsName(names []string, n string) bool {
	for _, x := range names {
		if x == n {
			return true
		}
	}
	return false
}
