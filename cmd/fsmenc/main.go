// Command fsmenc runs the full state-assignment flow on a KISS2 finite
// state machine: symbolic (multi-valued) minimization, constraint
// generation, constraint satisfaction, and PLA emission.
//
//	fsmenc machine.kiss2              exact mixed-constraint encoding
//	fsmenc -input-only machine.kiss2  face constraints only
//	fsmenc -heuristic machine.kiss2   bounded-length heuristic at min length
//	fsmenc -gen bbsse                 use a built-in synthetic benchmark
//	fsmenc -pla machine.kiss2         also print the encoded, minimized PLA
//
// The -pipeline mode runs the composed end-to-end flow instead (symbolic
// minimization → constraints → encoding → espresso → BLIF → replay
// verification) and reports per-stage results:
//
//	fsmenc -pipeline machine.kiss2               text report (exact strategy)
//	fsmenc -pipeline -strategy nova -format json full pipeline.Report as JSON
//	fsmenc -pipeline -format md machine.kiss2    markdown summary table
//
// In -pipeline mode the exit status is non-zero when the replay check
// fails: a successful run certifies the emitted netlist.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/blif"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/fsm"
	"repro/internal/heuristic"
	"repro/internal/kiss"
	"repro/internal/mv"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/profiling"
	"repro/internal/trace"
)

func main() {
	inputOnly := flag.Bool("input-only", false, "generate face constraints only")
	useHeuristic := flag.Bool("heuristic", false, "use the bounded-length heuristic (minimum length)")
	gen := flag.String("gen", "", "use the named built-in synthetic benchmark instead of a file")
	emitKiss := flag.Bool("kiss", false, "print the (generated) machine in KISS2 and exit")
	pla := flag.Bool("pla", false, "print the encoded, minimized PLA")
	emitBlif := flag.Bool("blif", false, "print the encoded machine as a BLIF netlist")
	minimize := flag.Bool("minimize", false, "state-minimize the machine before encoding")
	timeout := flag.Duration("timeout", time.Minute, "time budget for the exact search")
	jobs := flag.Int("j", 0, "worker count for the parallel engines (0 = all CPUs, 1 = sequential); results are identical for any value unless a node or time budget cuts the search short")
	traceFlag := flag.Bool("trace", false, "print a per-stage time table to stderr after solving")
	runPipeline := flag.Bool("pipeline", false, "run the composed end-to-end pipeline and report per-stage results")
	strategy := flag.String("strategy", "exact", "pipeline encoding strategy: "+pipeline.StrategyList())
	format := flag.String("format", "text", "pipeline report format: text|json|md")
	flag.Parse()
	if err := profiling.Start(); err != nil {
		fatal(err)
	}
	defer profiling.Stop()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var rec *trace.Recorder
	if *traceFlag {
		ctx, rec = trace.Start(ctx)
		defer printTrace(rec)
	}

	var m *fsm.FSM
	var err error
	switch {
	case *gen != "":
		m, err = fsm.GenerateByName(*gen)
	case flag.NArg() > 0:
		var f *os.File
		if f, err = os.Open(flag.Arg(0)); err == nil {
			m, err = kiss.Parse(f)
			f.Close()
			if err == nil && m.Name == "" {
				base := filepath.Base(flag.Arg(0))
				m.Name = strings.TrimSuffix(base, filepath.Ext(base))
			}
		}
	default:
		m, err = kiss.Parse(os.Stdin)
	}
	if err != nil {
		fatal(err)
	}
	if err := m.Validate(); err != nil {
		fatal(err)
	}
	if *minimize {
		q, _, err := fsm.MinimizeStates(m)
		if err != nil {
			fatal(err)
		}
		if q.NumStates() < m.NumStates() {
			fmt.Printf("# state minimization: %d -> %d states\n", m.NumStates(), q.NumStates())
		}
		m = q
	}
	if *emitKiss {
		fmt.Print(kiss.Format(m))
		return
	}
	if *runPipeline {
		strat, ok := pipeline.ParseStrategy(*strategy)
		if !ok {
			fatal(fmt.Errorf("unknown strategy %q (want %s)", *strategy, pipeline.StrategyList()))
		}
		rep, err := pipeline.Run(ctx, m, pipeline.Options{
			Strategy:    strat,
			Parallelism: par.Parallelism{Workers: *jobs, TimeLimit: *timeout},
		})
		if err != nil {
			fatal(err)
		}
		switch *format {
		case "text":
			fmt.Print(rep.Text())
			if *emitBlif {
				fmt.Print(rep.BLIF)
			}
		case "json":
			fmt.Print(rep.JSON())
		case "md":
			fmt.Print(rep.Markdown())
		default:
			fatal(fmt.Errorf("unknown format %q (want text|json|md)", *format))
		}
		if rep.Replay != nil && !rep.Replay.OK {
			fatal(fmt.Errorf("netlist replay failed: %s", rep.Replay.Error))
		}
		return
	}

	var enc *core.Encoding
	switch {
	case *useHeuristic:
		cs := mv.InputConstraints(m)
		fmt.Printf("# %d states, %d transitions, %d face constraints\n",
			m.NumStates(), len(m.Trans), len(cs.Faces))
		res, err := heuristic.EncodeCtx(ctx, cs, heuristic.Options{Metric: cost.Cubes, Parallelism: par.Workers(*jobs)})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("# heuristic encoding: %d bits, %d violations, %d cubes\n",
			res.Encoding.Bits, res.Cost.Violations, res.Cost.Cubes)
		enc = res.Encoding
	case *inputOnly:
		cs := mv.InputConstraints(m)
		fmt.Printf("# %d states, %d transitions, %d face constraints\n",
			m.NumStates(), len(m.Trans), len(cs.Faces))
		res, err := core.ExactEncodeCtx(ctx, cs, core.ExactOptions{
			Parallelism: par.Parallelism{Workers: *jobs, TimeLimit: *timeout},
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("# exact input encoding: %d bits (%d primes)\n", res.Encoding.Bits, len(res.Primes))
		enc = res.Encoding
	default:
		cs := mv.GenerateConstraints(m, mv.OutputOptions{})
		fmt.Printf("# %d states, %d transitions, %d faces, %d dominance, %d disjunctive\n",
			m.NumStates(), len(m.Trans), len(cs.Faces), len(cs.Dominances), len(cs.Disjunctives))
		res, err := core.ExactEncodeCtx(ctx, cs, core.ExactOptions{
			Parallelism: par.Parallelism{Workers: *jobs, TimeLimit: *timeout},
		})
		if err != nil {
			fatal(err)
		}
		if v := core.Verify(cs, res.Encoding); len(v) != 0 {
			fatal(fmt.Errorf("internal error: encoding failed verification: %v", v[0]))
		}
		fmt.Printf("# exact mixed encoding: %d bits (%d primes)\n", res.Encoding.Bits, len(res.Primes))
		enc = res.Encoding
	}

	for s := 0; s < m.NumStates(); s++ {
		fmt.Printf(".code %s %s\n", m.States.Name(s), enc.CodeString(s))
	}

	if *pla {
		p := m.Encode(enc)
		before := p.Cubes()
		p.Minimize()
		fmt.Printf("# PLA: %d -> %d product terms, %d input literals\n",
			before, p.Cubes(), p.Literals())
		fmt.Print(p)
	}
	if *emitBlif {
		text, err := blif.Format(m, enc)
		if err != nil {
			fatal(err)
		}
		fmt.Print(text)
	}
}

// printTrace renders the recorded stage-time table on stderr, keeping
// stdout clean for the codes/PLA/BLIF output.
func printTrace(rec *trace.Recorder) {
	if rec == nil {
		return
	}
	t := rec.Snapshot()
	if t.Empty() {
		fmt.Fprintln(os.Stderr, "# trace: no stages recorded")
		return
	}
	fmt.Fprintln(os.Stderr, "# solve stages:")
	t.WriteTable(os.Stderr)
}

func fatal(err error) {
	profiling.Stop() // flush any requested profiles before the error exit
	fmt.Fprintln(os.Stderr, "fsmenc:", err)
	os.Exit(1)
}
