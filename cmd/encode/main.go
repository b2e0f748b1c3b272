// Command encode solves encoding-constraint problems from the textual
// constraint language (see internal/constraint):
//
//	encode -check file.con          P-1: satisfiability (polynomial check)
//	encode file.con                 P-2: exact minimum-length codes
//	encode -bits 4 -metric cubes f  P-3: bounded-length heuristic encoding
//
// With no file argument, constraints are read from standard input.
//
// With -remote, the same problems are sent to a running served instance
// instead of solved in-process; -async additionally submits the solve as
// a job and long-polls for the result, exercising the service's async
// surface from the command line.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"repro/encodingapi"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/heuristic"
	"repro/internal/par"
	"repro/internal/prime"
	"repro/internal/profiling"
	"repro/internal/trace"
)

func main() {
	check := flag.Bool("check", false, "only decide satisfiability (P-1)")
	bits := flag.Int("bits", 0, "fixed code length: switches to the P-3 heuristic")
	metric := flag.String("metric", "violations", "P-3 cost metric: violations, cubes or literals")
	primeLimit := flag.Int("primes", prime.DefaultLimit, "maximal-compatible limit for the exact encoder")
	timeout := flag.Duration("timeout", time.Minute, "time budget for the exact search")
	jobs := flag.Int("j", 0, "worker count for the parallel engines (0 = all CPUs, 1 = sequential); results are identical for any value unless a node or time budget cuts the search short")
	verbose := flag.Bool("v", false, "print pipeline details")
	traceFlag := flag.Bool("trace", false, "print a per-stage time table to stderr after solving")
	decompose := flag.Bool("decompose", false, "solve the exact problem by connected-component decomposition")
	backendFlag := flag.String("backend", "", "exact-mode unate covering backend: bb (branch-and-bound, default) or sat")
	remote := flag.String("remote", "", "solve via a running served instance at this base URL (e.g. http://localhost:8080)")
	async := flag.Bool("async", false, "with -remote: submit as an async job and long-poll for the result")
	apiKey := flag.String("api-key", "", "with -remote: tenant credential sent as the bearer token")
	flag.Parse()
	if err := profiling.Start(); err != nil {
		fatal(err)
	}
	defer profiling.Stop()

	backend, ok := core.ParseBackend(*backendFlag)
	if !ok {
		fatal(fmt.Errorf("unknown backend %q (want bb or sat)", *backendFlag))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var rec *trace.Recorder
	if *traceFlag {
		ctx, rec = trace.Start(ctx)
		defer printTrace(rec)
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	text, err := io.ReadAll(in)
	if err != nil {
		fatal(err)
	}

	if *remote != "" {
		runRemote(ctx, remoteOptions{
			baseURL:   *remote,
			apiKey:    *apiKey,
			async:     *async,
			text:      string(text),
			check:     *check,
			bits:      *bits,
			metric:    *metric,
			primes:    *primeLimit,
			timeout:   *timeout,
			workers:   *jobs,
			decompose: *decompose,
			backend:   *backendFlag,
		})
		return
	}
	if *async {
		fatal(fmt.Errorf("-async requires -remote"))
	}

	cs, err := constraint.ParseString(string(text))
	if err != nil {
		fatal(err)
	}

	if *check {
		f := core.CheckFeasibleCtx(ctx, cs)
		if f.Feasible {
			fmt.Println("SATISFIABLE")
			return
		}
		fmt.Println("UNSATISFIABLE")
		for _, d := range f.Uncovered {
			fmt.Printf("uncovered: %s\n", d.Format(cs.Syms))
		}
		printTrace(rec) // os.Exit skips the deferred print
		os.Exit(1)
	}

	if *bits > 0 {
		m, ok := encodingapi.ParseMetric(*metric)
		if !ok {
			fatal(fmt.Errorf("unknown metric %q", *metric))
		}
		res, err := heuristic.EncodeCtx(ctx, cs, heuristic.Options{Bits: *bits, Metric: m, Parallelism: par.Workers(*jobs)})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("# bounded-length heuristic, %d bits, metric %s\n", *bits, m)
		fmt.Printf("# violations=%d cubes=%d literals=%d\n",
			res.Cost.Violations, res.Cost.Cubes, res.Cost.Literals)
		fmt.Print(res.Encoding)
		return
	}

	exact := encodingapi.ExactEncode
	if *decompose {
		exact = encodingapi.ExactEncodeDecomposed
	}
	res, err := exact(ctx, cs, core.ExactOptions{
		Prime:       prime.Options{Limit: *primeLimit},
		Parallelism: par.Parallelism{Workers: *jobs, TimeLimit: *timeout},
		Backend:     backend,
	})
	if err != nil {
		fatal(err)
	}
	if *decompose && *verbose {
		fmt.Printf("# components=%d\n", encodingapi.DecompCount(cs))
	}
	if *verbose {
		fmt.Printf("# seeds=%d raised=%d primes=%d optimal=%v\n",
			len(res.Seeds), len(res.Raised), len(res.Primes), res.Optimal)
	}
	if v := core.Verify(cs, res.Encoding); len(v) != 0 {
		fatal(fmt.Errorf("internal error: encoding failed verification: %v", v[0]))
	}
	fmt.Printf("# exact minimum-length encoding, %d bits\n", res.Encoding.Bits)
	fmt.Print(res.Encoding)
}

// remoteOptions carries the CLI flags that shape a remote solve.
type remoteOptions struct {
	baseURL, apiKey string
	async           bool
	text            string
	check           bool
	bits            int
	metric          string
	primes          int
	timeout         time.Duration
	workers         int
	decompose       bool
	backend         string
}

// runRemote routes the solve through a served instance. The synchronous
// path is one POST /v1/encode; the async path submits a job and
// long-polls until it is terminal, so arbitrarily slow solves survive
// client-side HTTP timeouts.
func runRemote(ctx context.Context, opt remoteOptions) {
	c := encodingapi.NewClient(opt.baseURL)
	c.APIKey = opt.apiKey
	req := encodingapi.EncodeRequest{
		Constraints: opt.text,
		PrimeLimit:  opt.primes,
		TimeoutMS:   int(opt.timeout / time.Millisecond),
		Workers:     opt.workers,
	}
	switch {
	case opt.check:
		req.Mode = "feasible"
	case opt.bits > 0:
		req.Mode = "heuristic"
		req.Bits = opt.bits
		req.Metric = opt.metric
	default:
		req.Mode = "exact"
		req.Decompose = opt.decompose
		req.Backend = opt.backend
	}

	var res *encodingapi.EncodeResult
	if opt.async {
		job, err := c.Submit(ctx, encodingapi.JobRequest{Encode: &req})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "encode: job %s submitted, waiting\n", job.ID)
		done, err := c.Wait(ctx, job.ID)
		if err != nil {
			fatal(err)
		}
		if err := done.Err(); err != nil {
			fatal(err)
		}
		res = done.Result
	} else {
		var err error
		if res, err = c.Encode(ctx, req); err != nil {
			fatal(err)
		}
	}

	switch req.Mode {
	case "feasible":
		if res.Feasible {
			fmt.Println("SATISFIABLE")
			return
		}
		fmt.Println("UNSATISFIABLE")
		for _, u := range res.Uncovered {
			fmt.Printf("uncovered: %s\n", u)
		}
		os.Exit(1)
	case "heuristic":
		fmt.Printf("# bounded-length heuristic, %d bits, metric %s\n", res.Bits, opt.metric)
		if res.Cost != nil {
			fmt.Printf("# violations=%d cubes=%d literals=%d\n",
				res.Cost.Violations, res.Cost.Cubes, res.Cost.Literals)
		}
		fmt.Print(res.Text)
	default:
		fmt.Printf("# exact minimum-length encoding, %d bits\n", res.Bits)
		fmt.Print(res.Text)
	}
}

// printTrace renders the recorded stage-time table on stderr, keeping
// stdout clean for the encoding itself.
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
	fmt.Fprintln(os.Stderr, "encode:", err)
	os.Exit(1)
}
