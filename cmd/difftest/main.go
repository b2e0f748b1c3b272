// Command difftest is the randomized differential-testing driver: it
// generates seeded instances across every family the harness knows —
// feasible-by-construction mixed constraint sets, unrestricted sets,
// extended (distance-2/non-face) sets, random FSMs through symbolic
// minimization, and random symbolic output functions through the GPI
// pipeline — and checks the cross-solver invariant matrix on each
// (see internal/diffcheck).
//
//	difftest -seeds 500 -j 4          500 instances per family, 4 at a time
//	difftest -size 8 -mode set        only the constraint-set family, 8 symbols
//	difftest -seed 1234 -seeds 1      replay one instance
//	difftest -backend sat             SAT-backend solves primary, bb as comparator
//
// On a failure the instance is shrunk to a minimal reproducer and printed
// in the textual constraint language `constraint.Parse` accepts, so it can
// be replayed with `encode` or pinned as a regression test verbatim.
// Exit status is 1 when any invariant was violated.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/diffcheck"
	"repro/internal/gen"
	"repro/internal/par"
)

type family struct {
	name string
	run  func(ctx context.Context, seed int64, size int, opts diffcheck.Options) diffcheck.Report
}

var families = []family{
	{"feasible", func(ctx context.Context, seed int64, size int, opts diffcheck.Options) diffcheck.Report {
		inst := gen.Random(seed, gen.DefaultConfig(size))
		return diffcheck.CheckSet(ctx, inst.Set, inst.Witness, opts)
	}},
	{"unrestricted", func(ctx context.Context, seed int64, size int, opts diffcheck.Options) diffcheck.Report {
		cfg := gen.DefaultConfig(size)
		cfg.Feasible = false
		inst := gen.Random(seed, cfg)
		return diffcheck.CheckSet(ctx, inst.Set, nil, opts)
	}},
	{"extended", func(ctx context.Context, seed int64, size int, opts diffcheck.Options) diffcheck.Report {
		cfg := gen.DefaultConfig(size)
		cfg.Distance2s = 2
		cfg.NonFaces = 1
		inst := gen.Random(seed, cfg)
		return diffcheck.CheckSet(ctx, inst.Set, inst.Witness, opts)
	}},
	{"multicomponent", func(ctx context.Context, seed int64, size int, opts diffcheck.Options) diffcheck.Report {
		cfg := gen.DefaultConfig(size)
		cfg.Components = 2
		inst := gen.Random(seed, cfg)
		return diffcheck.CheckSet(ctx, inst.Set, inst.Witness, opts)
	}},
	{"fsm", func(ctx context.Context, seed int64, size int, opts diffcheck.Options) diffcheck.Report {
		m := gen.RandomFSM(seed, gen.DefaultFSMConfig(size))
		return diffcheck.CheckFSM(ctx, m, opts)
	}},
	{"gpi", func(ctx context.Context, seed int64, size int, opts diffcheck.Options) diffcheck.Report {
		return diffcheck.CheckFunction(ctx, gen.RandomFunction(seed, gen.DefaultFunctionConfig()), opts)
	}},
}

func main() {
	seeds := flag.Int("seeds", 100, "instances to check per family")
	baseSeed := flag.Int64("seed", 1, "first seed (seed i of a family is seed+i)")
	size := flag.Int("size", 6, "instance size (symbols / FSM states)")
	timeout := flag.Duration("timeout", 20*time.Second, "per-solver budget")
	jobs := flag.Int("j", 1, "instances checked concurrently")
	mode := flag.String("mode", "all", "family to run: all|feasible|unrestricted|extended|multicomponent|fsm|gpi")
	noAnneal := flag.Bool("no-anneal", false, "skip the annealing comparator")
	backendFlag := flag.String("backend", "", "primary unate covering backend for the exact solves: bb (default) or sat; the matrix always re-solves with the other one")
	verbose := flag.Bool("v", false, "print one line per instance")
	flag.Parse()
	backend, ok := core.ParseBackend(*backendFlag)
	if !ok {
		fmt.Fprintf(os.Stderr, "difftest: unknown -backend %q (want bb or sat)\n", *backendFlag)
		os.Exit(2)
	}

	selected := families
	if *mode != "all" {
		selected = nil
		for _, f := range families {
			if f.name == *mode {
				selected = []family{f}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "difftest: unknown -mode %q\n", *mode)
			os.Exit(2)
		}
	}

	opts := diffcheck.Options{Timeout: *timeout, SkipAnneal: *noAnneal, Backend: backend}
	type job struct {
		fam  family
		seed int64
	}
	type failed struct {
		fam    string
		seed   int64
		report diffcheck.Report
	}
	var all []job
	for _, f := range selected {
		for i := 0; i < *seeds; i++ {
			all = append(all, job{f, *baseSeed + int64(i)})
		}
	}
	var mu sync.Mutex
	var failures []failed
	checked, skipped := 0, 0

	start := time.Now()
	par.ForEach(len(all), *jobs, func(i int) {
		jb := all[i]
		rep := jb.fam.run(context.Background(), jb.seed, *size, opts)
		mu.Lock()
		defer mu.Unlock()
		checked++
		skipped += len(rep.Skipped)
		if !rep.OK() {
			failures = append(failures, failed{jb.fam.name, jb.seed, rep})
		}
		if *verbose {
			status := "ok"
			if !rep.OK() {
				status = "FAIL"
			}
			fmt.Printf("%-12s seed=%-6d feasible=%-5v bits=%-2d %s\n",
				jb.fam.name, jb.seed, rep.Feasible, rep.ExactBits, status)
		}
	})

	sort.Slice(failures, func(i, j int) bool {
		if failures[i].fam != failures[j].fam {
			return failures[i].fam < failures[j].fam
		}
		return failures[i].seed < failures[j].seed
	})
	fmt.Printf("difftest: %d instances across %d families in %v: %d invariant violations, %d stages skipped on budget\n",
		checked, len(selected), time.Since(start).Round(time.Millisecond), len(failures), skipped)

	for _, f := range failures {
		fmt.Printf("\nFAIL %s seed=%d:\n%s", f.fam, f.seed, indent(f.report.String()))
		printReproducer(f.fam, f.seed, *size, opts)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
}

// printReproducer re-generates a failing constraint-set instance, shrinks
// it, and prints it in Parse-able syntax. FSM and GPI failures replay from
// the seed instead: their instances are not constraint sets.
func printReproducer(fam string, seed int64, size int, opts diffcheck.Options) {
	var inst gen.Instance
	switch fam {
	case "feasible":
		inst = gen.Random(seed, gen.DefaultConfig(size))
	case "unrestricted":
		cfg := gen.DefaultConfig(size)
		cfg.Feasible = false
		inst = gen.Random(seed, cfg)
	case "extended":
		cfg := gen.DefaultConfig(size)
		cfg.Distance2s = 2
		cfg.NonFaces = 1
		inst = gen.Random(seed, cfg)
	case "multicomponent":
		cfg := gen.DefaultConfig(size)
		cfg.Components = 2
		inst = gen.Random(seed, cfg)
	default:
		fmt.Printf("  replay with: difftest -mode %s -seed %d -seeds 1 -size %d\n", fam, seed, size)
		return
	}
	shrunk := diffcheck.Shrink(context.Background(), inst.Set, inst.Witness, opts)
	fmt.Printf("  shrunk reproducer (invariant %q):\n%s", shrunk.Invariant, indent(shrunk.Set.Format()))
	if shrunk.Witness != nil {
		fmt.Printf("  witness:\n%s", indent(shrunk.Witness.String()))
	}
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "    " + strings.Join(lines, "\n    ") + "\n"
}
