package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/dichotomy"
	"repro/internal/fsm"
	"repro/internal/gen"
	"repro/internal/hypercube"
	"repro/internal/mv"
	"repro/internal/par"
	"repro/internal/prime"
	"repro/internal/sat"
	"repro/internal/trace"
)

// exactRows is the branch-and-bound slice: the mid-size Table-1 rows. The
// work per row is bounded by the deterministic cover node budget, not by
// a clock. sand, tbk, dk16 and keyb are left out: at 4–31 s a row they
// are too slow to repeat, and they hit the same node budget, so a cover
// speed-up shows on these rows too.
var exactRows = []string{"master", "kirkman", "dk512", "s1a", "exlinp", "cse"}

// exactPrimeLimit is the paper's maximal-compatible cut-off for Table 1.
const exactPrimeLimit = 50000

// satSizes and satPerSize fix the SAT slice: generated instances of 6 to
// 10 symbols, the only place the SAT backend is measured. The instances
// are the same at every seed: SAT solve times are heavy-tailed across
// instances, so a per-seed draw would let a single instance move the
// slice's time by more than any bound worth setting. The seed orders the
// solves instead.
var satSizes = []int{6, 7, 8, 9, 10}

const satPerSize = 6

// satInstanceSeed is the gen seed of the i-th instance of a size.
func satInstanceSeed(n, i int) int64 { return int64(1000*n + i) }

// exactOp is one solve of the exact workload.
type exactOp struct {
	name string
	sat  bool
	// bb rows: the machine and its Table-1 output-constraint budget.
	m   *fsm.FSM
	out mv.OutputOptions
	// sat instances: the set and the bits of the generator's witness.
	cs          *constraint.Set
	witnessBits int
}

func (op exactOp) options() core.ExactOptions {
	opts := core.ExactOptions{Parallelism: par.Workers(1)}
	if op.sat {
		opts.Backend = core.BackendSAT
	} else {
		opts.Prime.Limit = exactPrimeLimit
	}
	return opts
}

// stageOptions fills the prime and cover options from the solve's
// parallelism as core.ExactEncodeCtx does, so the traced rebuild runs the
// same engines as the timed solve.
func (op exactOp) stageOptions() (prime.Options, cover.Options) {
	opts := op.options()
	p, c := opts.Prime, opts.Cover
	p.Parallelism = p.Parallelism.FillFrom(opts.Parallelism)
	c.Parallelism = c.Parallelism.FillFrom(opts.Parallelism)
	return p, c
}

// exactResult is what one solve produced.
type exactResult struct {
	bits    int
	optimal bool
}

func buildExactOps(cfg runConfig) ([]exactOp, error) {
	var ops []exactOp
	for _, name := range exactRows {
		var out mv.OutputOptions
		found := false
		for _, c := range bench.Table1Benchmarks {
			if c.Name == name {
				out, found = c.Out, true
			}
		}
		if !found {
			return nil, fmt.Errorf("exact: Table-1 row %s not found", name)
		}
		m, err := fsm.GenerateByName(name)
		if err != nil {
			return nil, fmt.Errorf("exact: %w", err)
		}
		ops = append(ops, exactOp{name: name, m: m, out: out})
	}
	for _, n := range satSizes {
		for i := 0; i < satPerSize; i++ {
			in := gen.Random(satInstanceSeed(n, i), gen.DefaultConfig(n))
			ops = append(ops, exactOp{
				name: fmt.Sprintf("gen%d.%d", n, i), sat: true,
				cs: in.Set, witnessBits: in.Witness.Bits,
			})
		}
	}
	rng := cfg.rng()
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops, nil
}

func runExact(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	var ops []exactOp
	// Set-up builds the inputs and warms the process with the smallest
	// Table-1 row and one SAT instance.
	setup, err := timeSetup(func() error {
		var err error
		if ops, err = buildExactOps(cfg); err != nil {
			return err
		}
		for _, op := range ops {
			if err == nil && (op.name == "master" || op.name == "gen6.0") {
				_, _, err = solveExact(context.Background(), op)
			}
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	out.e2e["setup_s"] = setup.Seconds()

	ctx := context.Background()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	// first holds each op's untraced result, which every later pass and
	// the traced re-implementation must reproduce.
	first := make([]*exactResult, len(ops))
	var (
		ps                passStats
		bbWalls, satWalls []float64
	)
	err = passes(cfg, func(traced bool) error {
		var lat []float64
		var bbWall, satWall float64
		bits, optimal := 0, 0
		counts := map[string]float64{}
		passStart := len(tr.snapshot())
		for i, op := range ops {
			out.attempted++
			var res exactResult
			var d time.Duration
			var err error
			if traced {
				res, d, err = tracedExact(ctx, tr, op, counts)
			} else {
				res, d, err = solveExact(ctx, op)
			}
			if err != nil {
				out.fail("%s: %v", op.name, err)
				continue
			}
			if first[i] == nil {
				first[i] = &res
			} else if *first[i] != res {
				out.fail("%s: bits=%d optimal=%v, earlier pass gave bits=%d optimal=%v",
					op.name, res.bits, res.optimal, first[i].bits, first[i].optimal)
			}
			lat = append(lat, float64(d)/1e6)
			if !traced {
				ps.ref.sample()
			}
			if op.sat {
				satWall += d.Seconds()
			} else {
				bbWall += d.Seconds()
			}
			bits += res.bits
			if res.optimal {
				optimal++
			}
		}
		if traced {
			ps.traced(out, lat, tr.snapshot()[passStart:], counts)
			return nil
		}
		ps.untraced(lat)
		bbWalls = append(bbWalls, bbWall)
		satWalls = append(satWalls, satWall)
		out.determ["bits_total"] = float64(bits)
		out.determ["optimal_count"] = float64(optimal)
		return nil
	})
	if err != nil {
		return nil, err
	}
	ps.finish(out, cfg, len(ops))
	out.e2e["bits_total"] = out.determ["bits_total"]
	out.e2e["optimal_count"] = out.determ["optimal_count"]
	out.layers["exact.bb_wall_s"] = median(bbWalls)
	out.layers["exact.sat_wall_s"] = median(satWalls)
	if cfg.trace {
		for _, k := range []string{"prime.primes", "cover.nodes", "core.matrix_cells", "sat.budget_hits"} {
			out.determ[k] = out.layers[k]
		}
		if nodes := out.layers["cover.nodes"]; nodes > 0 {
			out.layers["cover.ns_per_node"] = out.layers["cover.solve_s"] * 1e9 / nodes
		}
		out.spans = tr.snapshot()
	}
	return out, nil
}

// solveExact is the measured operation: constraint generation for a bb
// row, then core.ExactEncodeCtx. Only the solve is timed; the checks are
// not.
func solveExact(ctx context.Context, op exactOp) (exactResult, time.Duration, error) {
	t0 := time.Now()
	cs := op.cs
	if !op.sat {
		cs = mv.GenerateConstraints(op.m, op.out)
	}
	res, err := core.ExactEncodeCtx(ctx, cs, op.options())
	d := time.Since(t0)
	if err != nil {
		return exactResult{}, d, err
	}
	r := exactResult{bits: res.Encoding.Bits, optimal: res.Optimal}
	return r, d, checkExact(ctx, op, cs, res.Encoding, r)
}

// checkExact verifies a solve's encoding; for SAT instances it also needs
// no more bits than the generator's witness and, when branch-and-bound
// also proves optimality, the same bits.
func checkExact(ctx context.Context, op exactOp, cs *constraint.Set, enc *core.Encoding, r exactResult) error {
	if v := core.Verify(cs, enc); len(v) != 0 {
		return fmt.Errorf("encoding fails verification: %v", v[0])
	}
	if !op.sat {
		return nil
	}
	if r.bits > op.witnessBits {
		return fmt.Errorf("%d bits, the witness needs only %d", r.bits, op.witnessBits)
	}
	bb, err := core.ExactEncodeCtx(ctx, cs, core.ExactOptions{Parallelism: par.Workers(1)})
	if err != nil {
		return fmt.Errorf("branch-and-bound cross-check: %w", err)
	}
	if bb.Optimal && r.optimal && bb.Encoding.Bits != r.bits {
		return fmt.Errorf("SAT proves %d bits optimal, branch-and-bound %d", r.bits, bb.Encoding.Bits)
	}
	return nil
}

// tracedExact re-runs core.ExactEncodeCtx's stages through the exported
// functions of each layer, with a span around each call, and adds the
// layer counts to counts. Its result must equal the untraced solve's.
func tracedExact(ctx context.Context, tr *tracer, op exactOp, counts map[string]float64) (exactResult, time.Duration, error) {
	kind := "exact.bb"
	if op.sat {
		kind = "exact.sat"
	}
	t0 := time.Now()
	root := tr.start(0, kind)
	defer tr.end(root)
	cs := op.cs
	if !op.sat {
		sp := tr.start(root, "mv.constraints")
		cs = mv.GenerateConstraints(op.m, op.out)
		tr.end(sp)
	}
	primeOpts, coverOpts := op.stageOptions()

	sp := tr.start(root, "core.seeds")
	seeds := dichotomy.Initial(cs)
	raised := dichotomy.ValidRaised(seeds, cs)
	for _, s := range seeds {
		if !dichotomy.CoveredBySome(s, raised) {
			tr.end(sp)
			return exactResult{}, time.Since(t0), core.ErrInfeasible
		}
	}
	tr.end(sp)

	sp = tr.start(root, "prime.generate")
	primes, err := prime.GenerateCtx(ctx, raised, primeOpts)
	tr.end(sp)
	if err != nil {
		return exactResult{}, time.Since(t0), err
	}
	counts["prime.primes"] += float64(len(primes))

	sp = tr.start(root, "core.candidates")
	cands := dedupeOriented(append(dichotomy.ValidRaised(primes, cs), raised...))
	tr.end(sp)

	sp = tr.start(root, "core.matrix")
	rows := dichotomy.Rows(seeds)
	p := cover.Problem{NumCols: len(cands), RowCols: make([][]int, len(rows))}
	for ri, r := range rows {
		for ci, c := range cands {
			if c.Covers(r) {
				p.RowCols[ri] = append(p.RowCols[ri], ci)
			}
		}
	}
	tr.end(sp)
	counts["core.matrix_cells"] += float64(len(rows) * len(cands))

	coverOpts.LowerBound = hypercube.MinBits(cs.N())
	var sol cover.Solution
	if op.sat {
		sp = tr.start(root, "sat.solve")
		sol, err = sat.SolveCoverCtx(ctx, &p, sat.CoverOptions{LowerBound: coverOpts.LowerBound, TimeLimit: coverOpts.TimeLimit})
		tr.end(sp)
		if err == nil && !sol.Optimal {
			counts["sat.budget_hits"]++
		}
	} else {
		// The cover layer reports its node count on its own trace span.
		rctx, rec := trace.Start(ctx)
		sp = tr.start(root, "cover.solve")
		sol, err = p.SolveExactCtx(rctx, coverOpts)
		tr.end(sp)
		if cs, ok := rec.Snapshot().Find("cover.solve"); ok {
			nodes, _ := cs.Attr("nodes")
			counts["cover.nodes"] += float64(nodes)
		}
	}
	if err != nil {
		return exactResult{}, time.Since(t0), err
	}
	cols := make([]dichotomy.D, len(sol.Cols))
	for i, c := range sol.Cols {
		cols[i] = cands[c]
	}
	enc := core.FromColumns(cs.Syms, cols)
	d := time.Since(t0)
	// The check is not part of the operation: it runs after the root span
	// closes, so it adds to neither the traced nor the attributed time.
	tr.end(root)
	r := exactResult{bits: enc.Bits, optimal: sol.Optimal}
	return r, d, checkExact(ctx, op, cs, enc, r)
}

// dedupeOriented drops repeated dichotomies, keeping first occurrences, as
// the exact encoder does with its candidate columns.
func dedupeOriented(ds []dichotomy.D) []dichotomy.D {
	seen := make(map[string]bool, len(ds))
	var out []dichotomy.D
	for _, d := range ds {
		if k := d.Key(); !seen[k] {
			seen[k] = true
			out = append(out, d)
		}
	}
	return out
}
