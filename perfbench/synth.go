package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/anneal"
	"repro/internal/blif"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cost"
	"repro/internal/fsm"
	"repro/internal/heuristic"
	"repro/internal/hypercube"
	"repro/internal/mv"
	"repro/internal/nova"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/trace"
)

// synthStrategies are the pipeline strategies the synth workload runs on
// every corpus machine. The sat strategy is left out: its syn10 and syn12
// runs take 13–18 s, and the SAT backend is measured by the exact workload.
var synthStrategies = []pipeline.Strategy{pipeline.Exact, pipeline.Heuristic, pipeline.Anneal, pipeline.Nova}

// table3Rows are the Table-3 rows whose heuristic (ENC) encodings the synth
// workload times; the dagger rows and donfile take far longer a row.
var table3Rows = []string{"dk512", "master", "bbsse", "kirkman", "cse", "s1", "dk16"}

// Table-3 ENC settings, as the paper's table runs them.
const (
	table3Restarts = 6
	table3Polish   = 15000
)

// replaySeed is the seed pipeline.Run replays its netlists with.
const replaySeed = 1

// synthOp is one operation of the synth workload: a pipeline run of a
// corpus machine under one strategy, or one Table-3 ENC encoding.
type synthOp struct {
	name     string
	m        *fsm.FSM
	strategy pipeline.Strategy // empty for a Table-3 row
	cs       *constraint.Set   // Table-3 rows: the input constraints
}

// synthResult is the deterministic part of an operation's output.
type synthResult struct {
	bits, rawCubes, cubes, literals int
	optimal                         bool
}

func buildSynthOps(cfg runConfig) ([]synthOp, error) {
	machines, err := corpus.Load(corpus.DefaultDir)
	if err != nil {
		return nil, err
	}
	var ops []synthOp
	for _, m := range machines {
		for _, s := range synthStrategies {
			ops = append(ops, synthOp{name: m.Name + "/" + string(s), m: m.FSM, strategy: s})
		}
	}
	for _, name := range table3Rows {
		m, err := fsm.GenerateByName(name)
		if err != nil {
			return nil, fmt.Errorf("synth: %w", err)
		}
		ops = append(ops, synthOp{name: "table3/" + name, m: m, cs: mv.InputConstraintsDC(m)})
	}
	rng := cfg.rng()
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops, nil
}

// annealSeed is the annealer's seed; the run's seed picks it, so each seed
// anneals along its own trajectory.
func annealSeed(cfg runConfig) int64 {
	if cfg.seed == 0 {
		return 1 // pipeline.Run's own default for 0
	}
	return cfg.seed
}

func runSynth(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	var ops []synthOp
	// Set-up loads the corpus, builds the Table-3 inputs and warms the
	// process with lion under every strategy and the smallest Table-3 row.
	setup, err := timeSetup(func() error {
		var err error
		if ops, err = buildSynthOps(cfg); err != nil {
			return err
		}
		for _, op := range ops {
			switch {
			case err != nil:
			case op.m.Name == "lion":
				_, _, err = runPipeline(context.Background(), cfg, op)
			case op.name == "table3/dk512":
				_, _, err = runTable3(context.Background(), nil, op)
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
	first := make([]*synthResult, len(ops))
	var (
		ps                               passStats
		pipeWalls, pipeGeos, table3Walls []float64
	)
	err = passes(cfg, func(traced bool) error {
		var lat, pipeLat []float64
		var table3Wall float64
		var bits, optimal, cubes, literals, t3lits int
		counts := map[string]float64{}
		passStart := len(tr.snapshot())
		var ptr *tracer // the tracer of this pass; nil when untraced
		if traced {
			ptr = tr
		}
		for i, op := range ops {
			out.attempted++
			var res synthResult
			var d time.Duration
			var err error
			switch {
			case op.strategy == "":
				res, d, err = runTable3(ctx, ptr, op)
			case traced:
				res, d, err = tracedPipeline(ctx, cfg, tr, op)
			default:
				res, d, err = runPipeline(ctx, cfg, op)
			}
			if err != nil {
				out.fail("%s: %v", op.name, err)
				continue
			}
			if first[i] == nil {
				first[i] = &res
			} else if *first[i] != res {
				out.fail("%s: %+v, earlier pass gave %+v", op.name, res, *first[i])
			}
			ms := float64(d) / 1e6
			lat = append(lat, ms)
			if !traced {
				ps.ref.sample()
			}
			bits += res.bits
			if op.strategy == "" {
				table3Wall += d.Seconds()
				t3lits += res.literals
				continue
			}
			pipeLat = append(pipeLat, ms)
			cubes += res.cubes
			literals += res.literals
			counts["espresso.raw_cubes"] += float64(res.rawCubes)
			if res.optimal {
				optimal++
			}
		}
		if traced {
			ps.traced(out, lat, tr.snapshot()[passStart:], counts)
			return nil
		}
		ps.untraced(lat)
		pipeWalls = append(pipeWalls, sum(pipeLat)/1000)
		pipeGeos = append(pipeGeos, geomean(pipeLat))
		table3Walls = append(table3Walls, table3Wall)
		out.determ["bits_total"] = float64(bits)
		out.determ["optimal_count"] = float64(optimal)
		out.determ["synth.cubes_total"] = float64(cubes)
		out.determ["synth.literals_total"] = float64(literals)
		out.determ["table3.literals_total"] = float64(t3lits)
		return nil
	})
	if err != nil {
		return nil, err
	}
	ps.finish(out, cfg, len(ops))
	out.e2e["bits_total"] = out.determ["bits_total"]
	out.e2e["optimal_count"] = out.determ["optimal_count"]
	out.layers["synth.pipeline_wall_s"] = median(pipeWalls)
	out.layers["synth.pipeline_geomean_ms"] = median(pipeGeos)
	out.layers["synth.table3_wall_s"] = median(table3Walls)
	out.layers["synth.cubes_total"] = out.determ["synth.cubes_total"]
	out.layers["synth.literals_total"] = out.determ["synth.literals_total"]
	if cfg.trace {
		out.determ["espresso.raw_cubes"] = out.layers["espresso.raw_cubes"]
		out.spans = tr.snapshot()
	}
	return out, nil
}

// runPipeline is the measured operation for a corpus machine: one
// pipeline.Run, whose netlist must replay against the machine.
func runPipeline(ctx context.Context, cfg runConfig, op synthOp) (synthResult, time.Duration, error) {
	t0 := time.Now()
	rep, err := pipeline.Run(ctx, op.m, pipeline.Options{
		Strategy:    op.strategy,
		Parallelism: par.Workers(1),
		AnnealSeed:  annealSeed(cfg),
	})
	d := time.Since(t0)
	if err != nil {
		return synthResult{}, d, err
	}
	if rep.Replay == nil || !rep.Replay.OK {
		return synthResult{}, d, fmt.Errorf("netlist does not replay: %+v", rep.Replay)
	}
	if op.strategy == pipeline.Exact && rep.Violations != 0 {
		return synthResult{}, d, fmt.Errorf("exact encoding violates %d face constraints", rep.Violations)
	}
	return synthResult{bits: rep.Bits, rawCubes: rep.RawCubes, cubes: rep.Cubes, literals: rep.Literals, optimal: rep.Optimal}, d, nil
}

// tracedPipeline runs pipeline.Run's stages through the exported function
// of each layer, with a span around each call. The caller checks that its
// bits, cubes and literals equal pipeline.Run's.
func tracedPipeline(ctx context.Context, cfg runConfig, tr *tracer, op synthOp) (synthResult, time.Duration, error) {
	t0 := time.Now()
	root := tr.start(0, "synth.pipeline")
	defer tr.end(root)
	step := func(name string, fn func() error) error {
		sp := tr.start(root, name)
		defer tr.end(sp)
		return fn()
	}
	m := op.m
	var res synthResult
	var sc *mv.SymbolicCover
	var cs *constraint.Set
	var enc *core.Encoding
	var pla *fsm.EncodedPLA
	var text string
	var nl *blif.Netlist
	err := step("fsm.validate", func() error {
		if err := m.Validate(); err != nil {
			return err
		}
		if !m.Deterministic() {
			return fmt.Errorf("machine %s is non-deterministic", m.Name)
		}
		return nil
	})
	if err == nil {
		err = step("mv.symbolic", func() error {
			sc = mv.Cover(m)
			sc.Minimize()
			return nil
		})
	}
	if err == nil {
		err = step("mv.constraints", func() error {
			cs = constraint.NewSet(m.States)
			sc.FaceConstraints(cs)
			if op.strategy == pipeline.Exact {
				sc.OutputConstraints(cs, mv.OutputOptions{})
			}
			return nil
		})
	}
	if err == nil {
		enc, res.optimal, err = tracedEncode(ctx, cfg, tr, root, op.strategy, cs)
	}
	if err == nil {
		err = step("fsm.encode", func() error {
			pla = m.Encode(enc)
			res.rawCubes = pla.Cubes()
			return nil
		})
	}
	if err == nil {
		err = step("espresso.minimize", func() error {
			pla.Minimize()
			res.cubes, res.literals = pla.Cubes(), pla.Literals()
			return nil
		})
	}
	if err == nil {
		err = step("blif.emit", func() (err error) {
			text, err = blif.FormatPLA(m, enc, pla)
			return err
		})
	}
	if err == nil {
		err = step("blif.parse", func() (err error) {
			nl, err = blif.ParseString(text)
			return err
		})
	}
	if err == nil {
		err = step("sim.replay", func() error {
			return sim.ReplayNetlist(m, nl, pipeline.DefaultVerifySequences, pipeline.DefaultVerifyLength, replaySeed)
		})
	}
	if err != nil {
		return synthResult{}, time.Since(t0), err
	}
	res.bits = enc.Bits
	return res, time.Since(t0), nil
}

// tracedEncode is the pipeline's encode stage under a span named after the
// encoder's layer.
func tracedEncode(ctx context.Context, cfg runConfig, tr *tracer, root int, s pipeline.Strategy, cs *constraint.Set) (*core.Encoding, bool, error) {
	switch s {
	case pipeline.Exact:
		sp := tr.start(root, "core.exact")
		defer tr.end(sp)
		res, err := core.ExactEncodeCtx(ctx, cs, core.ExactOptions{Parallelism: par.Workers(1)})
		if err != nil {
			return nil, false, err
		}
		if v := core.Verify(cs, res.Encoding); len(v) != 0 {
			return nil, false, fmt.Errorf("exact encoding fails verification: %v", v[0])
		}
		return res.Encoding, res.Optimal, nil
	case pipeline.Heuristic:
		res, err := tracedHeuristic(ctx, tr, root, cs, heuristic.Options{
			Parallelism: par.Workers(1),
			Bits:        hypercube.MinBits(cs.N()),
			Metric:      cost.Cubes,
		})
		if err != nil {
			return nil, false, err
		}
		return res.Encoding, false, nil
	case pipeline.Anneal:
		sp := tr.start(root, "anneal.encode")
		defer tr.end(sp)
		enc, _, err := anneal.Encode(cs, anneal.Options{Metric: cost.Cubes, Seed: annealSeed(cfg), UseCache: true})
		return enc, false, err
	case pipeline.Nova:
		sp := tr.start(root, "nova.encode")
		defer tr.end(sp)
		enc, err := nova.Encode(cs, nova.Options{})
		return enc, false, err
	}
	return nil, false, fmt.Errorf("unknown strategy %q", s)
}

// tracedHeuristic runs heuristic.EncodeCtx under a "heuristic.encode" span
// and files the encoder's own restart and polish spans under it. With a
// nil tracer it is the plain call.
func tracedHeuristic(ctx context.Context, tr *tracer, root int, cs *constraint.Set, opts heuristic.Options) (*heuristic.Result, error) {
	sp := tr.start(root, "heuristic.encode")
	defer tr.end(sp)
	if tr == nil {
		return heuristic.EncodeCtx(ctx, cs, opts)
	}
	epoch := time.Now()
	rctx, rec := trace.Start(ctx)
	res, err := heuristic.EncodeCtx(rctx, cs, opts)
	var fs []flat
	for _, s := range rec.Snapshot().Spans {
		if s.Name == "heuristic.restarts" || s.Name == "heuristic.polish" {
			fs = append(fs, flat{Name: s.Name, Start: epoch.Add(s.Start), End: epoch.Add(s.Start + s.Dur)})
		}
	}
	tr.addFlat(sp, fs)
	return res, err
}

// runTable3 is one Table-3 ENC encoding. The encoding must have minimum
// length, distinct codes, and the cost the encoder reports.
func runTable3(ctx context.Context, tr *tracer, op synthOp) (synthResult, time.Duration, error) {
	t0 := time.Now()
	root := tr.start(0, "synth.table3")
	res, err := tracedHeuristic(ctx, tr, root, op.cs, heuristic.Options{
		Parallelism:  par.Workers(1),
		Metric:       cost.Literals,
		Restarts:     table3Restarts,
		PolishBudget: table3Polish,
	})
	tr.end(root)
	d := time.Since(t0)
	if err != nil {
		return synthResult{}, d, err
	}
	enc := res.Encoding
	if want := hypercube.MinBits(op.cs.N()); enc.Bits != want {
		return synthResult{}, d, fmt.Errorf("%d bits, want the minimum %d", enc.Bits, want)
	}
	for _, v := range core.Verify(op.cs, enc) {
		if v.Kind == "uniqueness" || v.Kind == "arity" {
			return synthResult{}, d, fmt.Errorf("encoding fails verification: %v", v)
		}
	}
	if c := cost.Evaluate(op.cs, cost.FullAssignment(enc.Bits, enc.Codes)); c != res.Cost {
		return synthResult{}, d, fmt.Errorf("reported cost %+v, evaluated %+v", res.Cost, c)
	}
	return synthResult{bits: enc.Bits, literals: res.Cost.Literals}, d, nil
}
