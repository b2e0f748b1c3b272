// Package pipeline composes the repository's synthesis stages into the
// paper's end-to-end flow: a KISS2 state transition table is symbolically
// minimized (internal/mv), encoding constraints are extracted, codes are
// assigned by one of five strategies (exact P-2 under either covering
// backend — branch-and-bound or CNF/SAT — bounded-length heuristic P-3,
// simulated annealing, NOVA-style greedy placement), the encoded
// machine is lowered to a minimized two-level PLA (internal/espresso via
// fsm.Encode), emitted as a BLIF netlist (internal/blif), and — closing the
// loop — the netlist is parsed back and replayed against the input machine
// (internal/sim.ReplayNetlist).
//
// Every stage is timed and recorded in the returned Report, and when the
// caller's context carries a trace recorder (internal/trace) each stage
// also opens a "pipeline.<stage>" span, so the service's /v1/trace view
// decomposes pipeline requests exactly like encode requests.
//
// The Report's deterministic fields (everything except the elapsed times)
// are identical for any worker count and across runs whenever the encode
// stage's search completes: the strategies are deterministic by
// construction (the annealer is seeded), which is what lets
// cmd/paper regenerate the EXPERIMENTS.md tables byte-identically
// from the committed corpus. An exact encode that a node or time budget
// cut short (not optimal) may differ between worker counts and runs.
package pipeline

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/anneal"
	"repro/internal/blif"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/decomp"
	"repro/internal/fsm"
	"repro/internal/heuristic"
	"repro/internal/hypercube"
	"repro/internal/kiss"
	"repro/internal/mv"
	"repro/internal/nova"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Strategy selects the state-assignment algorithm of the encode stage.
type Strategy string

// The encoding strategies the paper's tables compare: the exact P-2
// encoder and the three input-constraint comparison encoders.
const (
	Exact     Strategy = "exact"     // P-2: minimum length satisfying all constraints
	Heuristic Strategy = "heuristic" // P-3: bounded length, split/merge/select
	Anneal    Strategy = "anneal"    // simulated annealing (MIS-MV style), seeded
	Nova      Strategy = "nova"      // NOVA-style greedy placement + polish
)

// Strategies lists every strategy in canonical comparison order.
var Strategies = []Strategy{Exact, Heuristic, Anneal, Nova}

// ParseStrategy resolves a strategy name.
func ParseStrategy(name string) (Strategy, bool) {
	switch Strategy(name) {
	case Exact, Heuristic, Anneal, Nova:
		return Strategy(name), true
	}
	return "", false
}

// StrategyList renders the strategy names for usage and error messages.
func StrategyList() string {
	names := make([]string, len(Strategies))
	for i, s := range Strategies {
		names[i] = string(s)
	}
	return strings.Join(names, "|")
}

// Options configures a pipeline run.
type Options struct {
	// Strategy selects the encoder; default Exact.
	Strategy Strategy
	// MinimizeStates state-minimizes the machine before synthesis.
	MinimizeStates bool
	// Parallelism flows into the encode stage's engines. Results are
	// identical for any Workers value whenever the search completes;
	// TimeLimit bounds the exact search's wall clock (anytime: the
	// incumbent is returned with Optimal=false, and such a truncated
	// result may differ between worker counts and runs).
	Parallelism par.Parallelism
	// AnnealSeed seeds the annealing strategy; 0 means 1. Fixed seeds
	// keep anneal rows reproducible.
	AnnealSeed int64
}

// The replay check compares DefaultVerifySequences random defined-input
// walks of DefaultVerifyLength steps between the symbolic machine and the
// synthesized netlist: 16 walks of 64 steps visit every reachable
// transition of the corpus machines many times over.
const (
	DefaultVerifySequences = 16
	DefaultVerifyLength    = 64
	replaySeed             = 1
)

// Run executes the full pipeline on a parsed machine.
func Run(ctx context.Context, m *fsm.FSM, opts Options) (*Report, error) {
	if opts.Strategy == "" {
		opts.Strategy = Exact
	}
	if _, ok := ParseStrategy(string(opts.Strategy)); !ok {
		return nil, fmt.Errorf("pipeline: unknown strategy %q", opts.Strategy)
	}

	rep := &Report{Machine: m.Name, Strategy: string(opts.Strategy)}
	start := time.Now()
	defer func() { rep.ElapsedMS = ms(time.Since(start)) }()

	stage := func(name string, fn func() error) error {
		sp := trace.StartSpan(ctx, "pipeline."+name)
		t0 := time.Now()
		err := fn()
		sp.SetBool("failed", err != nil).End()
		rep.Stages = append(rep.Stages, StageStat{Name: name, ElapsedMS: ms(time.Since(t0))})
		if err != nil {
			return fmt.Errorf("pipeline: stage %s: %w", name, err)
		}
		return ctx.Err()
	}

	// validate: structural sanity, determinism (the replay oracle needs
	// it), optional state minimization.
	if err := stage("validate", func() error {
		if err := m.Validate(); err != nil {
			return err
		}
		if !m.Deterministic() {
			return fmt.Errorf("machine %s is non-deterministic", m.Name)
		}
		rep.States = m.NumStates()
		if opts.MinimizeStates {
			q, _, err := fsm.MinimizeStates(m)
			if err != nil {
				return err
			}
			m = q
		}
		rep.EncodedStates = m.NumStates()
		rep.Inputs, rep.Outputs, rep.Transitions = m.NumInputs, m.NumOutputs, len(m.Trans)
		return nil
	}); err != nil {
		return rep, err
	}

	// symbolic: multi-valued minimization of the transition table.
	var sc *mv.SymbolicCover
	if err := stage("symbolic", func() error {
		sc = mv.Cover(m)
		sc.Minimize()
		rep.SymbolicCubes = len(sc.Cubes)
		return nil
	}); err != nil {
		return rep, err
	}

	// constraints: face constraints for every strategy; the exact path
	// additionally extracts dominance/disjunctive output constraints
	// (the three comparison strategies are input-constraint encoders).
	var cs *constraint.Set
	if err := stage("constraints", func() error {
		cs = constraint.NewSet(m.States)
		sc.FaceConstraints(cs)
		if opts.Strategy == Exact {
			sc.OutputConstraints(cs, mv.OutputOptions{})
		}
		rep.Faces = len(cs.Faces)
		rep.Dominances = len(cs.Dominances)
		rep.Disjunctives = len(cs.Disjunctives)
		rep.Components = decomp.Count(cs)
		return nil
	}); err != nil {
		return rep, err
	}

	// encode: state assignment under the selected strategy.
	var enc *core.Encoding
	if err := stage("encode", func() error {
		var err error
		enc, err = encode(ctx, cs, rep, opts)
		if err != nil {
			return err
		}
		rep.Bits = enc.Bits
		// Violated face constraints are the strategy-neutral satisfaction
		// figure: output constraints are only handed to the exact
		// strategy, so faces are the common denominator of the
		// comparison tables. CountViolations reads only the faces.
		rep.Violations = cost.CountViolations(cs, cost.FullAssignment(enc.Bits, enc.Codes))
		rep.Codes = make(map[string]string, m.NumStates())
		for s := 0; s < m.NumStates(); s++ {
			rep.Codes[m.States.Name(s)] = enc.CodeString(s)
		}
		return nil
	}); err != nil {
		return rep, err
	}

	// espresso: lower through the encoding and minimize the two-level
	// cover.
	var pla *fsm.EncodedPLA
	if err := stage("espresso", func() error {
		pla = m.Encode(enc)
		rep.RawCubes = pla.Cubes()
		pla.Minimize()
		rep.Cubes = pla.Cubes()
		rep.Literals = pla.Literals()
		return nil
	}); err != nil {
		return rep, err
	}

	// netlist: BLIF emission of the minimized cover.
	if err := stage("netlist", func() error {
		text, err := blif.FormatPLA(m, enc, pla)
		if err != nil {
			return err
		}
		rep.BLIF = text
		return nil
	}); err != nil {
		return rep, err
	}

	// verify: parse the emitted netlist back and replay it against the
	// symbolic machine. A divergence is reported in Replay, not as an
	// error: the report (with the offending netlist) is the evidence.
	if err := stage("verify", func() error {
		rep.Replay = &ReplayResult{
			Sequences: DefaultVerifySequences,
			Length:    DefaultVerifyLength,
		}
		nl, err := blif.ParseString(rep.BLIF)
		if err != nil {
			rep.Replay.Error = err.Error()
			return nil
		}
		if err := sim.ReplayNetlist(m, nl, DefaultVerifySequences, DefaultVerifyLength, replaySeed); err != nil {
			rep.Replay.Error = err.Error()
			return nil
		}
		rep.Replay.OK = true
		return nil
	}); err != nil {
		return rep, err
	}
	return rep, nil
}

// RunKISS parses a KISS2 description and runs the pipeline on it. The
// machine name defaults to name when the format carries none.
func RunKISS(ctx context.Context, r io.Reader, name string, opts Options) (*Report, error) {
	m, err := kiss.Parse(r)
	if err != nil {
		return nil, err
	}
	if m.Name == "" {
		m.Name = name
	}
	return Run(ctx, m, opts)
}

// encode dispatches to the strategy engines.
func encode(ctx context.Context, cs *constraint.Set, rep *Report, opts Options) (*core.Encoding, error) {
	switch opts.Strategy {
	case Exact:
		res, err := core.ExactEncodeCtx(ctx, cs, core.ExactOptions{Parallelism: opts.Parallelism})
		if err != nil {
			return nil, err
		}
		if v := core.Verify(cs, res.Encoding); len(v) != 0 {
			return nil, fmt.Errorf("internal error: exact encoding failed verification: %v", v[0])
		}
		rep.Optimal = res.Optimal
		return res.Encoding, nil

	case Heuristic:
		res, err := heuristic.EncodeCtx(ctx, cs, heuristic.Options{
			Parallelism: opts.Parallelism,
			Bits:        hypercube.MinBits(cs.N()),
			Metric:      cost.Cubes,
		})
		if err != nil {
			return nil, err
		}
		return res.Encoding, nil

	case Anneal:
		seed := opts.AnnealSeed
		if seed == 0 {
			seed = 1
		}
		// The memoizing evaluator does not change the annealing
		// trajectory (pinned in internal/anneal's tests), only its run
		// time; the pipeline always anneals cached.
		enc, _, err := anneal.Encode(cs, anneal.Options{
			Metric:   cost.Cubes,
			Seed:     seed,
			UseCache: true,
		})
		return enc, err

	case Nova:
		return nova.Encode(cs, nova.Options{})
	}
	return nil, fmt.Errorf("unknown strategy %q", opts.Strategy)
}

func ms(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}
