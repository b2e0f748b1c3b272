// Package diffcheck is the differential correctness harness: it runs the
// exact (P-2), heuristic (P-3), annealing and GPI pipelines on one problem
// instance and asserts the cross-solver invariant matrix the paper's
// semantics imply:
//
//   - every encoding any solver returns passes the independent core.Verify
//     oracle with zero violations;
//   - the P-1 CheckFeasible verdict agrees with the exact solver's
//     ErrInfeasible outcome (and with a satisfying witness when the
//     generator built one);
//   - the exact solver is never beaten on code length by any other solver
//     (or by the generator's witness) once it proves optimality;
//   - heuristic and annealing cost reports agree with the oracle's count
//     of violated face constraints, and their encodings are injective;
//   - parallel solves (Workers > 1) are bit-identical to sequential ones;
//   - infeasibility is reported through the typed *core.InfeasibleError
//     whose conflict subset is itself infeasible and minimal: dropping
//     any one of its constraints leaves a feasible set;
//   - the branch-and-bound and CNF/SAT covering backends agree: both
//     encodings verify cleanly, both report the same feasibility verdict,
//     and two optimality claims always name the same code length (the
//     concrete codes may differ — several minimum covers can exist);
//   - on small instances (≤ 20 candidate columns) a brute-force
//     minimum-cover enumeration confirms the proven optimum against
//     ground truth.
//
// Instances come from internal/gen (seeded random constraint sets, FSMs
// and symbolic output functions); consumers are the go-native fuzz targets
// in this package, the cmd/difftest CLI, and the -short-gated randomized
// test in the repository root.
package diffcheck

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/anneal"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cover"
	"repro/internal/decomp"
	"repro/internal/fsm"
	"repro/internal/gpi"
	"repro/internal/heuristic"
	"repro/internal/hypercube"
	"repro/internal/mv"
	"repro/internal/par"
	"repro/internal/sat"
)

// Options tunes one differential check.
type Options struct {
	// Workers is the worker count of the parallel re-solve compared
	// against the sequential one; 0 means 3.
	Workers int
	// Timeout bounds each individual solver run; 0 means 20s. A solver
	// that exceeds it is recorded in Report.Skipped, not failed: budget
	// exhaustion says nothing about correctness.
	Timeout time.Duration
	// SkipAnneal drops the annealing comparator (it is the slowest stage:
	// its cost function minimizes espresso covers per move).
	SkipAnneal bool
	// Backend is the covering backend of the primary exact solve; the
	// cross-backend invariant always re-solves with the other one. The
	// zero value makes branch-and-bound primary and SAT the comparator.
	Backend core.Backend
}

// otherBackend returns the covering backend b is compared against.
func otherBackend(b core.Backend) core.Backend {
	if b == core.BackendSAT {
		return core.BackendBranchBound
	}
	return core.BackendSAT
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return 3
	}
	return o.Workers
}

func (o Options) timeout() time.Duration {
	if o.Timeout <= 0 {
		return 20 * time.Second
	}
	return o.Timeout
}

// Failure is one violated invariant.
type Failure struct {
	// Invariant names the violated row of the matrix, e.g. "exact-verify".
	Invariant string
	// Detail is a human-readable account with the offending values.
	Detail string
}

func (f Failure) String() string { return f.Invariant + ": " + f.Detail }

// Report is the outcome of checking one instance.
type Report struct {
	Failures []Failure
	// Skipped lists solver stages that ran out of budget (informational).
	Skipped []string
	// Feasible is the P-1 verdict on the instance.
	Feasible bool
	// ExactBits is the exact encoding's length, or -1 when the exact
	// solver did not produce one.
	ExactBits int
}

// OK reports whether every invariant held.
func (r Report) OK() bool { return len(r.Failures) == 0 }

// String renders the failures one per line (empty when OK).
func (r Report) String() string {
	var b strings.Builder
	for _, f := range r.Failures {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func (r *Report) fail(invariant, format string, args ...any) {
	r.Failures = append(r.Failures, Failure{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
}

// budgetExhausted classifies solver errors that reflect the time budget,
// not the instance. sat.ErrBudget is the SAT backend's conflict-budget
// form of the same verdict: the solve was cut short, nothing is known
// about the instance.
func budgetExhausted(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, sat.ErrBudget)
}

// CheckSet runs the invariant matrix on one constraint set. witness, when
// non-nil, is an encoding the caller asserts satisfies cs (the generator's
// feasible-by-construction witness); it upgrades several invariants from
// conditional to absolute. Sets carrying chain constraints are checked
// against the witness only: the exact encoder answers them with an
// exponential direct search that no other solver here cross-checks.
func CheckSet(ctx context.Context, cs *constraint.Set, witness *core.Encoding, opts Options) Report {
	r := Report{ExactBits: -1}
	if err := cs.Validate(); err != nil {
		r.fail("validate", "generated set fails Validate: %v", err)
		return r
	}

	if witness != nil {
		if v := core.Verify(cs, witness); len(v) != 0 {
			r.fail("witness-verify", "witness encoding violates its own construction: %v", v)
			// The witness is wrong; everything below would mis-blame the
			// solvers.
			return r
		}
	}

	feas := core.CheckFeasible(cs)
	r.Feasible = feas.Feasible
	if witness != nil && !feas.Feasible {
		r.fail("feasible-vs-witness", "P-1 check says infeasible but a witness encoding exists:\n%s", witness)
	}
	if len(cs.Chains) > 0 {
		return r
	}
	hasExt := cs.HasExtensionConstraints()

	// Exact solve, sequential, with the primary backend.
	res, err := solveExact(ctx, cs, 1, opts.timeout(), opts.Backend)
	var exact *core.Encoding
	switch {
	case err == nil:
		exact = res.Encoding
		r.ExactBits = exact.Bits
		if v := core.Verify(cs, exact); len(v) != 0 {
			r.fail("exact-verify", "exact encoding fails the oracle: %v\nencoding:\n%s", v, exact)
		}
		if !feas.Feasible {
			r.fail("exact-vs-feasible", "exact produced an encoding for a set the P-1 check rejects")
		}
		if witness != nil && res.Optimal && exact.Bits > witness.Bits {
			r.fail("exact-minimality", "exact proved %d bits minimal but the witness uses %d", exact.Bits, witness.Bits)
		}
	case errors.Is(err, core.ErrInfeasible):
		if witness != nil {
			r.fail("exact-vs-witness", "exact reported infeasible but a witness encoding exists")
		}
		if feas.Feasible && !hasExt {
			r.fail("exact-vs-feasible", "P-1 check accepts the set but exact reported infeasible")
		}
		var ie *core.InfeasibleError
		if !errors.As(err, &ie) {
			r.fail("infeasible-typed", "infeasibility not reported as *core.InfeasibleError: %v", err)
		} else if ie.Conflict != nil {
			if core.CheckFeasible(ie.Conflict).Feasible {
				r.fail("infeasible-conflict", "reported conflict subset is itself feasible:\n%s", ie.Conflict)
			} else if i := redundantConstraint(ie.Conflict); i >= 0 {
				r.fail("conflict-minimal", "reported conflict subset stays infeasible without its constraint %d:\n%s", i, ie.Conflict)
			}
		}
	case budgetExhausted(err):
		r.Skipped = append(r.Skipped, "exact: "+err.Error())
	default:
		r.fail("exact-error", "unexpected exact error: %v", err)
	}

	// Cross-backend agreement: the other covering backend must reproduce
	// the feasibility verdict and (under mutual optimality claims) the
	// code length, and its encoding must verify cleanly.
	r.checkCrossBackend(ctx, cs, exact, res, errors.Is(err, core.ErrInfeasible), opts)

	// Ground truth on small instances: a brute-force enumeration of the
	// covering matrix confirms the proven minimum cover cardinality.
	if exact != nil && res.Optimal && !hasExt {
		r.checkBruteMinimality(exact, res)
	}

	// Parallel determinism: the exact pipeline promises bit-identical
	// results for any worker count.
	if exact != nil {
		res2, err2 := solveExact(ctx, cs, opts.workers(), opts.timeout(), opts.Backend)
		switch {
		case err2 == nil:
			if !sameEncoding(exact, res2.Encoding) || res.Optimal != res2.Optimal {
				r.fail("exact-parallel-determinism",
					"workers=1 and workers=%d disagree:\n%s\nvs\n%s", opts.workers(), exact, res2.Encoding)
			}
		case budgetExhausted(err2):
			r.Skipped = append(r.Skipped, "exact-parallel: "+err2.Error())
		default:
			r.fail("exact-parallel-determinism", "parallel re-solve errored: %v", err2)
		}
	}

	// Decomposed-vs-monolithic agreement: the connected-component solver
	// must reproduce the monolithic verdict (and width, when both claim
	// optimality) on every decomposable set.
	if decomp.Decomposable(cs) {
		r.checkDecomposed(ctx, cs, witness, exact, res, errors.Is(err, core.ErrInfeasible), opts)
	}

	// Heuristic and annealing handle face constraints only; compare them
	// on the input projection, at the exact length when one is known.
	inputOnly := facesOnly(cs)
	if len(inputOnly.Faces) > 0 {
		r.checkHeuristic(ctx, cs, inputOnly, exact, res, opts)
		if !opts.SkipAnneal {
			r.checkAnneal(cs, inputOnly, exact, res)
		}
	}
	return r
}

// redundantConstraint returns the flat index (see constraint.Set.Without)
// of the first constraint of an infeasible conflict whose removal leaves
// it infeasible, or -1 when the conflict is minimal.
func redundantConstraint(conflict *constraint.Set) int {
	for i := 0; i < conflict.Len(); i++ {
		if !core.CheckFeasible(conflict.Without(i)).Feasible {
			return i
		}
	}
	return -1
}

func (r *Report) checkHeuristic(ctx context.Context, cs, inputOnly *constraint.Set, exact *core.Encoding, res *core.ExactResult, opts Options) {
	bits := 0
	if exact != nil {
		bits = exact.Bits
	}
	hOpts := heuristic.Options{
		Parallelism: par.Parallelism{Workers: 1, TimeLimit: opts.timeout()},
		Metric:      cost.Violations,
		Bits:        bits,
	}
	h, err := heuristic.EncodeCtx(ctx, inputOnly, hOpts)
	if err != nil {
		if budgetExhausted(err) {
			r.Skipped = append(r.Skipped, "heuristic: "+err.Error())
		} else {
			r.fail("heuristic-error", "unexpected heuristic error: %v", err)
		}
		return
	}
	// The reported cost must agree with the independent oracle's count of
	// violated faces, and the codes must be injective.
	oracle := violatedFaces(inputOnly, h.Encoding)
	if h.Cost.Violations != oracle {
		r.fail("heuristic-cost-oracle", "heuristic reports %d violations, oracle counts %d\nencoding:\n%s",
			h.Cost.Violations, oracle, h.Encoding)
	}
	if dup := duplicateCode(h.Encoding); dup != "" {
		r.fail("heuristic-injective", "heuristic assigned a duplicate code: %s", dup)
	}
	// Exact is never beaten: a zero-violation heuristic encoding of the
	// full set at fewer bits would disprove exact's minimality.
	if exact != nil && res.Optimal && h.Cost.Violations == 0 &&
		h.Encoding.Bits < exact.Bits && len(core.Verify(cs, h.Encoding)) == 0 {
		r.fail("exact-beaten", "heuristic satisfied the set in %d bits, exact proved %d minimal",
			h.Encoding.Bits, exact.Bits)
	}
	hOpts.Workers = opts.workers()
	h2, err2 := heuristic.EncodeCtx(ctx, inputOnly, hOpts)
	switch {
	case err2 == nil:
		if !sameEncoding(h.Encoding, h2.Encoding) {
			r.fail("heuristic-parallel-determinism",
				"workers=1 and workers=%d disagree:\n%s\nvs\n%s", opts.workers(), h.Encoding, h2.Encoding)
		}
	case budgetExhausted(err2):
		r.Skipped = append(r.Skipped, "heuristic-parallel: "+err2.Error())
	default:
		r.fail("heuristic-parallel-determinism", "parallel re-solve errored: %v", err2)
	}
}

func (r *Report) checkAnneal(cs, inputOnly *constraint.Set, exact *core.Encoding, res *core.ExactResult) {
	aOpts := anneal.Options{Metric: cost.Violations, Seed: 7, Temps: 40}
	enc, stats, err := anneal.Encode(inputOnly, aOpts)
	if err != nil {
		r.fail("anneal-error", "unexpected anneal error: %v", err)
		return
	}
	oracle := violatedFaces(inputOnly, enc)
	if stats.FinalCost != oracle {
		r.fail("anneal-cost-oracle", "anneal reports final cost %d, oracle counts %d violations\nencoding:\n%s",
			stats.FinalCost, oracle, enc)
	}
	if dup := duplicateCode(enc); dup != "" {
		r.fail("anneal-injective", "anneal assigned a duplicate code: %s", dup)
	}
	if exact != nil && res.Optimal && stats.FinalCost == 0 &&
		enc.Bits < exact.Bits && len(core.Verify(cs, enc)) == 0 {
		r.fail("exact-beaten", "anneal satisfied the set in %d bits, exact proved %d minimal",
			enc.Bits, exact.Bits)
	}
}

// CheckFSM drives the fsm → symbolic-minimization → mixed-constraint path:
// the constraint generator only admits constraints it re-checked with the
// P-1 test, so the emitted set must be feasible, and the full matrix then
// applies to it.
func CheckFSM(ctx context.Context, m *fsm.FSM, opts Options) Report {
	cs := mv.GenerateConstraints(m, mv.OutputOptions{})
	if !core.CheckFeasible(cs).Feasible {
		r := Report{ExactBits: -1}
		r.fail("fsm-constraints-infeasible",
			"mv.GenerateConstraints emitted an infeasible set for machine %s:\n%s", m.Name, cs)
		return r
	}
	return CheckSet(ctx, cs, nil, opts)
}

// CheckFunction drives the GPI output-encoding pipeline: generate the
// generalized prime implicants, select an encodable cover, encode the
// induced extended-disjunctive constraints exactly, and verify both the
// oracle and the cover's defining cardinality property under the codes.
func CheckFunction(ctx context.Context, f *gpi.Function, opts Options) Report {
	r := Report{ExactBits: -1}
	gpis, err := gpi.Generate(f, 0)
	if err != nil {
		r.fail("gpi-generate", "%v", err)
		return r
	}
	sel, cs, err := gpi.SelectEncodableCover(f, gpis, cover.Options{})
	if err != nil {
		r.fail("gpi-select", "%v", err)
		return r
	}
	if !core.CheckFeasible(cs).Feasible {
		r.fail("gpi-vetted-infeasible", "SelectEncodableCover returned a P-1-rejected set:\n%s", cs)
		return r
	}
	res, err := solveExact(ctx, cs, 1, opts.timeout(), opts.Backend)
	if err != nil {
		if budgetExhausted(err) {
			r.Skipped = append(r.Skipped, "gpi-exact: "+err.Error())
			return r
		}
		r.fail("gpi-exact", "exact failed on a vetted-feasible GPI set: %v\n%s", err, cs)
		return r
	}
	r.Feasible = true
	r.ExactBits = res.Encoding.Bits
	if v := core.Verify(cs, res.Encoding); len(v) != 0 {
		r.fail("gpi-verify", "encoding fails the oracle: %v", v)
	}
	if err := gpi.VerifyCover(f, gpis, sel, res.Encoding.Codes); err != nil {
		r.fail("gpi-cover-verify", "selected cover does not implement the function: %v", err)
	}
	return r
}

// checkCrossBackend re-solves the instance with the covering backend the
// primary run did not use and asserts the two engines describe the same
// problem: identical feasibility verdicts, oracle-clean encodings, and —
// when both prove optimality — the same code length. The concrete codes
// are deliberately not compared; distinct minimum covers are legitimate.
func (r *Report) checkCrossBackend(ctx context.Context, cs *constraint.Set, exact *core.Encoding,
	primRes *core.ExactResult, primInfeasible bool, opts Options) {
	other := otherBackend(opts.Backend)
	ores, oerr := solveExact(ctx, cs, 1, opts.timeout(), other)
	switch {
	case oerr == nil:
		if v := core.Verify(cs, ores.Encoding); len(v) != 0 {
			r.fail("backend-verify", "%s encoding fails the oracle: %v\nencoding:\n%s", other, v, ores.Encoding)
		}
		if primInfeasible {
			r.fail("backend-feasibility", "%s produced an encoding for a set %s proved infeasible",
				other, opts.Backend)
		}
		if exact != nil && primRes.Optimal {
			if ores.Encoding.Bits < exact.Bits {
				r.fail("backend-beats", "%s satisfied the set in %d bits, %s proved %d minimal",
					other, ores.Encoding.Bits, opts.Backend, exact.Bits)
			}
			if ores.Optimal && ores.Encoding.Bits != exact.Bits {
				r.fail("backend-bits", "both backends claim optimality but widths differ: %s=%d, %s=%d",
					opts.Backend, exact.Bits, other, ores.Encoding.Bits)
			}
		}
	case errors.Is(oerr, core.ErrInfeasible):
		if exact != nil {
			r.fail("backend-feasibility", "%s reported infeasible but %s produced an encoding",
				other, opts.Backend)
		}
	case budgetExhausted(oerr):
		r.Skipped = append(r.Skipped, "backend-"+other.String()+": "+oerr.Error())
	default:
		r.fail("backend-error", "unexpected %s error: %v", other, oerr)
	}
}

// solveExact runs the exact pipeline with one worker budget, time budget
// and covering backend.
func solveExact(ctx context.Context, cs *constraint.Set, workers int, timeout time.Duration, backend core.Backend) (*core.ExactResult, error) {
	return core.ExactEncodeCtx(ctx, cs, core.ExactOptions{
		Parallelism: par.Parallelism{Workers: workers, TimeLimit: timeout},
		Backend:     backend,
	})
}

// facesOnly projects the set onto its face constraints (shared table).
func facesOnly(cs *constraint.Set) *constraint.Set {
	c := cs.Clone()
	c.Dominances, c.Disjunctives, c.ExtDisjunctives = nil, nil, nil
	c.Distance2s, c.NonFaces, c.Chains = nil, nil, nil
	return c
}

// violatedFaces counts the face constraints the oracle marks unsatisfied.
func violatedFaces(cs *constraint.Set, e *core.Encoding) int {
	n := 0
	for _, ok := range core.SatisfiedFaces(cs, e) {
		if !ok {
			n++
		}
	}
	return n
}

// duplicateCode returns a description of a code collision, or "".
func duplicateCode(e *core.Encoding) string {
	seen := make(map[hypercube.Code]int, len(e.Codes))
	for i, c := range e.Codes {
		if j, dup := seen[c]; dup {
			return fmt.Sprintf("%s and %s share %s", e.Syms.Name(j), e.Syms.Name(i), e.CodeString(i))
		}
		seen[c] = i
	}
	return ""
}

// sameEncoding reports bit-identical encodings.
func sameEncoding(a, b *core.Encoding) bool {
	if a.Bits != b.Bits || len(a.Codes) != len(b.Codes) {
		return false
	}
	for i := range a.Codes {
		if a.Codes[i] != b.Codes[i] {
			return false
		}
	}
	return true
}
