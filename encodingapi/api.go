// Package encodingapi is the public facade of the encoding-constraint
// framework: it re-exports the types and entry points of the internal
// constraint, core, heuristic and cost packages so external importers (and
// the request server in internal/server) depend on one stable surface
// instead of the internal/ layout.
//
// The three problems of the paper map onto three entry points:
//
//   - P-1, feasibility: CheckFeasible / Feasible decide in polynomial time
//     whether a mixed input/output constraint set admits any encoding
//     (Theorem 6.1).
//   - P-2, exact minimum-length encoding: ExactEncode runs the Figure-7
//     pipeline — initial dichotomies, maximal raising, prime generation,
//     exact covering — for every constraint class. The covering is unate
//     for input/output constraints and binate once the Section-8
//     distance-2/non-face extensions are present; chain constraints go to
//     a direct search.
//   - P-3, bounded-length encoding: HeuristicEncode runs the Section-7.1
//     split/merge/select heuristic under a chosen cost metric.
//
// All solver entry points here are context-first — cancellation and
// deadlines are part of the canonical signatures, matching the *Ctx forms
// of the internal packages — and deterministic under parallelism: for any
// Parallelism.Workers value they return identical results whenever the
// search completes. A solve that a node or time budget cut short
// (Optimal=false) may return a different incumbent for another worker
// count or on another run.
//
// A minimal use:
//
//	cs, err := encodingapi.ParseString("face a b\nface b c\ndom a > c\n")
//	if err != nil { ... }
//	res, err := encodingapi.ExactEncode(context.Background(), cs, encodingapi.ExactOptions{})
//	if err != nil { ... }
//	fmt.Print(res.Encoding) // "a = 01\n..." etc.
package encodingapi

import (
	"context"
	"errors"
	"io"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cover"
	"repro/internal/decomp"
	"repro/internal/heuristic"
	"repro/internal/par"
	"repro/internal/prime"
	"repro/internal/sym"
	"repro/internal/trace"
)

// Re-exported types. These are aliases, not copies: values flow freely
// between this package and code (tests, benchmarks) using the internal
// packages directly.
type (
	// Table is the symbol table: a bijection between symbol names and
	// dense indices shared by constraint sets and encodings.
	Table = sym.Table

	// Set is a collection of encoding constraints over a shared symbol
	// table. Build one with NewSet + Add* methods, or parse the textual
	// constraint language with Parse/ParseString.
	Set = constraint.Set

	// Face is a face-embedding (input) constraint.
	Face = constraint.Face
	// Dominance is the output constraint code(Big) ⊇ code(Small).
	Dominance = constraint.Dominance
	// Disjunctive is the output constraint parent = OR of children.
	Disjunctive = constraint.Disjunctive
	// ExtDisjunctive is the Section-6.2 disjunction-of-conjunctions form.
	ExtDisjunctive = constraint.ExtDisjunctive
	// Distance2 requires two codes to differ in at least two bits.
	Distance2 = constraint.Distance2
	// NonFace requires an outside code inside the members' minimal face.
	NonFace = constraint.NonFace
	// Chain requires consecutive symbols to take consecutive codes.
	Chain = constraint.Chain

	// Encoding assigns a binary code to every symbol.
	Encoding = core.Encoding
	// Violation describes one failed constraint found by Verify.
	Violation = core.Violation
	// Feasibility is the P-1 outcome with its intermediate artifacts.
	Feasibility = core.Feasibility
	// ExactResult is the P-2 output: the encoding plus pipeline stages.
	ExactResult = core.ExactResult
	// ExactOptions tunes the exact encoder.
	ExactOptions = core.ExactOptions
	// PrimeOptions tunes maximal-compatible generation inside
	// ExactOptions.
	PrimeOptions = prime.Options
	// Backend selects the exact encoder's unate covering engine inside
	// ExactOptions: branch-and-bound (default) or the CNF/SAT backend.
	Backend = core.Backend
	// CoverOptions tunes the covering solvers inside ExactOptions.
	CoverOptions = cover.Options

	// HeuristicOptions tunes the P-3 bounded-length encoder.
	HeuristicOptions = heuristic.Options
	// HeuristicResult is the P-3 output: encoding plus evaluated cost.
	HeuristicResult = heuristic.Result

	// Metric selects the P-3 objective.
	Metric = cost.Metric
	// Cost bundles the evaluated violation/cube/literal counts.
	Cost = cost.Result

	// Parallelism is the Workers/TimeLimit pair embedded in every
	// Options type.
	Parallelism = par.Parallelism

	// Hash128 is the canonical 128-bit content hash of a constraint set.
	Hash128 = core.Hash128

	// Trace is the stage-span report of one solve: what the ExactResult
	// and HeuristicResult Trace fields carry when the solve ran under a
	// traced context (see StartTrace), what the encode CLIs print under
	// -trace, and what the server returns from GET /v1/trace/{id}.
	Trace = trace.Trace
	// TraceSpan is one recorded stage of a Trace.
	TraceSpan = trace.SpanRecord
	// TraceAttr is one integer annotation on a TraceSpan.
	TraceAttr = trace.Attr
	// TraceRecorder collects spans during a solve; attach one to a context
	// with StartTrace.
	TraceRecorder = trace.Recorder
)

// Exact-encoder covering backends.
const (
	// BackendBranchBound is the hand-rolled covering branch-and-bound
	// (the default).
	BackendBranchBound = core.BackendBranchBound
	// BackendSAT compiles the unate covering problem to CNF and solves it
	// with the embedded DPLL solver (internal/sat). Agrees with
	// branch-and-bound on feasibility, code length and optimality; the
	// concrete codes may differ when several minimum covers exist.
	BackendSAT = core.BackendSAT
)

// P-3 cost metrics.
const (
	// Violations counts unsatisfied face constraints.
	Violations = cost.Violations
	// Cubes counts product terms of the encoded constraints.
	Cubes = cost.Cubes
	// Literals counts SOP literals of the encoded constraints.
	Literals = cost.Literals
)

// ErrInfeasible is returned by ExactEncode when the constraints admit no
// encoding.
var ErrInfeasible = core.ErrInfeasible

// InfeasibleError is the typed infeasibility report the exact solvers
// attach to ErrInfeasible: Uncovered lists the seed dichotomies no valid
// column covers, and Conflict — when the instance is small enough to
// minimize — a subset of the input constraints that is already infeasible
// on its own. It matches errors.Is(err, ErrInfeasible).
type InfeasibleError = core.InfeasibleError

// AsInfeasible unwraps err's typed infeasibility report, if it carries
// one. The boolean form spares callers the errors.As boilerplate:
//
//	if ie, ok := encodingapi.AsInfeasible(err); ok {
//		fmt.Println(ie.Conflict) // offending constraint subset, may be nil
//	}
func AsInfeasible(err error) (*InfeasibleError, bool) {
	var ie *InfeasibleError
	if errors.As(err, &ie) {
		return ie, true
	}
	return nil, false
}

// NewTable returns an empty symbol table.
func NewTable() *Table { return sym.NewTable() }

// NewSet returns an empty constraint set over the given symbol table; a nil
// table is replaced by a fresh one.
func NewSet(t *Table) *Set { return constraint.NewSet(t) }

// Parse reads a constraint set from the textual constraint language (see
// the constraint package documentation for the grammar).
func Parse(r io.Reader) (*Set, error) { return constraint.Parse(r) }

// ParseString is Parse over a string.
func ParseString(text string) (*Set, error) { return constraint.ParseString(text) }

// MustParse parses text and panics on error; intended for tests and
// examples.
func MustParse(text string) *Set { return constraint.MustParse(text) }

// ParseMetric resolves a metric name ("violations", "cubes", "literals") to
// its Metric, reporting whether the name is known.
func ParseMetric(name string) (Metric, bool) {
	switch name {
	case "violations":
		return Violations, true
	case "cubes":
		return Cubes, true
	case "literals":
		return Literals, true
	}
	return 0, false
}

// ParseBackend resolves an exact-encoder backend name ("bb", alias
// "branchbound", or "sat"; empty means the default), reporting whether the
// name is known.
func ParseBackend(name string) (Backend, bool) { return core.ParseBackend(name) }

// StartTrace attaches a fresh solve-trace recorder to ctx and returns both.
// Solver entry points called with the returned context record per-stage
// spans (prime generation, covering search, heuristic restarts, …) into the
// recorder and attach a snapshot to their results' Trace field; without a
// recorder the instrumentation costs nothing. Inspect the report with
// Trace.Table (the CLIs' stage-time rendering) or walk Trace.Spans.
func StartTrace(ctx context.Context) (context.Context, *TraceRecorder) {
	return trace.Start(ctx)
}

// CheckFeasible decides P-1: whether the input and output constraints admit
// any encoding, in time polynomial in the number of symbols and
// constraints.
func CheckFeasible(cs *Set) Feasibility { return core.CheckFeasible(cs) }

// CheckFeasibleCtx is CheckFeasible under a context, recording a stage span
// when the context is traced (see StartTrace); the verdict is identical.
func CheckFeasibleCtx(ctx context.Context, cs *Set) Feasibility {
	return core.CheckFeasibleCtx(ctx, cs)
}

// Feasible is CheckFeasible reduced to its verdict.
func Feasible(cs *Set) bool { return core.CheckFeasible(cs).Feasible }

// ExactEncode solves P-2: minimum-length codes satisfying every constraint
// of the set, extensions included, or ErrInfeasible. The context cancels
// the exponential stages cooperatively; see core.ExactEncodeCtx for the
// exact contract. ExactEncodeDecomposed is the component-wise variant.
func ExactEncode(ctx context.Context, cs *Set, opts ExactOptions) (*ExactResult, error) {
	return core.ExactEncodeCtx(ctx, cs, opts)
}

// ExactEncodeDecomposed is ExactEncode solved component-wise: the set is
// split into the connected components of its symbol graph, the components
// solve independently and their codes are assembled into one encoding
// (see internal/decomp; sets with chain or non-face constraints solve
// whole). The assembled width can exceed ExactEncode's, and then the
// result does not claim Optimal; any infeasibility is reported in global
// terms.
func ExactEncodeDecomposed(ctx context.Context, cs *Set, opts ExactOptions) (*ExactResult, error) {
	return decomp.ExactEncodeCtx(ctx, cs, opts)
}

// DecompCount reports the number of connected components of cs's symbol
// graph (1 for sets the decomposer cannot split: chains or non-faces
// present). Useful for reporting and capacity planning.
func DecompCount(cs *Set) int { return decomp.Count(cs) }

// HeuristicEncode solves P-3: a bounded-length encoding minimizing the
// chosen cost metric via the split/merge/select heuristic. Output
// constraints are ignored (the paper presents the algorithm for input
// constraints).
func HeuristicEncode(ctx context.Context, cs *Set, opts HeuristicOptions) (*HeuristicResult, error) {
	return heuristic.EncodeCtx(ctx, cs, opts)
}

// Verify independently checks an encoding against a constraint set and
// returns every violation found (nil means fully satisfied, including code
// uniqueness).
func Verify(cs *Set, e *Encoding) []Violation { return core.Verify(cs, e) }

// CanonicalHashSet returns the 128-bit content hash of a constraint set,
// invariant under constraint reordering and symbol-interning order; see
// core.CanonicalHashSet for the exact equivalence it quotients by.
func CanonicalHashSet(cs *Set) Hash128 { return core.CanonicalHashSet(cs) }
