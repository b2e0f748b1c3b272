package diffcheck

import (
	"context"
	"errors"
	"time"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/par"
)

// checkDecomposed runs the connected-component solver on the same instance
// and asserts agreement with the monolithic path:
//
//   - every decomposed encoding passes the core.Verify oracle;
//   - the two paths agree on feasibility (a component-local infeasibility
//     implies global infeasibility on decomposable sets, so a monolithic
//     encoding refutes any decomposed ErrInfeasible; the converse holds
//     whenever the plain pipeline's complete feasibility test applies);
//   - the decomposed width never beats a proven monolithic minimum, and
//     when both paths claim optimality the widths are equal;
//   - a decomposed optimality claim is never refuted by the witness;
//   - decomposed solves are deterministic across worker counts;
//   - decomposed infeasibility carries the typed *core.InfeasibleError
//     with a conflict subset that is itself infeasible, stated over the
//     *global* symbol table (the component remap bugfix).
//
// exact/monoRes are the monolithic solve's outputs (exact nil when it
// produced no encoding); monoInfeasible records whether it reported
// ErrInfeasible.
func (r *Report) checkDecomposed(ctx context.Context, cs *constraint.Set, witness, exact *core.Encoding,
	monoRes *core.ExactResult, monoInfeasible bool, opts Options) {
	solve := func(workers int, timeout time.Duration, backend core.Backend) (*core.ExactResult, error) {
		return decomp.ExactEncodeCtx(ctx, cs, core.ExactOptions{
			Parallelism: par.Parallelism{Workers: workers, TimeLimit: timeout},
			Backend:     backend,
		})
	}
	dres, err := solve(1, opts.timeout(), opts.Backend)
	switch {
	case err == nil:
		if v := core.Verify(cs, dres.Encoding); len(v) != 0 {
			r.fail("decomp-verify", "decomposed encoding fails the oracle: %v\nencoding:\n%s", v, dres.Encoding)
		}
		if monoInfeasible && !cs.HasExtensionConstraints() {
			r.fail("decomp-vs-exact", "decomposed produced an encoding for a set the exact solver proved infeasible")
		}
		if exact != nil && monoRes.Optimal {
			if dres.Encoding.Bits < exact.Bits {
				r.fail("decomp-beats-exact", "decomposed used %d bits, exact proved %d minimal",
					dres.Encoding.Bits, exact.Bits)
			}
			if dres.Optimal && dres.Encoding.Bits != exact.Bits {
				r.fail("decomp-vs-exact-bits", "both paths claim optimality but widths differ: decomposed %d, exact %d",
					dres.Encoding.Bits, exact.Bits)
			}
		}
		if witness != nil && dres.Optimal && dres.Encoding.Bits > witness.Bits {
			r.fail("decomp-minimality", "decomposed proved %d bits minimal but the witness uses %d",
				dres.Encoding.Bits, witness.Bits)
		}
	case errors.Is(err, core.ErrInfeasible):
		if witness != nil {
			r.fail("decomp-vs-witness", "decomposed reported infeasible but a witness encoding exists")
		}
		if exact != nil {
			// No extension-class caveat in this direction: a local
			// infeasibility implies global infeasibility, so any
			// monolithic encoding is a direct counterexample.
			r.fail("decomp-vs-exact", "decomposed reported infeasible but the exact solver produced an encoding")
		}
		var ie *core.InfeasibleError
		if !errors.As(err, &ie) {
			r.fail("decomp-infeasible-typed", "decomposed infeasibility not reported as *core.InfeasibleError: %v", err)
		} else if ie.Conflict != nil {
			if ie.Conflict.Syms != cs.Syms {
				r.fail("decomp-conflict-global", "decomposed conflict subset is not stated over the source symbol table")
			}
			if core.CheckFeasible(ie.Conflict).Feasible {
				r.fail("decomp-infeasible-conflict", "decomposed conflict subset is itself feasible:\n%s", ie.Conflict)
			} else if i := redundantConstraint(ie.Conflict); i >= 0 {
				r.fail("decomp-conflict-minimal", "decomposed conflict subset stays infeasible without its constraint %d:\n%s", i, ie.Conflict)
			}
		}
	case budgetExhausted(err):
		r.Skipped = append(r.Skipped, "decomp: "+err.Error())
		return
	default:
		r.fail("decomp-error", "unexpected decomposed-solve error: %v", err)
		return
	}

	// Component solves share the exact pipeline's determinism promise, so
	// the assembled encoding must be bit-identical for any worker count.
	if err == nil {
		dres2, err2 := solve(opts.workers(), opts.timeout(), opts.Backend)
		switch {
		case err2 == nil:
			if !sameEncoding(dres.Encoding, dres2.Encoding) || dres.Optimal != dres2.Optimal {
				r.fail("decomp-parallel-determinism",
					"workers=1 and workers=%d disagree:\n%s\nvs\n%s", opts.workers(), dres.Encoding, dres2.Encoding)
			}
		case budgetExhausted(err2):
			r.Skipped = append(r.Skipped, "decomp-parallel: "+err2.Error())
		default:
			r.fail("decomp-parallel-determinism", "parallel decomposed re-solve errored: %v", err2)
		}
	}

	// Backend agnosticism survives decomposition: the per-component solves
	// under the other covering backend must assemble to the same verdict
	// and, when both paths prove optimality, the same global width.
	if err == nil || errors.Is(err, core.ErrInfeasible) {
		other := otherBackend(opts.Backend)
		dres3, err3 := solve(1, opts.timeout(), other)
		switch {
		case err3 == nil:
			if v := core.Verify(cs, dres3.Encoding); len(v) != 0 {
				r.fail("decomp-backend-verify", "decomposed %s encoding fails the oracle: %v\nencoding:\n%s",
					other, v, dres3.Encoding)
			}
			if err != nil {
				r.fail("decomp-backend-feasibility",
					"decomposed %s produced an encoding where decomposed %s proved infeasible", other, opts.Backend)
			} else if dres.Optimal && dres3.Optimal && dres3.Encoding.Bits != dres.Encoding.Bits {
				r.fail("decomp-backend-bits",
					"decomposed backends both claim optimality but widths differ: %s=%d, %s=%d",
					opts.Backend, dres.Encoding.Bits, other, dres3.Encoding.Bits)
			}
		case errors.Is(err3, core.ErrInfeasible):
			if err == nil {
				r.fail("decomp-backend-feasibility",
					"decomposed %s reported infeasible where decomposed %s produced an encoding", other, opts.Backend)
			}
		case budgetExhausted(err3):
			r.Skipped = append(r.Skipped, "decomp-backend-"+other.String()+": "+err3.Error())
		default:
			r.fail("decomp-backend-error", "unexpected decomposed %s error: %v", other, err3)
		}
	}
}
