package decomp

import (
	"context"
	"errors"

	"repro/internal/bitset"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/dichotomy"
	"repro/internal/hypercube"
	"repro/internal/par"
	"repro/internal/trace"
)

// ExactEncodeCtx solves P-2 component-wise: Split, solve each connected
// component through core.ExactEncodeCtx (concurrently, bounded by the
// options' worker budget), Assemble. Sets that are not decomposable —
// chains or non-faces present — go to core.ExactEncodeCtx whole, so the
// function accepts every constraint class.
//
// Infeasibility anywhere surfaces as a core.InfeasibleError in *global*
// terms; see Plan.Solve.
func ExactEncodeCtx(ctx context.Context, cs *constraint.Set, opts core.ExactOptions) (*core.ExactResult, error) {
	if !Decomposable(cs) {
		return core.ExactEncodeCtx(ctx, cs, opts)
	}
	plan, err := Split(cs)
	if err != nil {
		return nil, err
	}
	// A caller-supplied covering lower bound speaks about the global
	// problem; applied locally it could cut off the true component minimum.
	opts.Cover.LowerBound = 0
	return plan.Solve(ctx, opts.WorkerCount(), func(ctx context.Context, c *Component, _ *trace.Span) (*core.ExactResult, error) {
		return core.ExactEncodeCtx(ctx, c.Set, opts)
	})
}

// ComponentSolver solves one component's local set and returns the result
// in local terms. sp is the component's "decomp.component" span, which the
// solver may annotate (the service marks cache hits on it).
type ComponentSolver func(ctx context.Context, c *Component, sp *trace.Span) (*core.ExactResult, error)

// Solve is the one component loop: it runs every component through solve
// with at most workers in flight (each under its own "decomp.component"
// span) and assembles the results.
//
// Infeasibility surfaces as a core.InfeasibleError in *global* terms:
// component-local symbol indices never escape (see
// Component.globalizeError). When several components fail, the error of
// the lowest-indexed one wins, deterministically.
func (p *Plan) Solve(ctx context.Context, workers int, solve ComponentSolver) (*core.ExactResult, error) {
	results := make([]*core.ExactResult, len(p.Components))
	errs := make([]error, len(p.Components))
	par.ForEach(len(p.Components), workers, func(i int) {
		results[i], errs[i] = p.Components[i].solve(ctx, solve)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return Assemble(p, results)
}

// solve runs solve on the component under a "decomp.component" span and
// remaps any infeasibility to global symbol indices.
func (c *Component) solve(ctx context.Context, solve ComponentSolver) (*core.ExactResult, error) {
	sp := trace.StartSpan(ctx, "decomp.component")
	sp.Set("component", c.Index).Set("symbols", len(c.GlobalOf))
	res, err := solve(ctx, c, sp)
	if err != nil {
		sp.Set("failed", 1).End()
		return nil, c.globalizeError(err)
	}
	sp.Set("bits", res.Encoding.Bits).SetBool("optimal", res.Optimal).End()
	return res, nil
}

// globalizeError rewrites a component-local core.InfeasibleError into global
// terms: uncovered dichotomies get their symbol indices remapped through
// GlobalOf, and the minimized conflict subset is rebuilt over the source
// symbol table so its String() names the original constraints. Other errors
// pass through unchanged (they carry no symbol indices).
func (c *Component) globalizeError(err error) error {
	var ie *core.InfeasibleError
	if !errors.As(err, &ie) {
		return err
	}
	out := &core.InfeasibleError{}
	for _, d := range ie.Uncovered {
		out.Uncovered = append(out.Uncovered, dichotomy.D{
			L: globalize(c.GlobalOf, d.L), R: globalize(c.GlobalOf, d.R),
		})
	}
	if ie.Conflict != nil {
		out.Conflict = c.globalizeSet(ie.Conflict)
	}
	return out
}

// globalize maps a set of local symbol indices through g.
func globalize(g []int, local bitset.Set) bitset.Set {
	var out bitset.Set
	local.ForEach(func(e int) bool { out.Add(g[e]); return true })
	return out
}

// globalizeSet rebuilds a constraint set stated over a local symbol table
// onto the global one. Symbols are matched by name, not by local index: a
// caller that shares another request's solve of an equal component (same
// canonical hash, symbols interned in another order) receives a conflict
// stated over that request's local table.
func (c *Component) globalizeSet(local *constraint.Set) *constraint.Set {
	g := make([]int, local.Syms.Len())
	for i := range g {
		g[i], _ = c.globalSyms.Lookup(local.Syms.Name(i))
	}
	out := constraint.NewSet(c.globalSyms)
	local.MapInto(g, func(int) *constraint.Set { return out })
	return out
}

// ResultFromCodes rebuilds a component solve result from cached name-keyed
// code strings (most-significant bit first, as rendered by
// Encoding.CodeString). It is how the server reconstitutes a per-component
// cache hit without re-running the kernel.
func (c *Component) ResultFromCodes(bits int, codes map[string]string, optimal bool) (*core.ExactResult, error) {
	t := c.Set.Syms
	out := make([]hypercube.Code, t.Len())
	for i := 0; i < t.Len(); i++ {
		s, ok := codes[t.Name(i)]
		if !ok {
			return nil, errors.New("decomp: cached result is missing symbol " + t.Name(i))
		}
		if len(s) != bits {
			return nil, errors.New("decomp: cached code width mismatch for symbol " + t.Name(i))
		}
		var v hypercube.Code
		for _, ch := range s {
			switch ch {
			case '0':
				v <<= 1
			case '1':
				v = v<<1 | 1
			default:
				return nil, errors.New("decomp: malformed cached code for symbol " + t.Name(i))
			}
		}
		out[i] = v
	}
	return &core.ExactResult{
		Encoding: core.NewEncoding(t, bits, out),
		Optimal:  optimal,
	}, nil
}
