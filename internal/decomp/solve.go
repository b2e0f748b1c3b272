package decomp

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/dichotomy"
	"repro/internal/hypercube"
	"repro/internal/trace"
)

// ExactEncodeCtx solves P-2 component-wise: Split, solve each connected
// component through core.ExactEncodeCtx (concurrently, bounded by the
// options' worker budget), Assemble. Sets that are not decomposable —
// chains or non-faces present — go to core.ExactEncodeCtx whole, so the
// function accepts every constraint class.
//
// Infeasibility anywhere surfaces as a core.InfeasibleError in *global*
// terms: component-local symbol indices never escape (see
// Component.globalizeError). When several components are infeasible the
// error of the lowest-indexed one wins, deterministically.
func ExactEncodeCtx(ctx context.Context, cs *constraint.Set, opts core.ExactOptions) (*core.ExactResult, error) {
	if err := cs.Validate(); err != nil {
		return nil, err
	}
	if !Decomposable(cs) {
		return core.ExactEncodeCtx(ctx, cs, opts)
	}
	plan, err := Split(cs)
	if err != nil {
		return nil, err
	}
	if ie := plan.ForcedInfeasible(); ie != nil {
		return nil, ie
	}

	results := make([]*core.ExactResult, len(plan.Components))
	errs := make([]error, len(plan.Components))
	workers := opts.WorkerCount()
	if workers > len(plan.Components) {
		workers = len(plan.Components)
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(plan.Components) {
					return
				}
				results[i], errs[i] = plan.Components[i].Solve(ctx, opts)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res, err := Assemble(plan, results)
	if err != nil {
		return nil, err
	}
	if rec := trace.FromContext(ctx); rec != nil {
		res.Trace = rec.Snapshot()
	}
	return res, nil
}

// Solve runs the exact pipeline on the component's local set. Any
// infeasibility is remapped to global symbol indices before returning, and
// a "decomp.component" trace span brackets the solve when the context
// carries a recorder.
func (c *Component) Solve(ctx context.Context, opts core.ExactOptions) (*core.ExactResult, error) {
	sp := trace.StartSpan(ctx, "decomp.component")
	sp.Set("component", c.Index).Set("symbols", len(c.GlobalOf))
	// A caller-supplied covering lower bound speaks about the global
	// problem; applied locally it could cut off the true component minimum.
	opts.Cover.LowerBound = 0
	res, err := core.ExactEncodeCtx(ctx, c.Set, opts)
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
			L: c.globalize(d.L), R: c.globalize(d.R),
		})
	}
	if ie.Conflict != nil {
		out.Conflict = c.globalizeSet(ie.Conflict)
	}
	return out
}

// globalize maps a set of local symbol indices through GlobalOf.
func (c *Component) globalize(local bitset.Set) bitset.Set {
	var out bitset.Set
	local.ForEach(func(e int) bool { out.Add(c.GlobalOf[e]); return true })
	return out
}

// globalizeSet rebuilds a constraint set stated in local indices over the
// global symbol table.
func (c *Component) globalizeSet(local *constraint.Set) *constraint.Set {
	g := c.GlobalOf
	out := constraint.NewSet(c.globalSyms)
	for _, f := range local.Faces {
		out.AddFaceSet(c.globalize(f.Members), c.globalize(f.DontCare))
	}
	for _, d := range local.Dominances {
		out.Dominances = append(out.Dominances, constraint.Dominance{Big: g[d.Big], Small: g[d.Small]})
	}
	for _, d := range local.Disjunctives {
		nd := constraint.Disjunctive{Parent: g[d.Parent]}
		for _, ch := range d.Children {
			nd.Children = append(nd.Children, g[ch])
		}
		out.Disjunctives = append(out.Disjunctives, nd)
	}
	for _, e := range local.ExtDisjunctives {
		ne := constraint.ExtDisjunctive{Parent: g[e.Parent]}
		for _, conj := range e.Conjunctions {
			nc := make([]int, len(conj))
			for i, s := range conj {
				nc[i] = g[s]
			}
			ne.Conjunctions = append(ne.Conjunctions, nc)
		}
		out.ExtDisjunctives = append(out.ExtDisjunctives, ne)
	}
	for _, d := range local.Distance2s {
		out.Distance2s = append(out.Distance2s, constraint.Distance2{A: g[d.A], B: g[d.B]})
	}
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
