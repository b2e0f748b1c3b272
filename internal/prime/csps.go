package prime

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/dichotomy"
)

// csps implements the paper's Figure-2 algorithm. The variables of the
// 2-CNF are the seed indices; a clause (i + j) records that seeds i and j
// are incompatible. The recursion cs picks a splitting variable x, rewrites
// the product of all clauses containing x as the two-term expression
// (x + Π partners), recurses on the remaining clauses, and multiplies the
// results with single-cube-containment minimization (procedure ps). Each
// term of the final sum-of-products is a minimal vertex cover of the
// incompatibility graph; the seeds *missing* from a term form a maximal
// compatible.
//
// The recursion polls ctx at every cs step, so cancellation aborts the
// exponential product promptly. The engine is inherently sequential — the
// cs/ps product is a chain of dependent multiplications — and ignores
// Options.Workers. It also returns the number of cs steps it took.
func csps(ctx context.Context, seeds []dichotomy.D, opts Options) ([]bitset.Set, int, error) {
	n := len(seeds)
	limit := opts.limit()
	if n == 0 {
		return nil, 0, nil
	}
	// Collect incompatibility clauses.
	type clause struct{ a, b int }
	var clauses []clause
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !seeds[i].Compatible(seeds[j]) {
				clauses = append(clauses, clause{i, j})
			}
		}
	}

	// cs over a clause list. Terms are bitsets of variables present.
	nodes := 0
	var cs func(cls []clause) ([]bitset.Set, error)
	cs = func(cls []clause) ([]bitset.Set, error) {
		nodes++
		if ctx.Err() != nil {
			return nil, ctxErr(ctx)
		}
		if len(cls) == 0 {
			return []bitset.Set{bitset.New(n)}, nil
		}
		// Splitting variable: the most frequent variable keeps the
		// two-term expression short and the recursion shallow.
		count := map[int]int{}
		for _, c := range cls {
			count[c.a]++
			count[c.b]++
		}
		x, best := -1, -1
		for v, k := range count {
			if k > best || (k == best && v < x) {
				x, best = v, k
			}
		}
		partners := bitset.New(n)
		var rest []clause
		for _, c := range cls {
			switch {
			case c.a == x:
				partners.Add(c.b)
			case c.b == x:
				partners.Add(c.a)
			default:
				rest = append(rest, c)
			}
		}
		sub, err := cs(rest)
		if err != nil {
			return nil, err
		}
		xOnly := bitset.New(n)
		xOnly.Add(x)
		return ps(ctx, []bitset.Set{xOnly, partners}, sub, limit)
	}

	terms, err := cs(clauses)
	if err != nil {
		return nil, nodes, err
	}
	if len(terms) > limit {
		return nil, nodes, fmt.Errorf("%w (> %d)", ErrLimit, limit)
	}

	// Complement each term to obtain the maximal compatibles.
	all := bitset.New(n)
	for i := 0; i < n; i++ {
		all.Add(i)
	}
	out := make([]bitset.Set, 0, len(terms))
	for _, t := range terms {
		out = append(out, bitset.Difference(all, t))
	}
	return out, nodes, nil
}

// ps multiplies the two-term expression expr1 with expr2 and minimizes the
// product with single-cube containment. The minimized product of a unate
// expression is its unique set of prime implicants, so containment alone is
// sufficient (footnote 3 of the paper).
//
// The containment pass is quadratic in the term count — on large instances
// it dwarfs the cs recursion that brackets it — so it polls ctx itself:
// without that, a deadline expiring mid-product would go unnoticed until
// the pass completed, which on exponential inputs is effectively never.
func ps(ctx context.Context, expr1, expr2 []bitset.Set, limit int) ([]bitset.Set, error) {
	product := make([]bitset.Set, 0, len(expr1)*len(expr2))
	for _, t1 := range expr1 {
		for _, t2 := range expr2 {
			product = append(product, bitset.Union(t1, t2))
		}
	}
	out, err := singleCubeContainment(ctx, product)
	if err != nil {
		return nil, err
	}
	if len(out) > limit {
		return nil, fmt.Errorf("%w (> %d)", ErrLimit, limit)
	}
	return out, nil
}

// sccCtxStride is how many containment candidates pass between context
// polls in singleCubeContainment.
const sccCtxStride = 256

// singleCubeContainment removes every term that is a superset of another
// term, leaving the minimal sum-of-products.
func singleCubeContainment(ctx context.Context, terms []bitset.Set) ([]bitset.Set, error) {
	type sized struct {
		t bitset.Set
		n int
	}
	ts := make([]sized, len(terms))
	for i, t := range terms {
		ts[i] = sized{t, t.Len()}
	}
	sort.SliceStable(ts, func(i, j int) bool { return ts[i].n < ts[j].n })
	var kept []sized
	seen := make(map[string]bool)
outer:
	for ci, c := range ts {
		if ci%sccCtxStride == 0 && ctx.Err() != nil {
			return nil, ctxErr(ctx)
		}
		k := c.t.Key()
		if seen[k] {
			continue
		}
		for _, k := range kept {
			if k.n < c.n && k.t.SubsetOf(c.t) {
				continue outer
			}
			if k.n == c.n && k.t.Equal(c.t) {
				continue outer
			}
		}
		seen[k] = true
		kept = append(kept, c)
	}
	out := make([]bitset.Set, len(kept))
	for i, k := range kept {
		out[i] = k.t
	}
	return out, nil
}
