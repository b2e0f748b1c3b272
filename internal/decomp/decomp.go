// Package decomp implements connected-component decomposition of constraint
// sets: the paper's constraint classes only couple the symbols they mention,
// so a set whose symbol graph is disconnected splits into independent
// sub-problems that can be solved separately — in parallel, cacheable
// per-component — and reassembled into one encoding.
//
// The pipeline is Split → per-component solve → Assemble:
//
//   - Split builds the symbol graph (union-find over each constraint's
//     symbol set), extracts one local constraint.Set per connected
//     component, runs a pre-solve simplification pass (subsumed-face and
//     repeated-child elimination, then constraint.Set.Dedupe, which drops
//     repeats under the canonical form the hash reads and returns that
//     form) and hashes it into a canonical per-component sub-hash (the
//     value core.CanonicalHashSet gives the component), so
//     permuted-but-equal components share one cache identity.
//   - Plan.Solve is the one component loop: a bounded fan-out of a
//     caller-supplied ComponentSolver over the components (ExactEncodeCtx
//     hands it the plain core solve; the service adds per-component
//     caching and coalescing), remapping any InfeasibleError back to global
//     symbol indices before it escapes. An infeasible component fails in
//     its own solve, which decides P-1 and minimizes the conflict over the
//     component's constraints.
//   - Assemble concatenates the component encodings with a prefix-free
//     aligned-subcube layout (see layout.go) and reports honest optimality:
//     the result claims Optimal only when every component was solved to
//     optimality and the assembled width equals the information-theoretic
//     global minimum.
//
// Two constraint classes defeat decomposition and force the monolithic
// fallback: chains (the +1-wraparound semantics of core.Verify is evaluated
// at the global width, so a locally consecutive pair stops being consecutive
// once embedded in a subcube) and non-faces (a non-face over component
// symbols may be satisfied by an intruder from a *different* component, so
// solving it locally could report infeasible where the monolithic solver
// succeeds). Decomposable reports the distinction.
package decomp

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/sym"
)

// Component is one connected component of a constraint set's symbol graph,
// ready to solve independently.
type Component struct {
	// Index is the component's position in Plan.Components: components are
	// ordered by their smallest global symbol index.
	Index int
	// GlobalOf maps local symbol indices (dense, ascending) back to the
	// source set's global indices: GlobalOf[local] = global.
	GlobalOf []int
	// Set is the simplified local projection of the source constraints onto
	// this component, over its own symbol table (same names, local
	// indices).
	Set *constraint.Set
	// Hash is the canonical content hash of the simplified local set: two
	// components denoting the same sub-problem — same symbol names, same
	// constraints up to reordering — share it, which is what makes
	// per-component caching hit across permuted requests.
	Hash core.Hash128

	// globalSyms is the source set's symbol table, kept for remapping
	// errors back to global indices.
	globalSyms *sym.Table
}

// Plan is the decomposition of one constraint set.
type Plan struct {
	// Source is the set the plan was split from.
	Source *constraint.Set
	// Components are the connected components, ordered by smallest global
	// symbol index. Unconstrained symbols form singleton components.
	Components []*Component
}

// Decomposable reports whether cs can be solved component-wise: chain and
// non-face constraints force the monolithic path (see the package comment
// for why each defeats the subcube embedding).
func Decomposable(cs *constraint.Set) bool {
	return len(cs.Chains) == 0 && len(cs.NonFaces) == 0
}

// Split decomposes cs into the connected components of its symbol graph.
// Each constraint couples exactly the symbols it mentions — for faces the
// members only: a don't-care symbol is merely *allowed* inside the face, so
// it induces no coupling and out-of-component don't-cares are projected
// away. Every local set is simplified and hashed; feasibility is left to
// each component's solve.
func Split(cs *constraint.Set) (*Plan, error) {
	if err := cs.Validate(); err != nil {
		return nil, err
	}
	if !Decomposable(cs) {
		return nil, fmt.Errorf("decomp: set with chain or non-face constraints is not decomposable")
	}
	// Each local table interns its symbols in ascending global order.
	compOf, count := components(cs)
	comps := make([]*Component, count)
	for ci := range comps {
		comps[ci] = &Component{Index: ci, Set: constraint.NewSet(nil), globalSyms: cs.Syms}
	}
	localOf := make([]int, len(compOf)) // global symbol -> local index
	for g, ci := range compOf {
		c := comps[ci]
		localOf[g] = c.Set.Syms.Intern(cs.Syms.Name(g))
		c.GlobalOf = append(c.GlobalOf, g)
	}

	// Route every constraint to its first symbol's component. Face
	// don't-cares in another component are projected away: once components
	// occupy disjoint code ranges such a symbol can never lie inside the
	// face, so dropping it changes nothing.
	cs.MapInto(localOf, func(g int) *constraint.Set { return comps[compOf[g]].Set })

	// Simplify before hashing: duplicate constraints are hash-significant,
	// so two requests differing only in redundant repetition must converge
	// on the same sub-hash to share a cache entry.
	for _, c := range comps {
		c.Hash = core.CanonicalHash(simplify(c.Set))
	}
	return &Plan{Source: cs, Components: comps}, nil
}

// Count returns the number of connected components of cs's symbol graph, or
// 1 when the set is not decomposable (chains/non-faces) or fails
// validation. Intended for reporting (benchmark tables, stats), not
// solving.
func Count(cs *constraint.Set) int {
	if !Decomposable(cs) || cs.Validate() != nil {
		return 1
	}
	_, count := components(cs)
	return count
}

// components numbers the connected components of a valid, decomposable
// set's symbol graph by their smallest member: compOf[s] is symbol s's
// component, and count is the number of components.
func components(cs *constraint.Set) (compOf []int, count int) {
	n := cs.N()
	uf := newUnionFind(n)
	for _, f := range cs.Faces {
		unionSet(uf, f.Members)
	}
	for _, d := range cs.Dominances {
		uf.union(d.Big, d.Small)
	}
	for _, d := range cs.Disjunctives {
		for _, c := range d.Children {
			uf.union(d.Parent, c)
		}
	}
	for _, e := range cs.ExtDisjunctives {
		for _, conj := range e.Conjunctions {
			for _, c := range conj {
				uf.union(e.Parent, c)
			}
		}
	}
	for _, d := range cs.Distance2s {
		uf.union(d.A, d.B)
	}
	compOf = make([]int, n)
	rootComp := make([]int, n) // root symbol -> component index + 1
	for s := 0; s < n; s++ {
		r := uf.find(s)
		if rootComp[r] == 0 {
			count++
			rootComp[r] = count
		}
		compOf[s] = rootComp[r] - 1
	}
	return compOf, count
}

// unionFind is a plain union-by-size disjoint-set forest with path halving.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
}

// unionSet unions every element of m with its first element.
func unionSet(uf *unionFind, m bitset.Set) {
	first := -1
	m.ForEach(func(e int) bool {
		if first < 0 {
			first = e
		} else {
			uf.union(first, e)
		}
		return true
	})
}
