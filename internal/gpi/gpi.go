// Package gpi implements generalized prime implicants (GPIs), the
// output-encoding front end of Devadas and Newton's exact procedure
// (reference [9] of the paper). A symbolic output function maps binary
// input minterms to output symbols; a GPI is an input cube tagged with the
// set of symbols of the minterms it covers, asserting the bit-wise AND of
// their codes. Selecting a GPI cover of all minterms preserves the
// function iff, for every minterm m asserting symbol s_m,
//
//	∨_{g ∋ m} ∧_{s ∈ Tag(g)} code(s)  =  code(s_m),
//
// which Section 6.2 of the paper reduces to the extended disjunctive
// constraint (∨_g ∧_{s ∈ Tag(g)∖s_m} s) ≥ s_m. This package generates the
// GPIs Quine–McCluskey-style, selects a minimum cover with the unate
// covering solver, and emits the induced extended disjunctive constraints.
package gpi

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/bitset"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/espresso"
	"repro/internal/hypercube"
	"repro/internal/sym"
)

// Minterm is one fully specified input point asserting one output symbol.
type Minterm struct {
	Point  uint64
	Symbol int
}

// Function is a symbolic output function: a partial map from input
// minterms to output symbols. Unlisted minterms are don't-cares.
type Function struct {
	NumInputs int
	Syms      *sym.Table
	Minterms  []Minterm
}

// NewFunction returns an empty function over the given input count.
func NewFunction(numInputs int) *Function {
	return &Function{NumInputs: numInputs, Syms: sym.NewTable()}
}

// Add records that input point asserts the named output symbol.
func (f *Function) Add(point uint64, symbol string) {
	f.Minterms = append(f.Minterms, Minterm{Point: point, Symbol: f.Syms.Intern(symbol)})
}

// Validate checks points fit the input width and are not contradictory.
func (f *Function) Validate() error {
	limit := uint64(1) << uint(f.NumInputs)
	seen := map[uint64]int{}
	for _, m := range f.Minterms {
		if m.Point >= limit {
			return fmt.Errorf("gpi: point %b exceeds %d inputs", m.Point, f.NumInputs)
		}
		if s, dup := seen[m.Point]; dup && s != m.Symbol {
			return fmt.Errorf("gpi: point %b asserts two symbols", m.Point)
		}
		seen[m.Point] = m.Symbol
	}
	return nil
}

// GPI is a generalized prime implicant: an input cube and the tag of
// output symbols whose codes it ANDs.
type GPI struct {
	Cube espresso.Cube
	Tag  bitset.Set
}

// String renders the GPI as cube(tag names).
func (g GPI) String(f *Function) string {
	var names []string
	g.Tag.ForEach(func(s int) bool {
		names = append(names, f.Syms.Name(s))
		return true
	})
	return g.Cube.String(f.NumInputs) + "(" + joinComma(names) + ")"
}

func joinComma(xs []string) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += ","
		}
		out += x
	}
	return out
}

// Generate enumerates all GPIs of the function Quine–McCluskey-style:
// level 0 holds the minterms (tag = asserted symbol); level k+1 merges
// distance-1 cubes of level k, unioning tags; a cube is non-prime exactly
// when a merge subsumes it without enlarging its tag. The limit bounds the
// total implicant count ([9]'s procedure is exponential; the paper's point
// is that the *constraint satisfaction*, not the generation, is the hard
// part this framework solves).
func Generate(f *Function, limit int) ([]GPI, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if limit <= 0 {
		limit = 100000
	}
	type entry struct {
		g      GPI
		covers bitset.Set // minterm indices covered
		prime  bool
	}
	var level []entry
	seen := map[string]bool{}
	key := func(g GPI) string {
		return fmt.Sprintf("%x/%x/%s", g.Cube.Z, g.Cube.O, g.Tag.Key())
	}
	for i, m := range f.Minterms {
		g := GPI{Cube: espresso.MintermCube(f.NumInputs, m.Point), Tag: bitset.Of(m.Symbol)}
		var cov bitset.Set
		cov.Add(i)
		level = append(level, entry{g: g, covers: cov, prime: true})
		seen[key(g)] = true
	}
	var primes []GPI
	total := len(level)
	for len(level) > 0 {
		var next []entry
		for i := range level {
			for j := i + 1; j < len(level); j++ {
				a, b := &level[i], &level[j]
				if a.g.Cube.Distance(f.NumInputs, b.g.Cube) != 1 {
					continue
				}
				// The supercube of two distance-1 cubes can cover specified
				// minterms outside both constituents (0-- ∪ 1-0 spans ---),
				// so tag and coverage are recomputed from the geometry
				// rather than unioned: a GPI's tag must carry the symbol of
				// every minterm its cube covers, or Constraints silently
				// drops the extra assertions and a selected cover no longer
				// implements the function (VerifyCover's equality fails).
				merged := GPI{Cube: a.g.Cube.Supercube(b.g.Cube)}
				var mergedCov bitset.Set
				for mi, m := range f.Minterms {
					if merged.Cube.ContainsMinterm(f.NumInputs, m.Point) {
						mergedCov.Add(mi)
						merged.Tag.Add(m.Symbol)
					}
				}
				// A constituent is subsumed when the merge covers its cube
				// without enlarging its tag.
				if merged.Tag.Equal(a.g.Tag) {
					a.prime = false
				}
				if merged.Tag.Equal(b.g.Tag) {
					b.prime = false
				}
				k := key(merged)
				if seen[k] {
					continue
				}
				seen[k] = true
				next = append(next, entry{
					g:      merged,
					covers: mergedCov,
					prime:  true,
				})
				total++
				if total > limit {
					return nil, fmt.Errorf("gpi: implicant limit %d exceeded", limit)
				}
			}
		}
		for _, e := range level {
			if e.prime {
				primes = append(primes, e.g)
			}
		}
		level = next
	}
	// Final dominance pass: drop (c,T) when some other (c',T') has
	// c ⊆ c' and T' ⊆ T (strictly better or equal in both, not identical).
	primes = removeDominated(primes)
	sort.Slice(primes, func(i, j int) bool {
		if primes[i].Cube != primes[j].Cube {
			if primes[i].Cube.Z != primes[j].Cube.Z {
				return primes[i].Cube.Z < primes[j].Cube.Z
			}
			return primes[i].Cube.O < primes[j].Cube.O
		}
		return primes[i].Tag.Key() < primes[j].Tag.Key()
	})
	return primes, nil
}

func removeDominated(gs []GPI) []GPI {
	var out []GPI
	for i, g := range gs {
		dominated := false
		for j, h := range gs {
			if i == j {
				continue
			}
			if h.Cube.Contains(g.Cube) && h.Tag.SubsetOf(g.Tag) {
				if g.Cube == h.Cube && g.Tag.Equal(h.Tag) && j > i {
					continue
				}
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, g)
		}
	}
	return out
}

// SelectCover chooses a minimum set of GPIs covering every minterm, using
// the exact unate covering solver.
func SelectCover(f *Function, gpis []GPI, opts cover.Options) ([]int, error) {
	p := cover.Problem{NumCols: len(gpis), RowCols: make([][]int, len(f.Minterms))}
	for mi, m := range f.Minterms {
		for gi, g := range gpis {
			if g.Cube.ContainsMinterm(f.NumInputs, m.Point) && g.Tag.Has(m.Symbol) {
				p.RowCols[mi] = append(p.RowCols[mi], gi)
			}
		}
	}
	sol, err := p.SolveExactCtx(context.Background(), opts)
	if err != nil {
		return nil, err
	}
	return sol.Cols, nil
}

// SelectEncodableCover chooses a GPI cover whose induced constraints are
// satisfiable. A minimum-cardinality cover may be unencodable — the precise
// flaw the paper demonstrates in the procedure of [9] — so the selection is
// vetted with the polynomial P-1 check (Theorem 6.1) and retried with
// increasing penalties on large-tag GPIs until it passes. The penalty-free
// fallback (singleton-tag GPIs only, which induce no constraints at all)
// always exists and is always feasible, so the loop terminates with an
// encodable selection.
func SelectEncodableCover(f *Function, gpis []GPI, opts cover.Options) ([]int, *constraint.Set, error) {
	for _, penalty := range []int{0, 1, 2, 4, 8} {
		p := cover.Problem{
			NumCols: len(gpis),
			Cost:    make([]int, len(gpis)),
			RowCols: make([][]int, len(f.Minterms)),
		}
		for gi, g := range gpis {
			p.Cost[gi] = 1 + penalty*(g.Tag.Len()-1)
		}
		for mi, m := range f.Minterms {
			for gi, g := range gpis {
				if g.Cube.ContainsMinterm(f.NumInputs, m.Point) && g.Tag.Has(m.Symbol) {
					p.RowCols[mi] = append(p.RowCols[mi], gi)
				}
			}
		}
		sol, err := p.SolveExactCtx(context.Background(), opts)
		if err != nil {
			return nil, nil, err
		}
		cs := Constraints(f, gpis, sol.Cols)
		if core.CheckFeasible(cs).Feasible {
			return sol.Cols, cs, nil
		}
	}
	// Fallback: singleton-tag GPIs only.
	var sel []int
	for mi, m := range f.Minterms {
		_ = mi
		bestG, bestSize := -1, -1
		for gi, g := range gpis {
			if g.Tag.Len() == 1 && g.Tag.Has(m.Symbol) &&
				g.Cube.ContainsMinterm(f.NumInputs, m.Point) {
				if sz := f.NumInputs - g.Cube.Literals(f.NumInputs); sz > bestSize {
					bestSize, bestG = sz, gi
				}
			}
		}
		if bestG < 0 {
			return nil, nil, fmt.Errorf("gpi: no singleton-tag GPI covers minterm %b", m.Point)
		}
		sel = append(sel, bestG)
	}
	slices.Sort(sel)
	sel = slices.Compact(sel)
	return sel, Constraints(f, gpis, sel), nil
}

// Constraints emits the extended disjunctive constraints induced by a
// selected GPI cover: for each minterm m asserting s_m, the conjunctions
// are the selected covering GPIs' tags minus s_m (GPIs whose tag is exactly
// {s_m} satisfy the constraint trivially and suppress it). Duplicate
// constraints are merged. Dominance constraints implied by singleton
// conjunctions ({s} ≥ s_m ⟺ s > s_m) are emitted as such.
func Constraints(f *Function, gpis []GPI, selected []int) *constraint.Set {
	cs := constraint.NewSet(f.Syms)
	seen := map[string]bool{}
	for _, m := range f.Minterms {
		var conjs [][]int
		trivial := false
		for _, gi := range selected {
			g := gpis[gi]
			if !g.Cube.ContainsMinterm(f.NumInputs, m.Point) || !g.Tag.Has(m.Symbol) {
				continue
			}
			rest := g.Tag.Clone()
			rest.Remove(m.Symbol)
			if rest.IsEmpty() {
				// This GPI asserts exactly code(s_m): constraint holds.
				trivial = true
				break
			}
			conjs = append(conjs, rest.Elems())
		}
		if trivial || len(conjs) == 0 {
			continue
		}
		sort.Slice(conjs, func(i, j int) bool { return slices.Compare(conjs[i], conjs[j]) < 0 })
		k := fmt.Sprintf("%d|%v", m.Symbol, conjs)
		if seen[k] {
			continue
		}
		seen[k] = true
		if len(conjs) == 1 && len(conjs[0]) == 1 {
			cs.Dominances = append(cs.Dominances, constraint.Dominance{
				Big: conjs[0][0], Small: m.Symbol,
			})
			continue
		}
		cs.ExtDisjunctives = append(cs.ExtDisjunctives, constraint.ExtDisjunctive{
			Parent:       m.Symbol,
			Conjunctions: conjs,
		})
	}
	return cs
}

// VerifyCover checks the defining property of a GPI selection under an
// encoding: every minterm's OR-of-AND-of-codes equals its symbol's code —
// the cardinality-preservation guarantee of [9].
func VerifyCover(f *Function, gpis []GPI, selected []int, codes []hypercube.Code) error {
	for _, m := range f.Minterms {
		var or hypercube.Code
		for _, gi := range selected {
			g := gpis[gi]
			if !g.Cube.ContainsMinterm(f.NumInputs, m.Point) {
				continue
			}
			and := ^hypercube.Code(0)
			g.Tag.ForEach(func(s int) bool {
				and &= codes[s]
				return true
			})
			or |= and
		}
		if or != codes[m.Symbol] {
			return fmt.Errorf("gpi: minterm %b asserts %b, want %b (symbol %s)",
				m.Point, or, codes[m.Symbol], f.Syms.Name(m.Symbol))
		}
	}
	return nil
}
