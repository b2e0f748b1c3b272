// Package sat provides a small CNF toolkit and an embedded DPLL/CDCL
// solver. It is the exact encoder's only binate covering engine
// (SolveBinateCtx: the Section-4 table and the Section-8 distance-2 and
// non-face clauses) and its alternative unate engine (SolveCoverCtx,
// selected by core.ExactOptions.Backend = BackendSAT).
//
// The package lowers the prime-dichotomy covering problems of the paper's
// P-2 pipeline to CNF: one selection variable per candidate column, one
// clause per covering row (and per Section-8 binate clause), and an
// at-most-k cardinality layer (Sinz's sequential counter). Both solves
// recover minimality through one k-search that adds the counter for each
// k upward from a lower bound. A unate problem is lowered after
// internal/cover's root reductions (cover.Problem.Reduce), so only its
// cyclic core reaches the solver. Each step's CNF goes to the solver as
// built: there is no clause-level simplifier.
package sat

import (
	"fmt"
	"sort"
)

// Lit is a literal: variable index v becomes 2v (positive) or 2v+1
// (negated). The packed form indexes watch lists directly.
type Lit int32

// Pos returns the positive literal of variable v.
func Pos(v int) Lit { return Lit(2 * v) }

// Neg returns the negated literal of variable v.
func Neg(v int) Lit { return Lit(2*v + 1) }

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Negated reports whether the literal is a negation.
func (l Lit) Negated() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// String renders the literal in DIMACS convention (1-based, sign for
// negation).
func (l Lit) String() string {
	if l.Negated() {
		return fmt.Sprintf("-%d", l.Var()+1)
	}
	return fmt.Sprintf("%d", l.Var()+1)
}

// CNF is a clause database under construction. Clauses are cleaned on
// insertion: duplicate literals collapse, tautologies (x ∨ ¬x ∨ …) are
// dropped, and an empty clause marks the formula trivially unsatisfiable.
type CNF struct {
	numVars int
	// Clauses holds the retained clauses, each with literals sorted
	// ascending.
	Clauses [][]Lit
	// unsat records that an empty clause was added.
	unsat bool
}

// NewCNF returns a formula over numVars variables (indices 0..numVars-1).
func NewCNF(numVars int) *CNF {
	return &CNF{numVars: numVars}
}

// NumVars returns the variable count, including auxiliaries.
func (f *CNF) NumVars() int { return f.numVars }

// Unsat reports whether an empty clause was added, making the formula
// trivially unsatisfiable.
func (f *CNF) Unsat() bool { return f.unsat }

// NewVar allocates a fresh auxiliary variable and returns its index.
func (f *CNF) NewVar() int {
	v := f.numVars
	f.numVars++
	return v
}

// AddClause inserts a clause. The literal slice is copied, sorted and
// deduplicated; tautological clauses are discarded and an empty clause
// marks the formula unsatisfiable.
func (f *CNF) AddClause(lits ...Lit) {
	if len(lits) == 0 {
		f.unsat = true
		return
	}
	cl := make([]Lit, len(lits))
	copy(cl, lits)
	sort.Slice(cl, func(i, j int) bool { return cl[i] < cl[j] })
	out := cl[:0]
	for i, l := range cl {
		if i > 0 && l == cl[i-1] {
			continue // duplicate literal
		}
		if i > 0 && l == cl[i-1].Not() {
			return // tautology: adjacent after sort since 2v, 2v+1
		}
		out = append(out, l)
	}
	f.Clauses = append(f.Clauses, out)
}

// Status is a solver verdict.
type Status int

// Solver verdicts: Unknown means the budget (conflicts or context) ran out
// before a verdict.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

// Result is a solve outcome.
type Result struct {
	Status Status
	// Model[v] is the value of variable v when Status == Sat; nil
	// otherwise.
	Model []bool
	// Search effort counters.
	Conflicts    int64
	Decisions    int64
	Propagations int64
}
