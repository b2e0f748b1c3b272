// Package tracey implements Tracey's 1966 critical-race-free state
// assignment for asynchronous sequential machines — the technique the
// paper's dichotomy framework generalizes (reference [23]). In a
// single-transition-time assignment, two transitions a→b and c→d occurring
// under the same input column must be distinguished by some code bit that
// is constant over {a,b}, constant over {c,d}, and different between the
// two groups; each such requirement is exactly an encoding-dichotomy
// ({a,b}; {c,d}), and a minimum race-free assignment is a minimum cover of
// these dichotomies by prime encoding-dichotomies.
package tracey

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/dichotomy"
	"repro/internal/hypercube"
	"repro/internal/prime"
	"repro/internal/sym"
)

// FlowTable is an asynchronous flow table: Next[s][c] is the next internal
// state of state s under input column c, or -1 where unspecified. An entry
// equal to its row index is a stable state.
type FlowTable struct {
	States  *sym.Table
	Columns []string
	Next    [][]int
}

// New returns a flow table over the named input columns.
func New(columns ...string) *FlowTable {
	return &FlowTable{States: sym.NewTable(), Columns: columns}
}

// AddRow appends a state row; entries name the next state per column, ""
// for unspecified. Returns the new state's index.
func (ft *FlowTable) AddRow(state string, next ...string) (int, error) {
	if len(next) != len(ft.Columns) {
		return 0, fmt.Errorf("tracey: row %s has %d entries for %d columns", state, len(next), len(ft.Columns))
	}
	s := ft.States.Intern(state)
	for len(ft.Next) <= s {
		ft.Next = append(ft.Next, nil)
	}
	row := make([]int, len(ft.Columns))
	for c, n := range next {
		if n == "" {
			row[c] = -1
		} else {
			row[c] = ft.States.Intern(n)
		}
	}
	ft.Next[s] = row
	return s, nil
}

// Validate checks the table is rectangular and its entries resolve.
func (ft *FlowTable) Validate() error {
	n := ft.States.Len()
	if len(ft.Next) != n {
		return fmt.Errorf("tracey: %d states but %d rows", n, len(ft.Next))
	}
	for s, row := range ft.Next {
		if len(row) != len(ft.Columns) {
			return fmt.Errorf("tracey: row %s is not rectangular", ft.States.Name(s))
		}
		for _, t := range row {
			if t < -1 || t >= n {
				return fmt.Errorf("tracey: row %s references unknown state %d", ft.States.Name(s), t)
			}
		}
	}
	return nil
}

// transition is a (source, destination) pair within one column.
type transition struct{ from, to int }

// columnTransitions lists the defined transitions of column c, one per
// source state.
func (ft *FlowTable) columnTransitions(c int) []transition {
	var out []transition
	for s, row := range ft.Next {
		if row[c] >= 0 {
			out = append(out, transition{from: s, to: row[c]})
		}
	}
	return out
}

// Dichotomies generates the Tracey dichotomy constraints: for every input
// column and every pair of its transitions with disjoint state sets and
// different destinations, the dichotomy ({a,b}; {c,d}). Duplicates are
// removed (orientation-insensitively).
func (ft *FlowTable) Dichotomies() []dichotomy.D {
	var out []dichotomy.D
	seen := map[string]bool{}
	for c := range ft.Columns {
		trans := ft.columnTransitions(c)
		for i := 0; i < len(trans); i++ {
			for j := i + 1; j < len(trans); j++ {
				a, b := trans[i], trans[j]
				if a.to == b.to {
					continue // transitions into the same state never race
				}
				g1 := bitset.Of(a.from, a.to)
				g2 := bitset.Of(b.from, b.to)
				if g1.Intersects(g2) {
					continue
				}
				d := dichotomy.D{L: g1, R: g2}
				k := d.CanonicalKey()
				if !seen[k] {
					seen[k] = true
					out = append(out, d)
				}
			}
		}
	}
	return out
}

// Options tunes the assignment search.
type Options struct {
	Prime prime.Options
	Cover cover.Options
}

// Assign computes a minimum-length critical-race-free assignment: the
// Tracey dichotomies plus uniqueness requirements are covered exactly by
// prime encoding-dichotomies, each chosen column becoming one code bit.
func Assign(ft *FlowTable, opts Options) (*core.Encoding, error) {
	if err := ft.Validate(); err != nil {
		return nil, err
	}
	n := ft.States.Len()
	if n == 0 {
		return core.NewEncoding(ft.States, 0, nil), nil
	}

	// Seeds: both orientations of each Tracey dichotomy plus uniqueness
	// pairs not already separated by one.
	var seeds []dichotomy.D
	separated := make(map[[2]int]bool)
	for _, d := range ft.Dichotomies() {
		seeds = append(seeds, d, d.Mirror())
		d.L.ForEach(func(u int) bool {
			d.R.ForEach(func(v int) bool {
				separated[[2]int{u, v}] = true
				separated[[2]int{v, u}] = true
				return true
			})
			return true
		})
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !separated[[2]int{u, v}] {
				seeds = append(seeds, dichotomy.Of([]int{u}, []int{v}), dichotomy.Of([]int{v}, []int{u}))
			}
		}
	}

	primes, err := prime.GenerateCtx(context.Background(), seeds, opts.Prime)
	if err != nil {
		return nil, err
	}
	p := cover.Problem{NumCols: len(primes), RowCols: dichotomy.Coverage(dichotomy.Rows(seeds), primes)}
	coverOpts := opts.Cover
	if coverOpts.LowerBound == 0 {
		coverOpts.LowerBound = hypercube.MinBits(n)
	}
	sol, err := p.SolveExactCtx(context.Background(), coverOpts)
	if err != nil {
		if errors.Is(err, cover.ErrInfeasible) {
			return nil, fmt.Errorf("tracey: no race-free assignment exists for these constraints")
		}
		return nil, err
	}
	cols := make([]dichotomy.D, 0, len(sol.Cols))
	for _, c := range sol.Cols {
		cols = append(cols, primes[c])
	}
	enc := core.FromColumns(ft.States, cols)
	if err := VerifyRaceFree(ft, enc); err != nil {
		return nil, fmt.Errorf("tracey: internal error: %w", err)
	}
	return enc, nil
}

// VerifyRaceFree checks an assignment geometrically: for every column and
// every pair of disjoint different-destination transitions, some code bit
// is constant within each transition's {from,to} pair and differs between
// the pairs (so the two transitions never pass through a shared code).
func VerifyRaceFree(ft *FlowTable, enc *core.Encoding) error {
	if err := ft.Validate(); err != nil {
		return err
	}
	for c := range ft.Columns {
		trans := ft.columnTransitions(c)
		for i := 0; i < len(trans); i++ {
			for j := i + 1; j < len(trans); j++ {
				a, b := trans[i], trans[j]
				if a.to == b.to {
					continue
				}
				g1 := bitset.Of(a.from, a.to)
				g2 := bitset.Of(b.from, b.to)
				if g1.Intersects(g2) {
					continue
				}
				if !separatedByBit(enc, a, b) {
					return fmt.Errorf("tracey: column %s: transitions %s→%s and %s→%s race",
						ft.Columns[c],
						ft.States.Name(a.from), ft.States.Name(a.to),
						ft.States.Name(b.from), ft.States.Name(b.to))
				}
			}
		}
	}
	return nil
}

func separatedByBit(enc *core.Encoding, a, b transition) bool {
	for bit := 0; bit < enc.Bits; bit++ {
		mask := hypercube.Code(1) << uint(bit)
		a1, a2 := enc.Codes[a.from]&mask, enc.Codes[a.to]&mask
		b1, b2 := enc.Codes[b.from]&mask, enc.Codes[b.to]&mask
		if a1 == a2 && b1 == b2 && a1 != b1 {
			return true
		}
	}
	return false
}
