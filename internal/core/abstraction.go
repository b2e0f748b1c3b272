package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/constraint"
	"repro/internal/dichotomy"
	"repro/internal/hypercube"
	"repro/internal/sat"
)

// BinateTable is the Section-4 abstraction of encoding-constraint
// satisfaction as a binate covering problem: columns are all informative
// encoding columns (bit patterns excluding all-0 and all-1) and rows are
// covering requirements (1 entries) and output-constraint exclusions (0
// entries). Figure 1 of the paper displays this table for the example
// (a,b), b>c, b=a∨c.
type BinateTable struct {
	Syms *constraint.Set
	// Columns[i] is the bit pattern of encoding column i, where bit s is
	// symbol s's encoding bit in that column.
	Columns []uint64
	// Rows[i][j] ∈ {0,1,2}: 1 = column j covers row i, 0 = column j must
	// not be chosen if row i is to hold, 2 = no constraint.
	Rows [][]byte
	// RowLabels describes each row for display.
	RowLabels []string
}

// BuildBinateTable enumerates all 2^n - 2 encoding columns and constructs
// the binate covering table of Section 4. Limited to small symbol counts.
func BuildBinateTable(cs *constraint.Set) (*BinateTable, error) {
	n := cs.N()
	if n < 2 || n > 20 {
		return nil, fmt.Errorf("core: binate abstraction supports 2..20 symbols, got %d", n)
	}
	t := &BinateTable{Syms: cs}
	for pat := uint64(1); pat < (uint64(1)<<uint(n))-1; pat++ {
		t.Columns = append(t.Columns, pat)
	}
	colOf := func(pat uint64) int { return int(pat) - 1 }

	addCoverRow := func(d dichotomy.D, label string) {
		row := make([]byte, len(t.Columns))
		for i := range row {
			row[i] = 2
		}
		for _, pat := range t.Columns {
			col := dichotomyOfPattern(pat, n)
			if col.Covers(d) {
				row[colOf(pat)] = 1
			}
		}
		t.Rows = append(t.Rows, row)
		t.RowLabels = append(t.RowLabels, label)
	}

	// Face-constraint dichotomies: one canonical row per (members; other).
	for _, f := range cs.Faces {
		excluded := f.Members.Clone()
		excluded.UnionWith(f.DontCare)
		for s := 0; s < n; s++ {
			if excluded.Has(s) {
				continue
			}
			d := dichotomy.D{L: f.Members.Clone()}
			d.R.Add(s)
			addCoverRow(d, fmt.Sprintf("%s;%s", cs.SymNames(f.Members), cs.Syms.Name(s)))
		}
	}
	// Uniqueness rows.
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			addCoverRow(dichotomy.Of([]int{u}, []int{v}),
				fmt.Sprintf("%s;%s", cs.Syms.Name(u), cs.Syms.Name(v)))
		}
	}
	// Output-constraint exclusion rows: one row with a single 0 per
	// violating column.
	for _, pat := range t.Columns {
		col := dichotomyOfPattern(pat, n)
		if dichotomy.Valid(col, cs) {
			continue
		}
		row := make([]byte, len(t.Columns))
		for i := range row {
			row[i] = 2
		}
		row[colOf(pat)] = 0
		t.Rows = append(t.Rows, row)
		t.RowLabels = append(t.RowLabels, fmt.Sprintf("!c%d", colOf(pat)+1))
	}
	return t, nil
}

// dichotomyOfPattern converts a column bit pattern into the total
// encoding-dichotomy it denotes (bit 0 → left block, bit 1 → right block).
func dichotomyOfPattern(pat uint64, n int) dichotomy.D {
	var d dichotomy.D
	for s := 0; s < n; s++ {
		if pat&(1<<uint(s)) != 0 {
			d.R.Add(s)
		} else {
			d.L.Add(s)
		}
	}
	return d
}

// SolveCtx finds a minimum set of encoding columns satisfying the table
// through the binate covering solve of internal/sat; the selected column
// patterns are returned. The context bounds the solve: expiry before a
// first solution returns the context error, and after one the best
// solution found so far.
func (t *BinateTable) SolveCtx(ctx context.Context) ([]uint64, error) {
	p := sat.BinateProblem{NumCols: len(t.Columns)}
	for _, row := range t.Rows {
		var clause []sat.Lit
		for j, v := range row {
			switch v {
			case 1:
				clause = append(clause, sat.Pos(j))
			case 0:
				clause = append(clause, sat.Neg(j))
			}
		}
		p.Clauses = append(p.Clauses, clause)
	}
	// The uniqueness rows force pairwise-distinct codes, so no solution has
	// fewer than ceil(log2 n) columns: the k-search starts there.
	sol, err := sat.SolveBinateCtx(ctx, &p, sat.CoverOptions{LowerBound: hypercube.MinBits(t.Syms.N())})
	if err != nil {
		return nil, err
	}
	var pats []uint64
	for _, c := range sol.Selected {
		pats = append(pats, t.Columns[c])
	}
	return pats, nil
}

// EncodingFromPatterns converts selected column patterns into an Encoding.
func (t *BinateTable) EncodingFromPatterns(pats []uint64) *Encoding {
	n := t.Syms.N()
	cols := make([]dichotomy.D, len(pats))
	for i, p := range pats {
		cols[i] = dichotomyOfPattern(p, n)
	}
	return FromColumns(t.Syms.Syms, cols)
}

// Render prints the table in the style of Figure 1: a header of column
// names c1..cK and one line per row with 1/0 entries (blank for 2).
func (t *BinateTable) Render() string {
	var b strings.Builder
	b.WriteString(fmt.Sprintf("%-12s", ""))
	for i := range t.Columns {
		fmt.Fprintf(&b, " c%-3d", i+1)
	}
	b.WriteByte('\n')
	for r, row := range t.Rows {
		fmt.Fprintf(&b, "%-12s", t.RowLabels[r])
		for _, v := range row {
			switch v {
			case 1:
				b.WriteString("  1  ")
			case 0:
				b.WriteString("  0  ")
			default:
				b.WriteString("  .  ")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
