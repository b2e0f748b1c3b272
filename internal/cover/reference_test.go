package cover

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
)

// The references below are the all-pairs dominance passes and the eager
// plain and weighted greedy covers the search ran before the incidence
// index and lazy re-scoring: the rewritten code must leave exactly what
// they leave.

// rowDominanceAllPairs tests every ordered pair of active rows and removes
// row j when row i's active candidates lie within j's, keeping the earlier
// of identical rows.
func (m *matrix) rowDominanceAllPairs(rows, cols bitset.Set) bool {
	ids := rows.Elems()
	alive := make([]bool, len(ids))
	for i := range alive {
		alive[i] = true
	}
	removed := false
	for i := range ids {
		if !alive[i] {
			continue
		}
		for j := range ids {
			if !alive[j] || i == j || !bitset.IntersectionSubsetOf(m.rowSets[ids[i]], m.rowSets[ids[j]], cols) {
				continue
			}
			if j < i && bitset.IntersectionSubsetOf(m.rowSets[ids[j]], m.rowSets[ids[i]], cols) {
				continue // identical rows: keep the earlier
			}
			rows.Remove(ids[j])
			alive[j] = false
			removed = true
		}
	}
	return removed
}

// colDominanceAllPairs tests every ordered pair of active columns and
// removes column ci when a live no-costlier column covers its active rows,
// keeping the earlier of identical columns.
func (m *matrix) colDominanceAllPairs(rows, cols bitset.Set) bool {
	ids := cols.Elems()
	alive := make([]bool, len(ids))
	for i := range alive {
		alive[i] = true
	}
	removed := false
	for i, ci := range ids {
		for j, cj := range ids {
			if !alive[j] || i == j || m.p.cost(cj) > m.p.cost(ci) ||
				!bitset.IntersectionSubsetOf(m.colSets[ci], m.colSets[cj], rows) {
				continue
			}
			if j > i && m.p.cost(cj) == m.p.cost(ci) && bitset.IntersectionSubsetOf(m.colSets[cj], m.colSets[ci], rows) {
				continue // identical columns: keep the earlier
			}
			cols.Remove(ci)
			alive[i] = false
			removed = true
			break
		}
	}
	return removed
}

// greedyVariantEager builds greedy cover variant as greedyCover does with
// nil weights, scoring every active column at every step.
func (m *matrix) greedyVariantEager(rows, cols bitset.Set, variant int) (selection []int, ok bool) {
	remaining := rows.Clone()
	var sel []int
	step := 0
	for !remaining.IsEmpty() {
		// Track the top three scoring columns.
		type cand struct {
			c     int
			score float64
		}
		top := [3]cand{{-1, -1}, {-1, -1}, {-1, -1}}
		for wi, wc := 0, cols.WordCount(); wi < wc; wi++ {
			for w := cols.Word(wi); w != 0; w &= w - 1 {
				c := wi*64 + bits.TrailingZeros64(w)
				k := bitset.IntersectLen(m.colSets[c], remaining)
				if k == 0 {
					continue
				}
				sc := float64(k) / float64(m.p.cost(c))
				for i := 0; i < 3; i++ {
					if sc > top[i].score {
						copy(top[i+1:], top[i:2])
						top[i] = cand{c, sc}
						break
					}
				}
			}
		}
		if top[0].c < 0 {
			return nil, false
		}
		pick := 0
		if variant > 0 && (step+variant)%3 == 0 {
			pick = variant % 3
			for pick > 0 && top[pick].c < 0 {
				pick--
			}
		}
		sel = append(sel, top[pick].c)
		remaining.DifferenceWith(m.colSets[top[pick].c])
		step++
	}
	return sel, true
}

// weightedGreedyEager scores every active column at every step.
func (m *matrix) weightedGreedyEager(ub *ubScratch, rows, cols bitset.Set, iters int) {
	nRows := len(m.rowSets)
	weights := make([]float64, nRows)
	counts := make([]int, nRows)
	for r := range weights {
		weights[r] = 1
	}
	for it := 0; it < iters; it++ {
		remaining := rows.Clone()
		var sel []int
		for !remaining.IsEmpty() {
			bestC, bestScore := -1, -1.0
			for wi, wc := 0, cols.WordCount(); wi < wc; wi++ {
				for cw := cols.Word(wi); cw != 0; cw &= cw - 1 {
					c := wi*64 + bits.TrailingZeros64(cw)
					w := weightedCoverage(m.colSets[c], remaining, weights)
					if w == 0 {
						continue
					}
					if score := w / float64(m.p.cost(c)); score > bestScore {
						bestScore, bestC = score, c
					}
				}
			}
			if bestC < 0 {
				return
			}
			sel = append(sel, bestC)
			remaining.DifferenceWith(m.colSets[bestC])
		}
		m.consider(ub, rows, sel, 0)
		clear(counts)
		for _, c := range sel {
			bitset.IntersectForEach(m.colSets[c], rows, func(r int) bool {
				counts[r]++
				return true
			})
		}
		for r := range counts {
			if counts[r] == 1 {
				weights[r] *= 1.3
			}
		}
	}
}

// referenceMismatch runs the indexed dominance passes and the lazy plain
// and weighted greedy covers against their references on the state
// (rows, cols) of m, whose active rows must each keep an active column,
// and describes the first difference, or returns "". The column passes
// run both on the state itself and on what the row pass leaves, as reduce
// runs them.
func (m *matrix) referenceMismatch(rows, cols bitset.Set) string {
	sc := newScratch(m)
	gotRows, wantRows := rows.Clone(), rows.Clone()
	got := m.reduceRowDominance(gotRows, cols, nil)
	want := m.rowDominanceAllPairs(wantRows, cols)
	if got != want || !gotRows.Equal(wantRows) {
		return fmt.Sprintf("row pass left %v (removed %v), all pairs %v (removed %v)", gotRows, got, wantRows, want)
	}
	for _, active := range []bitset.Set{rows, gotRows} {
		gotCols, wantCols := cols.Clone(), cols.Clone()
		got := m.reduceColDominance(sc, active, gotCols, nil)
		want := m.colDominanceAllPairs(active, wantCols)
		if got != want || !gotCols.Equal(wantCols) {
			return fmt.Sprintf("column pass over rows %v left %v (removed %v), all pairs %v (removed %v)",
				active, gotCols, got, wantCols, want)
		}
	}
	lazy, eager := &ubScratch{}, &ubScratch{}
	for variant := 0; variant < 8; variant++ {
		got, gotOK := m.greedyCover(lazy, rows, cols, nil, variant)
		want, wantOK := m.greedyVariantEager(rows, cols, variant)
		if gotOK != wantOK || !slices.Equal(got, want) {
			return fmt.Sprintf("lazy greedy variant %d built %v (ok %v), eager %v (ok %v)", variant, got, gotOK, want, wantOK)
		}
	}
	m.weightedGreedy(context.Background(), lazy, rows, cols, 24, 0)
	m.weightedGreedyEager(eager, rows, cols, 24)
	if lazy.found != eager.found || lazy.cost != eager.cost || !slices.Equal(lazy.sel, eager.sel) {
		return fmt.Sprintf("lazy weighted greedy kept %v (cost %d), eager %v (cost %d)", lazy.sel, lazy.cost, eager.sel, eager.cost)
	}
	return ""
}

// RootReferenceMismatch is referenceMismatch on p's root state: every row,
// and the columns the duplicate/empty-column dedupe keeps.
func RootReferenceMismatch(p *Problem) (string, error) {
	sv, err := NewSolver(p, Options{})
	if err != nil {
		return "", err
	}
	return sv.m.referenceMismatch(sv.rootRows, sv.rootCols), nil
}

// twinned adds to p copies of a few rows and columns, so that identical
// rows and identical columns meet in the passes.
func twinned(p *Problem, rng *rand.Rand) *Problem {
	q := &Problem{NumCols: p.NumCols}
	for _, cols := range p.RowCols {
		q.RowCols = append(q.RowCols, slices.Clone(cols))
	}
	for k := 0; k < 1+rng.Intn(3); k++ {
		q.RowCols = append(q.RowCols, slices.Clone(q.RowCols[rng.Intn(len(q.RowCols))]))
	}
	if p.Cost != nil {
		q.Cost = slices.Clone(p.Cost)
	}
	for k := 0; k < 1+rng.Intn(3); k++ {
		c, twin := rng.Intn(q.NumCols), q.NumCols
		q.NumCols++
		if q.Cost != nil {
			// Mostly the same cost, so the twins are identical columns.
			q.Cost = append(q.Cost, q.Cost[c]+rng.Intn(3)/2)
		}
		for r, cols := range q.RowCols {
			if slices.Contains(cols, c) {
				q.RowCols[r] = append(q.RowCols[r], twin)
			}
		}
	}
	return q
}

// randomState draws active rows and columns of m: each column with
// probability 3/4, then each row that keeps an active column with
// probability 3/4.
func randomState(m *matrix, rng *rand.Rand) (rows, cols bitset.Set) {
	rows, cols = bitset.New(len(m.rowSets)), bitset.New(m.p.NumCols)
	for c := 0; c < m.p.NumCols; c++ {
		if rng.Intn(4) != 0 {
			cols.Add(c)
		}
	}
	for r := range m.rowSets {
		if rng.Intn(4) != 0 && m.rowSets[r].Intersects(cols) {
			rows.Add(r)
		}
	}
	return rows, cols
}

// TestPassesMatchReference: on random states of random problems — unit,
// 1–4 and 0–3 costs, with twinned rows and columns — the indexed
// dominance passes leave exactly the rows and columns the all-pairs passes
// leave, the lazy greedy variants build the eager ones' covers, and the
// lazy weighted greedy keeps the eager one's incumbent.
func TestPassesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 1500; trial++ {
		p := randomSizedProblem(rng, 2+rng.Intn(40), 2+rng.Intn(40))
		switch trial % 3 {
		case 1:
			p = withCosts(p, 1, 4, int64(trial))
		case 2:
			p = withCosts(p, 0, 3, int64(trial))
		}
		if trial%2 == 1 {
			p = twinned(p, rng)
		}
		for r := range p.RowCols {
			if len(p.RowCols[r]) == 0 {
				p.RowCols[r] = []int{rng.Intn(p.NumCols)}
			}
		}
		m, err := newMatrix(p)
		if err != nil {
			t.Fatal(err)
		}
		rows, cols := randomState(m, rng)
		if msg := m.referenceMismatch(rows, cols); msg != "" {
			t.Fatalf("trial %d (%d rows, %d cols, cost %v): %s", trial, len(p.RowCols), p.NumCols, p.Cost, msg)
		}
	}
}

// TestPassesMatchReferenceKernels: the same on the root states of the
// kernel instances and their weighted variants, whose passes and greedy
// rounds run over many more members than the random draws.
func TestPassesMatchReferenceKernels(t *testing.T) {
	for _, tc := range pinnedSearches() {
		msg, err := RootReferenceMismatch(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if msg != "" {
			t.Fatalf("%s: %s", tc.name, msg)
		}
	}
}
