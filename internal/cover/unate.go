// Package cover provides the unate covering solvers the encoding framework
// reduces to: an exact branch-and-bound solver with the classical
// reductions (essential columns, row and column dominance,
// maximal-independent-set lower bound) and a greedy heuristic.
// Problem.Reduce runs the root reductions on their own, so internal/sat's
// unate backend solves the same cyclic core. Binate covering — the
// Section-4 abstraction and the Section-8 extension constraints — is
// solved by internal/sat.
//
// # Cancellation
//
// The exact solver is an anytime algorithm: Problem.SolveExactCtx and
// Solver.SolveCtx poll the context between search nodes, and when it
// expires or is canceled they return the best feasible solution found so
// far with Optimal=false — exactly the behavior the TimeLimit option has
// always had, which is now implemented as a context deadline layered under
// the caller's context.
//
// # Parallelism
//
// With Options.Workers > 1 the exact unate solver fans the branch-and-bound
// tree out over a worker pool. The top of the tree is peeled off in
// sequential visit order into an ordered task list; workers then drain the
// tasks, sharing the pruning upper bound through completed earlier tasks
// only. That discipline — plus a deterministic fold of the per-task results
// in task order — makes the parallel solver return the exact solution the
// sequential solver returns, byte for byte, for any worker count (budgeted,
// Optimal=false runs excepted: when a node or time budget interrupts the
// search, the incumbent depends on how far each worker got). See
// parallel.go.
package cover

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/bitset"
	"repro/internal/par"
	"repro/internal/trace"
)

// Problem is a unate covering problem: choose a minimum-cost subset of
// columns such that every row has at least one chosen column.
// A Problem is immutable during a solve and may be solved concurrently from
// multiple goroutines.
type Problem struct {
	NumCols int
	// Cost per column; nil means unit costs. When set it holds one
	// non-negative cost per column.
	Cost []int
	// RowCols[r] lists the columns that cover row r.
	RowCols [][]int
}

// Solution is the result of a covering run.
type Solution struct {
	Cols []int // selected columns, ascending
	Cost int
	// Optimal is true when the solver proved optimality (exact solve
	// finished within its budgets).
	Optimal bool
}

// Options tunes the exact solver.
type Options struct {
	// Parallelism supplies the Workers/TimeLimit pair shared by all
	// solver stages. Workers fans the exact branch and bound out over a
	// pool (the parallel engine returns the identical solution to the
	// sequential one whenever the search completes within its budgets);
	// TimeLimit bounds wall-clock search time, and on expiry the best
	// solution found so far is returned with Optimal=false.
	par.Parallelism
	// MaxNodes bounds branch-and-bound nodes; 0 means DefaultMaxNodes.
	// When exceeded the best solution found so far is returned with
	// Optimal=false.
	MaxNodes int
	// LowerBound, when positive, lets the search stop as soon as a
	// solution of this cost is found (e.g. the information-theoretic
	// ceil(log2 n) bound on code length).
	LowerBound int
}

// DefaultMaxNodes bounds exact search effort.
const DefaultMaxNodes = 200_000

// dominanceLimit bounds when the quadratic row/column dominance
// reductions run inside search nodes: only on nodes with at most this many
// active rows (columns). They always run at the root.
const dominanceLimit = 400

// ParallelCutoffCells is the incidence-matrix size (rows × columns) below
// which the exact solver runs sequentially regardless of Options.Workers.
// The parallel engine's fixed cost — the sequential frontier-expansion
// prelude, per-worker scratch construction and goroutine spawn/join — was
// measured against the kernel benchmarks: at the 48×36 (1728-cell) snapshot
// instance the parallel engine ran ~25% slower than sequential even with
// idle CPUs, so instances of that order always take the sequential path and
// `-j` can only engage where the search is large enough to amortize the
// fan-out.
const ParallelCutoffCells = 4096

// parallelCutoffCells is the live gate value; tests lower it to force the
// parallel engine onto small instances.
var parallelCutoffCells = ParallelCutoffCells

// ErrInfeasible is returned when some row is covered by no column.
var ErrInfeasible = errors.New("cover: infeasible (row with no covering column)")

func (p *Problem) cost(c int) int {
	if p.Cost == nil {
		return 1
	}
	return p.Cost[c]
}

func (o Options) maxNodes() int {
	if o.MaxNodes <= 0 {
		return DefaultMaxNodes
	}
	return o.MaxNodes
}

// matrix is the immutable view of a covering problem every search worker
// shares: the problem itself and the row/column incidence bitsets. Nothing
// in a matrix is written after construction, so its methods that take the
// active rows/cols as arguments are safe for concurrent use.
type matrix struct {
	p       *Problem
	rowSets []bitset.Set // rowSets[r]: columns covering r
	colSets []bitset.Set // colSets[c]: rows covered by c
	minCost int          // cheapest column cost: what any uncovered row adds
}

// scratch is the reusable working memory of one branch-and-bound walker:
// an arena for the per-node row/column sets, per-depth branch-order buffers
// and flat buffers for the dominance scans and the lower bound. Exactly one
// walker may use a scratch at a time — the sequential solver owns one, and
// every parallel worker goroutine builds its own — so steady-state search
// nodes allocate nothing.
type scratch struct {
	arena  *bitset.Arena
	depth  int           // current branch recursion depth
	orders [][]scoredCol // orders[depth]: branch-order buffer reused at that depth
	used   bitset.Set    // lowerBound's column-accumulator set

	members []member // the active rows or columns of one dominance pass

	entryPruned int // nodes the entry test cut, for the cover.solve span
}

// member is one active row or column in a dominance pass, with the filters
// its pairs are screened by.
type member struct {
	id    int
	count int    // size of its projection
	fold  uint64 // OR of its projection's words
	alive bool   // not yet removed by this pass
}

// scoredCol is one branch candidate: a column and its active coverage.
type scoredCol struct{ c, score int }

// newScratch sizes a scratch for m: the arena universe spans both the row
// and the column index spaces, so one free list serves every set the walker
// needs.
func newScratch(m *matrix) *scratch {
	n := len(m.rowSets)
	if m.p.NumCols > n {
		n = m.p.NumCols
	}
	return &scratch{arena: bitset.NewArena(n)}
}

// orderBuf returns the (empty) branch-order buffer for the current depth.
func (sc *scratch) orderBuf() []scoredCol {
	for len(sc.orders) <= sc.depth {
		sc.orders = append(sc.orders, nil)
	}
	return sc.orders[sc.depth][:0]
}

// searchCtl is the mutable half of a branch-and-bound search: it owns the
// node budget, the pruning bound and the incumbent. The sequential solver
// and each parallel task provide their own implementation over the shared
// read-only matrix.
type searchCtl interface {
	// enter counts one search node against the budgets; false halts the
	// search at this node.
	enter() bool
	// halted reports whether the search should stop unwinding (budget
	// exhausted, context done, or the LowerBound target reached).
	halted() bool
	// bound is the current strict pruning bound: subtrees that cannot beat
	// it are cut.
	bound() int
	// record offers a complete cover. Implementations must copy sel.
	record(sel []int, cost int)
}

// solver is the sequential searchCtl: a plain depth-first branch and bound
// with a node counter, a context poll every 256 nodes and a single
// incumbent. Not safe for concurrent use; the parallel engine builds one
// taskCtl per subtree instead (see parallel.go).
type solver struct {
	m        *matrix
	ctx      context.Context
	maxNodes int
	lb       int
	nodes    int
	bestCost int
	bestSel  []int
	found    bool
	done     bool // stop flag: budget exhausted or lower bound met
	budget   bool // true when a budget (not LB) stopped the search
	// entryPruned is summed from the walkers' scratches after the search.
	entryPruned int
}

func (s *solver) enter() bool {
	s.nodes++
	return !s.expired()
}

func (s *solver) halted() bool { return s.expired() }

func (s *solver) bound() int { return s.bestCost }

func (s *solver) record(sel []int, cost int) {
	if cost < s.bestCost || !s.found {
		s.bestCost = cost
		// Copy into the incumbent's own buffer: sel is walker scratch, and
		// reusing the buffer keeps steady-state records allocation-free.
		s.bestSel = append(s.bestSel[:0], sel...)
		s.found = true
		if s.lb > 0 && cost <= s.lb {
			s.done = true
		}
	}
}

func (s *solver) expired() bool {
	if s.done {
		return true
	}
	if s.nodes > s.maxNodes {
		s.done, s.budget = true, true
		return true
	}
	// Poll the context at the first node (so a pre-canceled context stops
	// the search before it starts) and every 256 nodes thereafter.
	if s.nodes%256 == 1 && s.ctx.Err() != nil {
		s.done, s.budget = true, true
		return true
	}
	return false
}

// SolveExactCtx solves the problem with branch and bound under the
// caller's context. ErrInfeasible is returned when no cover exists. The
// solver is anytime: when a budget is exhausted, or ctx expires or is
// canceled mid-search, the best feasible solution found so far is
// returned with Optimal=false and a nil error, matching the TimeLimit
// semantics.
//
// When the context carries a trace recorder (internal/trace), the solve
// records one "cover.solve" span with row/column counts, branch-and-bound
// nodes, the nodes the entry test pruned (entry_pruned) and the outcome;
// with no recorder the instrumentation is a zero-allocation no-op.
func (p *Problem) SolveExactCtx(ctx context.Context, opts Options) (Solution, error) {
	ctx, cancel := opts.Context(ctx)
	defer cancel()
	sp := trace.StartSpan(ctx, "cover.solve")
	var (
		sol Solution
		st  searchStats
	)
	sv, err := NewSolver(p, opts)
	if err == nil {
		sol, st, err = sv.solve(ctx)
	}
	endSpan(sp, p, sol, st, err)
	return sol, err
}

// newMatrix builds the incidence bitsets and is the one validator of every
// entry point: Cost, when set, must hold one non-negative cost per column,
// column indices must be in range, and a row that no column covers is
// ErrInfeasible. The sets are carved out of two slabs — one per index
// space — so a matrix costs a handful of block allocations rather than one
// per row and column.
func newMatrix(p *Problem) (*matrix, error) {
	nRows := len(p.RowCols)
	m := &matrix{p: p, minCost: 1}
	if p.Cost != nil {
		if len(p.Cost) != p.NumCols {
			return nil, fmt.Errorf("cover: %d costs for %d columns", len(p.Cost), p.NumCols)
		}
		for c, w := range p.Cost {
			if w < 0 {
				return nil, fmt.Errorf("cover: column %d has negative cost %d", c, w)
			}
			if c == 0 || w < m.minCost {
				m.minCost = w
			}
		}
	}
	m.rowSets = make([]bitset.Set, nRows)
	m.colSets = make([]bitset.Set, p.NumCols)
	rowSlab := bitset.NewSlab(p.NumCols) // rowSets live in column space
	colSlab := bitset.NewSlab(nRows)     // colSets live in row space
	for c := 0; c < p.NumCols; c++ {
		m.colSets[c] = colSlab.Get()
	}
	for r, cols := range p.RowCols {
		m.rowSets[r] = rowSlab.Get()
		for _, c := range cols {
			if c < 0 || c >= p.NumCols {
				return nil, fmt.Errorf("cover: row %d references column %d out of range", r, c)
			}
			m.rowSets[r].Add(c)
			m.colSets[c].Add(r)
		}
		if len(cols) == 0 {
			return nil, ErrInfeasible
		}
	}
	return m, nil
}

func costOf(p *Problem, sel []int) int {
	total := 0
	for _, c := range sel {
		total += p.cost(c)
	}
	return total
}

// dedupeColumns removes duplicate and empty columns by hashing their row
// coverage, keeping the cheapest representative.
func (m *matrix) dedupeColumns(rows, cols bitset.Set) {
	type rep struct {
		col  int
		set  bitset.Set
		cost int
	}
	byHash := map[uint64][]rep{}
	cols.ForEach(func(c int) bool {
		cs := m.colSets[c]
		if bitset.IntersectLenUpTo(cs, rows, 1) == 0 {
			cols.Remove(c)
			return true
		}
		h := cs.Hash()
		for _, r := range byHash[h] {
			if r.set.Equal(cs) {
				if m.p.cost(c) >= r.cost {
					cols.Remove(c)
				} else {
					cols.Remove(r.col)
				}
				return true
			}
		}
		byHash[h] = append(byHash[h], rep{c, cs, m.p.cost(c)})
		return true
	})
}

// Outcomes of the per-node reduction loop.
const (
	coverPrune  = iota // subtree cannot beat the bound, or is infeasible
	coverLeaf          // rows exhausted: selected is a complete cover
	coverBranch        // reductions converged; branch on a row
)

// reduce runs the branch-and-bound reduction loop on one node, mutating
// rows, cols and selected in place: the entry test, essential-column
// selection, the row/column dominance reductions (always at the root,
// bounded by dominanceLimit below it) and the independent-set lower bound. It
// returns the updated selection and cost plus the verdict: prune the node,
// record selected as a complete cover, or branch further.
//
// The entry test prunes a node with uncovered rows once cost+minCost
// reaches the bound, before any reduction runs. It changes no verdict: from
// there an essential column lifts cost to the bound, an uncoverable row
// prunes, dominance never empties rows, the lower bound is at least
// minCost, and reduce never records a cover — so the loop below would
// prune this node anyway. Written as a difference, the test cannot
// overflow against Reduce's unbounded math.MaxInt.
//
// A dominance pass leaves no dominated pair behind, and removing members
// of its own index space creates none, so a pass is skipped until the
// other space has lost members since it last ran: rowPass and colPass
// track that. A skipped pass would have removed nothing.
func (m *matrix) reduce(ctl searchCtl, sc *scratch, rows, cols bitset.Set, selected []int, cost int, root bool) ([]int, int, int) {
	rowPass, colPass := true, true
	for {
		if cost >= ctl.bound() {
			return selected, cost, coverPrune
		}
		if rows.IsEmpty() {
			return selected, cost, coverLeaf
		}
		if m.minCost >= ctl.bound()-cost {
			sc.entryPruned++
			return selected, cost, coverPrune
		}

		// Essential columns and infeasibility in one closure-free scan.
		essential := -1
		infeasible := false
	scan:
		for wi, wc := 0, rows.WordCount(); wi < wc; wi++ {
			for w := rows.Word(wi); w != 0; w &= w - 1 {
				r := wi*64 + bits.TrailingZeros64(w)
				switch bitset.IntersectLenUpTo(m.rowSets[r], cols, 2) {
				case 0:
					infeasible = true
					break scan
				case 1:
					essential, _ = bitset.FirstOfIntersection(m.rowSets[r], cols)
					break scan
				}
			}
		}
		if infeasible {
			return selected, cost, coverPrune
		}
		if essential >= 0 {
			selected = append(selected, essential)
			cost += m.p.cost(essential)
			rows.DifferenceWith(m.colSets[essential])
			cols.Remove(essential)
			rowPass, colPass = true, true
			continue
		}

		// Quadratic dominance reductions only at the root or on small
		// cores.
		nr, nc := rows.Len(), cols.Len()
		changed := false
		if rowPass && (root || nr <= dominanceLimit) {
			rowPass = false
			if m.reduceRowDominance(sc, rows, cols) {
				changed, colPass = true, true
			}
		}
		if colPass && (root || nc <= dominanceLimit) {
			colPass = false
			if m.reduceColDominance(sc, rows, cols) {
				changed, rowPass = true, true
			}
		}
		root = false
		if !changed {
			break
		}
	}

	if cost+m.lowerBound(sc, rows, cols) >= ctl.bound() {
		return selected, cost, coverPrune
	}
	return selected, cost, coverBranch
}

// branchOrder returns the columns to branch on: the candidates of the
// hardest (fewest-candidate) active row, widest coverage first, index
// breaking ties. Deterministic for a given (rows, cols) state. The result
// lives in sc's buffer for the current depth and is valid until the next
// branchOrder call at the same depth.
func (m *matrix) branchOrder(sc *scratch, rows, cols bitset.Set) []scoredCol {
	bestRow, bestLen := -1, 1<<30
	for wi, wc := 0, rows.WordCount(); wi < wc; wi++ {
		for w := rows.Word(wi); w != 0; w &= w - 1 {
			r := wi*64 + bits.TrailingZeros64(w)
			if l := bitset.IntersectLenUpTo(m.rowSets[r], cols, bestLen); l < bestLen {
				bestLen, bestRow = l, r
			}
		}
	}
	order := sc.orderBuf()
	rs := m.rowSets[bestRow]
	for wi, wc := 0, rs.WordCount(); wi < wc; wi++ {
		for w := rs.Word(wi); w != 0; w &= w - 1 {
			c := wi*64 + bits.TrailingZeros64(w)
			if cols.Has(c) {
				order = append(order, scoredCol{c, bitset.IntersectLen(m.colSets[c], rows)})
			}
		}
	}
	slices.SortFunc(order, func(a, b scoredCol) int {
		if a.score != b.score {
			return b.score - a.score
		}
		return a.c - b.c
	})
	sc.orders[sc.depth] = order
	return order
}

// branch explores one node. rows and cols are owned by the callee: reduce
// mutates them in place, and the caller either discards them afterwards or
// rebuilds them by overwrite (the child-loop below). The same recursion
// serves the sequential solver and every parallel task — only the searchCtl
// differs; the scratch must be private to the running walker.
func (m *matrix) branch(ctl searchCtl, sc *scratch, rows, cols bitset.Set, selected []int, cost int, root bool) {
	if !ctl.enter() {
		return
	}
	selected, cost, verdict := m.reduce(ctl, sc, rows, cols, selected, cost, root)
	switch verdict {
	case coverPrune:
		return
	case coverLeaf:
		ctl.record(selected, cost)
		return
	}

	// Branch on the columns of the hardest row; remCols excludes columns
	// whose solutions have been fully explored by earlier siblings. The
	// child row/col sets are arena scratch, fully overwritten per sibling,
	// so a whole subtree costs zero steady-state allocations.
	order := m.branchOrder(sc, rows, cols)
	remCols := sc.arena.Get()
	remCols.CopyFrom(cols)
	newRows := sc.arena.Get()
	newCols := sc.arena.Get()
	sc.depth++
	for i := range order {
		if ctl.halted() {
			break
		}
		c := order[i].c
		newRows.DifferenceInto(rows, m.colSets[c])
		newCols.CopyFrom(remCols)
		newCols.Remove(c)
		m.branch(ctl, sc, newRows, newCols, append(selected, c), cost+m.p.cost(c), false)
		remCols.Remove(c)
	}
	sc.depth--
	sc.arena.Put(newCols)
	sc.arena.Put(newRows)
	sc.arena.Put(remCols)
}

// projection returns |s ∩ within| and the OR of its words. When
// a ∩ within ⊆ b, a's count is at most b's and a's fold has no bit b's
// lacks, so a pair failing either filter cannot pass the subset test.
func projection(s, within bitset.Set) (count int, fold uint64) {
	for wi, wc := 0, min(s.WordCount(), within.WordCount()); wi < wc; wi++ {
		w := s.Word(wi) & within.Word(wi)
		count += bits.OnesCount64(w)
		fold |= w
	}
	return count, fold
}

// project starts a dominance pass: one alive member per element id of
// active, filtered by the projection of sets[id] onto within. The result
// lives in sc and is valid until the next pass.
func (sc *scratch) project(active bitset.Set, sets []bitset.Set, within bitset.Set) []member {
	ms := sc.members[:0]
	for wi, wc := 0, active.WordCount(); wi < wc; wi++ {
		for w := active.Word(wi); w != 0; w &= w - 1 {
			id := wi*64 + bits.TrailingZeros64(w)
			count, fold := projection(sets[id], within)
			ms = append(ms, member{id: id, count: count, fold: fold, alive: true})
		}
	}
	sc.members = ms
	return ms
}

// reduceRowDominance removes rows whose candidate column set is a superset
// of another row's (the superset row is easier to cover and thus implied).
func (m *matrix) reduceRowDominance(sc *scratch, rows, cols bitset.Set) bool {
	ms := sc.project(rows, m.rowSets, cols)
	removed := false
	for i := range ms {
		mi := &ms[i]
		if !mi.alive {
			continue
		}
		for j := range ms {
			// The filters first: a pair they reject cannot pass the subset
			// test.
			mj := &ms[j]
			if mj.count < mi.count || mi.fold&^mj.fold != 0 || !mj.alive || i == j {
				continue
			}
			// Row j dominated by row i: cand(i) ⊆ cand(j).
			if bitset.IntersectionSubsetOf(m.rowSets[mi.id], m.rowSets[mj.id], cols) {
				if j < i && mj.count == mi.count {
					continue // identical rows: keep the earlier
				}
				rows.Remove(mj.id)
				mj.alive = false
				removed = true
			}
		}
	}
	return removed
}

// reduceColDominance removes columns whose active coverage is contained in
// a no-costlier column's.
func (m *matrix) reduceColDominance(sc *scratch, rows, cols bitset.Set) bool {
	ms := sc.project(cols, m.colSets, rows)
	removed := false
	for i := range ms {
		mi := &ms[i]
		ci := mi.id
		for j := range ms {
			mj := &ms[j]
			if mj.count < mi.count || mi.fold&^mj.fold != 0 || !mj.alive || i == j {
				continue
			}
			// ci dominated by cj.
			cj := mj.id
			if m.p.cost(cj) <= m.p.cost(ci) &&
				bitset.IntersectionSubsetOf(m.colSets[ci], m.colSets[cj], rows) {
				if j > i && m.p.cost(cj) == m.p.cost(ci) && mj.count == mi.count {
					continue // identical columns: keep the earlier
				}
				cols.Remove(ci)
				mi.alive = false
				removed = true
				break
			}
		}
	}
	return removed
}

// lowerBound: greedily pick pairwise column-disjoint rows; each needs a
// distinct column of at least its cheapest candidate's cost.
func (m *matrix) lowerBound(sc *scratch, rows, cols bitset.Set) int {
	if sc.used.WordCount() == 0 {
		sc.used = sc.arena.Get()
	}
	used := sc.used
	used.Clear()
	lb := 0
	unitCost := m.p.Cost == nil
	for wi, wc := 0, rows.WordCount(); wi < wc; wi++ {
		for w := rows.Word(wi); w != 0; w &= w - 1 {
			r := wi*64 + bits.TrailingZeros64(w)
			if bitset.IntersectionIntersects(m.rowSets[r], cols, used) {
				continue
			}
			used.UnionWithIntersection(m.rowSets[r], cols)
			if unitCost {
				lb++
				continue
			}
			minCost := 1 << 30
			bitset.IntersectForEach(m.rowSets[r], cols, func(c int) bool {
				if m.p.cost(c) < minCost {
					minCost = m.p.cost(c)
				}
				return true
			})
			lb += minCost
		}
	}
	return lb
}

// ubScratch is the reusable working memory of the greedy upper-bound
// harness plus its incumbent. One instance lives in each Solver, so repeated
// solves rebuild the pruning bound without allocating.
type ubScratch struct {
	remaining bitset.Set // uncovered-rows working set
	gsel      []int      // current greedy cover under construction
	weights   []float64  // weightedGreedy row weights
	counts    []int      // weightedGreedy per-row coverage counts
	order     []int      // dropRedundant's sorted scan order
	kept      []bool     // dropRedundant's keep flags, indexed by column
	dropBuf   []int      // dropRedundant's output buffer
	sel       []int      // incumbent cover (owned copy)
	cost      int
	found     bool
}

// consider offers one greedy cover to the incumbent: redundancy-eliminate,
// then keep it on strict improvement. g may alias any ub buffer except
// ub.sel; the incumbent is copied out.
func (m *matrix) consider(ub *ubScratch, rows bitset.Set, g []int) {
	g = m.dropRedundant(ub, rows, g)
	if c := costOf(m.p, g); !ub.found || c < ub.cost {
		ub.cost = c
		ub.sel = append(ub.sel[:0], g...)
		ub.found = true
	}
}

// greedyVariant builds a greedy cover — repeatedly pick the column
// covering the most uncovered rows per unit cost — with deterministic
// tie-breaking diversity: variant 0 is plain greedy, and variant v > 0
// picks the (v mod 3)-th best column on every (step+v)-th step, giving the
// restart loop distinct feasible covers. The returned selection
// lives in ub.gsel and is valid until the next greedy pass; ok=false means
// some row is uncoverable.
func (m *matrix) greedyVariant(ub *ubScratch, rows, cols bitset.Set, variant int) (selection []int, ok bool) {
	ub.remaining.CopyFrom(rows)
	remaining := ub.remaining
	sel := ub.gsel[:0]
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
			ub.gsel = sel
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
	ub.gsel = sel
	return sel, true
}

// weightedGreedy runs a multiplicative-weights set-cover loop: rows that
// keep ending up covered by a single selected column get their weight
// bumped, steering subsequent greedy passes toward columns that cover the
// chronically hard rows together. Each cover built is offered to the
// incumbent through consider, in construction order, so the loop runs out
// of ub's reusable buffers without materializing a cover list.
func (m *matrix) weightedGreedy(ub *ubScratch, rows, cols bitset.Set, iters int) {
	nRows := len(m.rowSets)
	if cap(ub.weights) < nRows {
		ub.weights = make([]float64, nRows)
		ub.counts = make([]int, nRows)
	}
	weights := ub.weights[:nRows]
	counts := ub.counts[:nRows]
	for r := range weights {
		weights[r] = 1
	}
	for it := 0; it < iters; it++ {
		remaining := ub.remaining
		remaining.CopyFrom(rows)
		sel := ub.gsel[:0]
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
				ub.gsel = sel
				return
			}
			sel = append(sel, bestC)
			remaining.DifferenceWith(m.colSets[bestC])
		}
		ub.gsel = sel
		m.consider(ub, rows, sel)
		// Bump rows covered exactly once by this cover.
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

// weightedCoverage sums the weights of the rows in colSet ∩ remaining
// without materializing the intersection.
func weightedCoverage(colSet, remaining bitset.Set, weights []float64) float64 {
	n := colSet.WordCount()
	if rw := remaining.WordCount(); rw < n {
		n = rw
	}
	w := 0.0
	for wi := 0; wi < n; wi++ {
		for x := colSet.Word(wi) & remaining.Word(wi); x != 0; x &= x - 1 {
			w += weights[wi*64+bits.TrailingZeros64(x)]
		}
	}
	return w
}

// dropRedundant removes selected columns whose rows are covered by the
// remaining selection, most expensive and least-covering first. The result
// lives in ub.dropBuf and is valid until the next call; sel itself is not
// modified.
func (m *matrix) dropRedundant(ub *ubScratch, rows bitset.Set, sel []int) []int {
	ub.order = append(ub.order[:0], sel...)
	order := ub.order
	slices.SortFunc(order, func(ci, cj int) int {
		if m.p.cost(ci) != m.p.cost(cj) {
			return m.p.cost(cj) - m.p.cost(ci)
		}
		return bitset.IntersectLen(m.colSets[ci], rows) - bitset.IntersectLen(m.colSets[cj], rows)
	})
	if len(ub.kept) < m.p.NumCols {
		ub.kept = make([]bool, m.p.NumCols)
	}
	kept := ub.kept
	clear(kept)
	for _, c := range sel {
		kept[c] = true
	}
	for _, c := range order {
		// Is every row of c covered by another kept column?
		kept[c] = false
		redundant := true
		bitset.IntersectForEach(m.colSets[c], rows, func(r int) bool {
			covered := false
			m.rowSets[r].ForEach(func(c2 int) bool {
				if kept[c2] {
					covered = true
					return false
				}
				return true
			})
			if !covered {
				redundant = false
				return false
			}
			return true
		})
		if !redundant {
			kept[c] = true
		}
	}
	out := ub.dropBuf[:0]
	for _, c := range sel {
		if kept[c] {
			out = append(out, c)
		}
	}
	ub.dropBuf = out
	return out
}

// Reduction is the cyclic core of a covering problem: what the exact
// solver's root reductions leave for its search.
type Reduction struct {
	// Essential lists the columns the reductions selected, ascending.
	Essential []int
	// Core is the problem over the rows Essential leaves uncovered and the
	// surviving columns that cover one of them. Its Cost is nil exactly
	// when the original's is.
	Core *Problem
	// Cols maps the core back: core column i is original column Cols[i].
	Cols []int
}

// Reduce runs the exact solver's root reductions once — the
// duplicate/empty-column dedupe, then essential columns and row and column
// dominance to a fixpoint — and returns
// what is left. The reductions keep some minimum cover, so cost(Essential)
// plus Core's optimum is p's optimum, and Lift turns a minimum cover of
// Core into one of p; an empty Core means the reductions solved p
// outright. Errors match SolveExactCtx: ErrInfeasible when a row has no
// covering column, an error for an out-of-range column or a bad Cost.
func (p *Problem) Reduce() (Reduction, error) {
	// A Solver's construction is the search's root state: the validated
	// matrix and the deduped root sets, which this throwaway one lets
	// reduce mutate.
	sv, err := NewSolver(p, Options{})
	if err != nil {
		return Reduction{}, err
	}
	m, rows, cols := sv.m, sv.rootRows, sv.rootCols
	// reduce reads its searchCtl only for the pruning bound, so an
	// unbounded one makes it a pure reduction that never prunes.
	ess, _, verdict := m.reduce(&solver{bestCost: math.MaxInt}, sv.sc, rows, cols, nil, 0, true)
	if verdict == coverPrune {
		return Reduction{}, ErrInfeasible
	}
	slices.Sort(ess)
	red := Reduction{Essential: ess, Core: &Problem{}}
	index := make([]int, p.NumCols)
	cols.ForEach(func(c int) bool {
		if bitset.IntersectLenUpTo(m.colSets[c], rows, 1) > 0 {
			index[c] = len(red.Cols)
			red.Cols = append(red.Cols, c)
		}
		return true
	})
	core := red.Core
	core.NumCols = len(red.Cols)
	if p.Cost != nil {
		core.Cost = make([]int, core.NumCols)
		for i, c := range red.Cols {
			core.Cost[i] = p.Cost[c]
		}
	}
	rows.ForEach(func(r int) bool {
		var row []int
		bitset.IntersectForEach(m.rowSets[r], cols, func(c int) bool {
			row = append(row, index[c])
			return true
		})
		core.RowCols = append(core.RowCols, row)
		return true
	})
	return red, nil
}

// Lift maps a cover of the core back to the original problem: the
// essential columns plus each core column's original index, ascending.
func (red Reduction) Lift(coreCols []int) []int {
	out := append([]int(nil), red.Essential...)
	for _, c := range coreCols {
		out = append(out, red.Cols[c])
	}
	slices.Sort(out)
	return out
}

// SolveGreedy returns a feasible (not necessarily optimal) cover without
// any branch and bound: plain greedy over every column. It validates p as
// SolveExactCtx does.
func (p *Problem) SolveGreedy() (Solution, error) {
	m, err := newMatrix(p)
	if err != nil {
		return Solution{}, err
	}
	// newMatrix rejected every row no column covers, so greedy completes.
	sel, _ := m.greedyVariant(&ubScratch{}, fullSet(len(p.RowCols)), fullSet(p.NumCols), 0)
	sort.Ints(sel)
	return Solution{Cols: sel, Cost: costOf(p, sel)}, nil
}

// fullSet returns {0, …, n-1}.
func fullSet(n int) bitset.Set {
	s := bitset.New(n)
	for e := 0; e < n; e++ {
		s.Add(e)
	}
	return s
}
