// Package cover provides the unate covering solvers the encoding framework
// reduces to: an exact branch-and-bound solver with the classical
// reductions (essential columns, row and column dominance,
// maximal-independent-set lower bound) and a greedy heuristic.
// Problem.Reduce runs the root reductions on their own, so internal/sat's
// unate backend solves the same cyclic core. Binate covering — the
// Section-4 abstraction and the Section-8 extension constraints — is
// solved by internal/sat.
//
// # Search work
//
// Three mechanisms cut the work per node without changing the tree: the
// search visits the same nodes in the same order and returns the same
// cover. The dominance passes test a row only against the active rows of
// its first active column, and a column only against the active columns of
// its rarest active row, since every dominating partner lies there. On a
// unit-cost problem, a node that can afford only one more column and has
// no column covering every active row is a terminal node: none of its
// children can be a leaf, and the entry test prunes each of them, so they
// are entered and counted without being built. The greedy upper bound
// stops once its incumbent meets a positive Options.LowerBound, and each
// of its covers re-scores a column only while its last score could still
// reach the rank the step picks.
//
// # Cancellation
//
// The exact solver is an anytime algorithm: Problem.SolveExactCtx and
// Solver.SolveCtx poll the context after each greedy cover of the upper
// bound, inside the root dominance passes and between search nodes, and
// when it expires or is canceled they return the best feasible solution
// found so far with Optimal=false (unless it meets Options.LowerBound) —
// exactly the behavior the TimeLimit option has always had, which is now
// implemented as a context deadline layered under the caller's context.
// The first greedy cover always completes, so there is always an
// incumbent.
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
// and flat buffers for the column dominance pass and the lower bound.
// Exactly one walker may use a scratch at a time — the sequential solver
// owns one, and every parallel worker goroutine builds its own — so
// steady-state search nodes allocate nothing.
type scratch struct {
	arena  *bitset.Arena
	depth  int           // current branch recursion depth
	orders [][]scoredCol // orders[depth]: branch-order buffer reused at that depth
	used   bitset.Set    // lowerBound's column-accumulator set
	colsOf []int         // colsOf[r]: row r's active columns when a column pass began

	// Work counters for the cover.solve span.
	entryPruned int // nodes the entry test cut
	terminal    int // children countTerminal entered without building them
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
	return &scratch{arena: bitset.NewArena(n), colsOf: make([]int, len(m.rowSets))}
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
	// entryPruned and terminal are summed from the walkers' scratches
	// after the search.
	entryPruned, terminal int
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
// nodes, the nodes the entry test pruned (entry_pruned), the terminal
// children entered without being built (terminal), the greedy covers the
// upper bound built (greedy) and the outcome; with no recorder the
// instrumentation is a zero-allocation no-op.
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
//
// The root's first passes are the only ones dominanceLimit does not bound,
// so they poll ctl.halted as they go; a halted root is pruned, leaving the
// caller its incumbent.
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
		var halt searchCtl
		if root {
			halt = ctl
		}
		if rowPass && (root || nr <= dominanceLimit) {
			rowPass = false
			if m.reduceRowDominance(rows, cols, halt) {
				changed, colPass = true, true
			}
		}
		if colPass && (root || nc <= dominanceLimit) {
			colPass = false
			if m.reduceColDominance(sc, rows, cols, halt) {
				changed, rowPass = true, true
			}
		}
		if root && ctl.halted() {
			return selected, cost, coverPrune
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

// hardestRow returns the row a node branches on, the first active row with
// the fewest active candidates, and that count.
func (m *matrix) hardestRow(rows, cols bitset.Set) (row, n int) {
	row, n = -1, 1<<30
	for wi, wc := 0, rows.WordCount(); wi < wc; wi++ {
		for w := rows.Word(wi); w != 0; w &= w - 1 {
			r := wi*64 + bits.TrailingZeros64(w)
			if l := bitset.IntersectLenUpTo(m.rowSets[r], cols, n); l < n {
				n, row = l, r
			}
		}
	}
	return row, n
}

// branchOrder returns the columns to branch on: the active candidates of
// row (the hardest row), widest coverage first, index breaking ties.
// Deterministic for a given (rows, cols) state. The result lives in sc's
// buffer for the current depth and is valid until the next branchOrder
// call at the same depth.
func (m *matrix) branchOrder(sc *scratch, row int, rows, cols bitset.Set) []scoredCol {
	order := sc.orderBuf()
	rs := m.rowSets[row]
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

	row, n := m.hardestRow(rows, cols)
	if m.p.Cost == nil && cost+2 >= ctl.bound() && !m.someCoversAll(row, rows, cols) {
		sc.countTerminal(ctl, cost, n)
		return
	}

	// Branch on the columns of the hardest row; remCols excludes columns
	// whose solutions have been fully explored by earlier siblings. The
	// child row/col sets are arena scratch, fully overwritten per sibling,
	// so a whole subtree costs zero steady-state allocations.
	order := m.branchOrder(sc, row, rows, cols)
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

// someCoversAll reports whether an active candidate of row covers every
// active row. Any column that does is a candidate of every row, so
// row's candidates are the only ones to test.
func (m *matrix) someCoversAll(row int, rows, cols bitset.Set) bool {
	rs := m.rowSets[row]
	for wi, n := 0, min(rs.WordCount(), cols.WordCount()); wi < n; wi++ {
		for w := rs.Word(wi) & cols.Word(wi); w != 0; w &= w - 1 {
			if rows.SubsetOf(m.colSets[wi*64+bits.TrailingZeros64(w)]) {
				return true
			}
		}
	}
	return false
}

// countTerminal enters the n children of a terminal node without building
// them. The node has a unit-cost problem, cost+2 >= bound and no active
// column covering every active row, so each child costs cost+1, still has
// uncovered rows, and reduce's entry test would prune it — or its first
// test would, if a parallel bound refresh has since lowered the bound to
// cost+1. The children are interchangeable, so their order does not
// matter, and enter and halted are called exactly as branch would call
// them.
func (sc *scratch) countTerminal(ctl searchCtl, cost, n int) {
	for i := 0; i < n && !ctl.halted(); i++ {
		if !ctl.enter() {
			return
		}
		sc.terminal++
		if cost+1 < ctl.bound() {
			sc.entryPruned++
		}
	}
}

// pollStride is how many rows or columns a root dominance pass visits
// between polls of its halt control.
const pollStride = 64

// reduceRowDominance removes every row whose active candidates include
// another row's (the superset row is easier to cover and thus implied),
// keeping the earliest of identical rows. A row that row i dominates
// covers i's first active column, so only that column's active rows are
// tested against i. The pass visits the rows still active in ascending
// order; an earlier row identical to i would have removed i on its own
// visit, so a row the pass reaches is the earliest of its identical group
// and may remove every superset row it finds. With halt set, it polls
// halt.halted every pollStride rows and returns early when it reports
// true. Every active row must have an active candidate.
func (m *matrix) reduceRowDominance(rows, cols bitset.Set, halt searchCtl) bool {
	removed := false
	visited := 0
	for wi, wc := 0, rows.WordCount(); wi < wc; wi++ {
		for w := rows.Word(wi); w != 0; {
			b := bits.TrailingZeros64(w)
			i := wi*64 + b
			if halt != nil && visited%pollStride == 0 && halt.halted() {
				return removed
			}
			visited++
			first, _ := bitset.FirstOfIntersection(m.rowSets[i], cols)
			cs := m.colSets[first]
			for wj, n := 0, min(cs.WordCount(), rows.WordCount()); wj < n; wj++ {
				for x := cs.Word(wj) & rows.Word(wj); x != 0; x &= x - 1 {
					j := wj*64 + bits.TrailingZeros64(x)
					if j != i && bitset.IntersectionSubsetOf(m.rowSets[i], m.rowSets[j], cols) {
						rows.Remove(j)
						removed = true
					}
				}
			}
			// Re-read the word past i: this visit may have removed later rows.
			w = rows.Word(wi) & (^uint64(0) << b << 1)
		}
	}
	return removed
}

// reduceColDominance removes every column whose active coverage is
// contained in a no-costlier column's, keeping the earliest of identical
// columns. A column that dominates ci covers ci's rarest active row, so
// only that row's active columns are tested; a column covering no active
// row is tested against every active column. The row counts that pick the
// rarest row are taken once, when the pass begins: any row of ci is a
// correct choice, so counts gone stale as columns fall only cost tests.
// Each visit removes at most ci itself, and only for a live dominator, so
// the pass leaves the undominated columns whatever order it visits them
// in. halt works as in reduceRowDominance.
func (m *matrix) reduceColDominance(sc *scratch, rows, cols bitset.Set, halt searchCtl) bool {
	for wi, wc := 0, rows.WordCount(); wi < wc; wi++ {
		for w := rows.Word(wi); w != 0; w &= w - 1 {
			r := wi*64 + bits.TrailingZeros64(w)
			sc.colsOf[r] = bitset.IntersectLen(m.rowSets[r], cols)
		}
	}
	removed := false
	visited := 0
	for wi, wc := 0, cols.WordCount(); wi < wc; wi++ {
		for w := cols.Word(wi); w != 0; w &= w - 1 {
			ci := wi*64 + bits.TrailingZeros64(w)
			if halt != nil && visited%pollStride == 0 && halt.halted() {
				return removed
			}
			visited++
			partners := cols
			rare := math.MaxInt
			cs := m.colSets[ci]
			for wr, n := 0, min(cs.WordCount(), rows.WordCount()); wr < n; wr++ {
				for x := cs.Word(wr) & rows.Word(wr); x != 0; x &= x - 1 {
					r := wr*64 + bits.TrailingZeros64(x)
					if sc.colsOf[r] < rare {
						rare, partners = sc.colsOf[r], m.rowSets[r]
					}
				}
			}
			if m.dominated(ci, partners, rows, cols) {
				cols.Remove(ci)
				removed = true
			}
		}
	}
	return removed
}

// dominated reports whether an active column among partners other than ci
// dominates ci: it costs no more and covers every active row ci covers,
// and it is not an identical later column (cost and coverage equal), which
// ci is kept over.
func (m *matrix) dominated(ci int, partners, rows, cols bitset.Set) bool {
	cost := m.p.cost(ci)
	for wj, n := 0, min(partners.WordCount(), cols.WordCount()); wj < n; wj++ {
		for x := partners.Word(wj) & cols.Word(wj); x != 0; x &= x - 1 {
			cj := wj*64 + bits.TrailingZeros64(x)
			if cj == ci || m.p.cost(cj) > cost || !bitset.IntersectionSubsetOf(m.colSets[ci], m.colSets[cj], rows) {
				continue
			}
			if cj > ci && m.p.cost(cj) == cost && bitset.IntersectionSubsetOf(m.colSets[cj], m.colSets[ci], rows) {
				continue // identical columns: keep the earlier
			}
			return true
		}
	}
	return false
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
	stale     []float64  // greedyCover's last score per column this cover
	order     []int      // dropRedundant's sorted scan order
	kept      []bool     // dropRedundant's keep flags, indexed by column
	dropBuf   []int      // dropRedundant's output buffer
	sel       []int      // incumbent cover (owned copy)
	cost      int
	found     bool
	covers    int // greedy covers built, for the cover.solve span
}

// upperBound builds the incumbent the search starts from: the three
// distinct plain greedy covers, then 24 multiplicative-weights rounds. It
// stops after any cover once the incumbent meets a positive lb, where the
// search would not run, or once ctx is done; the first cover always
// completes. ErrInfeasible means plain greedy met a row no column covers.
//
// greedyCover's variants repeat with period 3 (see there), so variants 0–2
// are every plain cover it builds: further variants would rebuild one of
// them, which consider never takes, since it keeps strict improvements only.
func (m *matrix) upperBound(ctx context.Context, ub *ubScratch, rows, cols bitset.Set, lb int) error {
	ub.cost, ub.found, ub.covers = -1, false, 0
	for variant := 0; variant < 3; variant++ {
		g, ok := m.greedyCover(ub, rows, cols, nil, variant)
		if !ok {
			// Every variant completes once plain greedy (variant 0) does.
			return ErrInfeasible
		}
		if m.consider(ub, rows, g, lb) || ctx.Err() != nil {
			return nil
		}
	}
	m.weightedGreedy(ctx, ub, rows, cols, 24, lb)
	return nil
}

// consider offers one greedy cover to the incumbent: redundancy-eliminate,
// then keep it on strict improvement. g may alias any ub buffer except
// ub.sel; the incumbent is copied out. It reports whether the incumbent
// now meets a positive lb, so no further cover can be worth building.
func (m *matrix) consider(ub *ubScratch, rows bitset.Set, g []int, lb int) bool {
	ub.covers++
	g = m.dropRedundant(ub, rows, g)
	if c := costOf(m.p, g); !ub.found || c < ub.cost {
		ub.cost = c
		ub.sel = append(ub.sel[:0], g...)
		ub.found = true
	}
	return lb > 0 && ub.cost <= lb
}

// greedyCover builds a greedy cover: repeatedly pick the column covering
// the most uncovered rows per unit cost, counting each row once, or by its
// weight when weights is non-nil. Columns rank by score, ties by index.
// Variant 0 picks the best column at every step; variant v > 0 picks the
// (v mod 3)-th best at the steps where (step+v) mod 3 is 0, or the
// last-ranked when fewer columns cover an uncovered row, giving the upper
// bound distinct feasible covers. Both the rank and the steps depend on
// v mod 3 only, so variants v and v+3 build the same cover. The returned
// selection lives in ub.gsel and is valid until the next greedy pass;
// ok=false means some row is uncoverable.
//
// A step re-scores a column only when its last score in this cover beats
// the running score at the rank the step picks. The uncovered rows only
// shrink within a cover, weights are fixed and positive, and
// weightedCoverage sums a column's rows in one fixed order, so a column's
// floating-point score never rises: a column skipped this way ranks below
// the pick, and every pick, ties included, is an eager scan's.
func (m *matrix) greedyCover(ub *ubScratch, rows, cols bitset.Set, weights []float64, variant int) (selection []int, ok bool) {
	if cap(ub.stale) < m.p.NumCols {
		ub.stale = make([]float64, m.p.NumCols)
	}
	stale := ub.stale[:m.p.NumCols]
	for c := range stale {
		stale[c] = math.Inf(1)
	}
	ub.remaining.CopyFrom(rows)
	remaining := ub.remaining
	sel := ub.gsel[:0]
	for step := 0; !remaining.IsEmpty(); step++ {
		rank := 0
		if variant > 0 && (step+variant)%3 == 0 {
			rank = variant % 3
		}
		// top[:rank+1] are the best columns scored so far, best first;
		// bar is top[rank]'s score.
		type cand struct {
			c     int
			score float64
		}
		top := [3]cand{{-1, -1}, {-1, -1}, {-1, -1}}
		bar := -1.0
		for wi, wc := 0, cols.WordCount(); wi < wc; wi++ {
			for cw := cols.Word(wi); cw != 0; cw &= cw - 1 {
				c := wi*64 + bits.TrailingZeros64(cw)
				if stale[c] <= bar {
					continue
				}
				var w float64
				if weights == nil {
					w = float64(bitset.IntersectLen(m.colSets[c], remaining))
				} else {
					w = weightedCoverage(m.colSets[c], remaining, weights)
				}
				sc := -1.0 // c covers no uncovered row: never again this cover
				if w != 0 {
					sc = w / float64(m.p.cost(c))
				}
				stale[c] = sc
				for i := 0; i <= rank; i++ {
					if sc > top[i].score {
						copy(top[i+1:rank+1], top[i:rank])
						top[i] = cand{c, sc}
						bar = top[rank].score
						break
					}
				}
			}
		}
		pick := rank
		for pick > 0 && top[pick].c < 0 {
			pick--
		}
		if top[pick].c < 0 {
			ub.gsel = sel
			return nil, false
		}
		sel = append(sel, top[pick].c)
		remaining.DifferenceWith(m.colSets[top[pick].c])
	}
	ub.gsel = sel
	return sel, true
}

// weightedGreedy runs a multiplicative-weights set-cover loop: rows that
// keep ending up covered by a single selected column get their weight
// bumped, steering subsequent greedy passes toward columns that cover the
// chronically hard rows together. Each cover built is offered to the
// incumbent through consider, in construction order, so the loop runs out
// of ub's reusable buffers without materializing a cover list. It stops
// early as upperBound does.
func (m *matrix) weightedGreedy(ctx context.Context, ub *ubScratch, rows, cols bitset.Set, iters, lb int) {
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
		sel, ok := m.greedyCover(ub, rows, cols, weights, 0)
		if !ok || m.consider(ub, rows, sel, lb) || ctx.Err() != nil {
			return
		}
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
	sel, _ := m.greedyCover(&ubScratch{}, fullSet(len(p.RowCols)), fullSet(p.NumCols), nil, 0)
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
