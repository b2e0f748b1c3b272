// Parallel branch-and-bound for the exact unate solver.
//
// Determinism argument. The sequential solver visits the tree depth-first
// and keeps one incumbent with strict improvement, so its answer is the
// first node in visit order that attains the global minimum cost. The
// parallel engine reproduces that answer exactly:
//
//  1. Expansion peels the leftmost unexpanded node off an ordered frontier —
//     always the node the sequential search would enter next — so this phase
//     IS the sequential search, merely stopping early in each subtree.
//     Covers recorded here become ordered leaf entries and tighten the
//     expansion bound exactly as the sequential incumbent would.
//  2. Each remaining frontier task is searched with a pruning bound of
//     min(greedy incumbent, best result of completed EARLIER items, task
//     best). Earlier-only sharing is essential: a bound from a later item
//     could prune the first node attaining the minimum (the prune test is
//     cost+lb >= bound, and with an equal-cost later solution that becomes
//     an equality the sequential search never sees). Any such prefix bound
//     is >= the sequential incumbent at the task's entry, so every node the
//     sequential search visits inside the task is also visited here, and
//     the task's local strict-improvement record lands on the same node.
//  3. The fold scans the items in order with strict improvement — exactly
//     the order the sequential incumbent was updated in — and stops at the
//     first cost reaching Options.LowerBound, where the sequential search
//     would have halted.
//
// Node and time budgets are shared atomics; a budget abort yields the usual
// best-effort Solution with Optimal=false, but which incumbent survives then
// depends on worker scheduling — only completed searches are bit-for-bit
// reproducible.

package cover

import (
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
)

// coverTasksPerWorker controls expansion granularity: the frontier is
// peeled until about this many tasks per worker exist, so stragglers leave
// idle workers something to pick up.
const coverTasksPerWorker = 8

// coverBoundStride is how many nodes a task searches between refreshes of
// its cached prefix bound (and polls of the context and stop index).
const coverBoundStride = 64

// coverItem is one entry of the ordered search frontier: either a complete
// cover recorded during expansion (leaf) or a suspended subtree (task).
type coverItem struct {
	leaf       bool
	cost       int
	sel        []int      // leaf: the cover; task: columns selected so far
	rows, cols bitset.Set // task only
	root       bool       // task only: root-level dominance still applies
}

// taskResult is what one frontier item contributes to the fold.
type taskResult struct {
	found bool
	cost  int
	sel   []int
}

// parShared is the state all tasks of one parallel solve share. results[k]
// is written only by the goroutine that owns item k and published by the
// completed[k] store; readers check completed[k] first, which gives the
// necessary happens-before edge.
type parShared struct {
	s           *solver
	maxNodes    int64
	nodes       atomic.Int64
	entryPruned atomic.Int64 // workers' entry-test prunes, added as each exits
	terminal    atomic.Int64 // workers' terminal children, added as each exits
	budget      atomic.Bool  // node/time budget tripped somewhere
	stopAfter   atomic.Int64 // lowest item index whose record met LowerBound
	results     []taskResult
	completed   []atomic.Bool
}

// prefixBound returns the strict pruning bound item k may use: the greedy
// incumbent improved only by completed items that precede k in frontier
// order.
func (sh *parShared) prefixBound(k int) int {
	b := sh.s.bestCost
	for j := 0; j < k; j++ {
		if !sh.completed[j].Load() {
			continue
		}
		if r := &sh.results[j]; r.found && r.cost < b {
			b = r.cost
		}
	}
	return b
}

// taskCtl is the searchCtl of one parallel task: a local incumbent plus a
// periodically refreshed prefix bound. Owned by a single goroutine.
type taskCtl struct {
	sh     *parShared
	k      int // frontier index of this task
	cached int // last prefix bound observed
	tick   int
	halt   bool
	local  taskResult
}

func (c *taskCtl) enter() bool {
	if c.halt {
		return false
	}
	if n := c.sh.nodes.Add(1); n > c.sh.maxNodes {
		c.sh.budget.Store(true)
		c.halt = true
		return false
	}
	c.tick++
	if c.tick%coverBoundStride == 0 {
		if c.sh.s.ctx.Err() != nil {
			c.sh.budget.Store(true)
			c.halt = true
			return false
		}
		if c.sh.stopAfter.Load() < int64(c.k) {
			c.halt = true // an earlier task met the LowerBound; this subtree is unreachable
			return false
		}
		c.cached = c.sh.prefixBound(c.k)
	}
	return true
}

func (c *taskCtl) halted() bool { return c.halt }

func (c *taskCtl) bound() int {
	if c.local.found && c.local.cost < c.cached {
		return c.local.cost
	}
	return c.cached
}

func (c *taskCtl) record(sel []int, cost int) {
	if c.local.found && cost >= c.local.cost {
		return
	}
	c.local = taskResult{found: true, cost: cost, sel: append([]int(nil), sel...)}
	if lb := c.sh.s.lb; lb > 0 && cost <= lb {
		// The sequential search halts outright on this record; everything
		// after item k in frontier order is unreachable.
		for {
			cur := c.sh.stopAfter.Load()
			if int64(c.k) >= cur || c.sh.stopAfter.CompareAndSwap(cur, int64(c.k)) {
				break
			}
		}
		c.halt = true
	}
}

// solveParallel distributes the branch and bound over s's worker count,
// folding the results back into s.bestCost/bestSel/found/budget so
// SolveExactCtx finishes identically on either path.
func (s *solver) solveParallel(rows, cols bitset.Set, workers int) {
	m := s.m
	sh := &parShared{s: s, maxNodes: int64(s.maxNodes)}

	// Phase 1 — expansion: repeatedly replace the first task (the node the
	// sequential search would enter next) with its children, until enough
	// independent subtrees exist. expBound tracks the exact sequential
	// incumbent over this prefix of the visit order. The step cap bounds
	// the sequential prelude on skinny trees.
	items := []*coverItem{{rows: rows, cols: cols, root: true}}
	tasks := 1
	ectl := &expandCtl{sh: sh, limit: s.bestCost}
	esc := newScratch(m) // expansion runs sequentially: one scratch serves it
	target := workers * coverTasksPerWorker
	first := 0 // index of the first task; everything before it is a leaf
	for steps := 0; tasks > 0 && tasks < target && steps < 16*target; steps++ {
		for items[first].leaf {
			first++
		}
		if n := sh.nodes.Add(1); n > sh.maxNodes || s.ctx.Err() != nil {
			sh.budget.Store(true)
			break
		}
		it := items[first]
		sel, cost, verdict := m.reduce(ectl, esc, it.rows, it.cols, it.sel, it.cost, it.root)
		tasks--
		switch verdict {
		case coverPrune:
			items = append(items[:first], items[first+1:]...)
		case coverLeaf:
			// cost < ectl.limit is guaranteed by reduce, so this mirrors the
			// sequential strict-improvement record.
			ectl.limit = cost
			items[first] = &coverItem{leaf: true, cost: cost, sel: append([]int(nil), sel...)}
			if s.lb > 0 && cost <= s.lb {
				// Sequential search stops here; drop the unreachable tail.
				items = items[:first+1]
				tasks = 0
			}
		default:
			remCols := it.cols.Clone()
			row, _ := m.hardestRow(it.rows, it.cols)
			order := m.branchOrder(esc, row, it.rows, it.cols)
			children := make([]*coverItem, 0, len(order))
			for _, o := range order {
				c := o.c
				newRows := bitset.Difference(it.rows, m.colSets[c])
				newCols := remCols.Clone()
				newCols.Remove(c)
				// Deep-copy the selection: sibling tasks run concurrently
				// and must not share append backing arrays.
				sel2 := append(append(make([]int, 0, len(sel)+1), sel...), c)
				children = append(children, &coverItem{
					rows: newRows, cols: newCols, sel: sel2, cost: cost + m.p.cost(c),
				})
				remCols.Remove(c)
			}
			items = append(items[:first], append(children, items[first+1:]...)...)
			tasks += len(children)
		}
	}

	// Phase 2 — drain: workers pull tasks in frontier order off an atomic
	// index. Leaf results are pre-published so prefix bounds see them.
	sh.results = make([]taskResult, len(items))
	sh.completed = make([]atomic.Bool, len(items))
	sh.stopAfter.Store(int64(len(items)))
	var taskIdx []int
	for i, it := range items {
		if it.leaf {
			sh.results[i] = taskResult{found: true, cost: it.cost, sel: it.sel}
			sh.completed[i].Store(true)
		} else {
			taskIdx = append(taskIdx, i)
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers && w < len(taskIdx); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One scratch per worker goroutine, reused across every task it
			// drains; scratches are single-walker state and must not be
			// shared.
			sc := newScratch(m)
			defer func() {
				sh.entryPruned.Add(int64(sc.entryPruned))
				sh.terminal.Add(int64(sc.terminal))
			}()
			for {
				t := int(next.Add(1)) - 1
				if t >= len(taskIdx) || sh.budget.Load() {
					return
				}
				k := taskIdx[t]
				if sh.stopAfter.Load() < int64(k) {
					sh.completed[k].Store(true) // unreachable: publish the empty result
					continue
				}
				it := items[k]
				ctl := &taskCtl{sh: sh, k: k, cached: sh.prefixBound(k)}
				// Re-home the task's selection in a full-capacity buffer so
				// the append chains below never reallocate.
				sel := append(make([]int, 0, m.p.NumCols), it.sel...)
				m.branch(ctl, sc, it.rows, it.cols, sel, it.cost, it.root)
				sh.results[k] = ctl.local
				sh.completed[k].Store(true)
			}
		}()
	}
	wg.Wait()

	// Phase 3 — fold, in frontier order with strict improvement: the exact
	// order the sequential incumbent evolved in.
	for k := range items {
		if !sh.completed[k].Load() {
			continue // budget abort left this task unsearched
		}
		if r := &sh.results[k]; r.found && r.cost < s.bestCost {
			s.bestCost = r.cost
			s.bestSel = r.sel
			s.found = true
		}
		if s.lb > 0 && s.bestCost <= s.lb {
			break
		}
	}
	if sh.budget.Load() {
		s.budget = true
	}
	// Surface the shared counters through the sequential ones so the trace
	// span (and any other diagnostics) read one field on either path.
	s.nodes = int(sh.nodes.Load())
	s.entryPruned = esc.entryPruned + int(sh.entryPruned.Load())
	s.terminal = int(sh.terminal.Load())
}

// expandCtl is the searchCtl used while reducing frontier nodes during
// expansion: the exact sequential incumbent's cost as the pruning bound, no
// node budget (the expansion loop does its own node accounting) and no
// recording (reduce never records). halted polls the context, which
// reduce asks only inside the root's dominance passes, and marks the
// solve budget-stopped when it is done.
type expandCtl struct {
	sh    *parShared
	limit int
}

func (*expandCtl) enter() bool { return true }

func (e *expandCtl) halted() bool {
	if e.sh.s.ctx.Err() == nil {
		return false
	}
	e.sh.budget.Store(true)
	return true
}

func (e *expandCtl) bound() int      { return e.limit }
func (*expandCtl) record([]int, int) {}
