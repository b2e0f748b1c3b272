package cover

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/par"
	"repro/internal/trace"
)

// withCosts gives p per-column costs drawn uniformly from [lo, hi].
func withCosts(p *Problem, lo, hi int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p.Cost = make([]int, p.NumCols)
	for c := range p.Cost {
		p.Cost[c] = lo + rng.Intn(hi-lo+1)
	}
	return p
}

// twinProblem doubles every column of a random instance into a twin pair
// told apart only by a private row each, and adds a column s covering every
// private row plus a row only s covers. At the root s is essential, so each
// twin pair becomes identical on the active rows and column dominance must
// keep the earlier twin. The base is one where the search, not the greedy
// incumbent, finds the optimum, so the cover shows which twins survived.
func twinProblem() *Problem {
	base := kernelProblem(40, 30, 3, 8)
	s := 2 * base.NumCols
	p := &Problem{NumCols: s + 1}
	for _, cols := range base.RowCols {
		var row []int
		for _, c := range cols {
			row = append(row, 2*c, 2*c+1)
		}
		p.RowCols = append(p.RowCols, row)
	}
	for c := 0; c < s; c++ {
		p.RowCols = append(p.RowCols, []int{c, s})
	}
	p.RowCols = append(p.RowCols, []int{s})
	return p
}

// pinnedSearch is one fixed instance with the search outcome recorded
// before the per-node pruning work was cut: the cover, its cost, the
// optimality flag and the cover.solve span's node count.
type pinnedSearch struct {
	name     string
	p        *Problem
	maxNodes int
	cols     []int
	cost     int
	optimal  bool
	nodes    int64
}

func pinnedSearches() []pinnedSearch {
	return []pinnedSearch{
		{name: "unit", p: kernelProblem(48, 36, 4, 11),
			cols: []int{0, 1, 5, 10, 11, 14, 15, 18, 23, 24}, cost: 10, optimal: true, nodes: 476},
		{name: "unit/60x48", p: kernelProblem(60, 48, 4, 29),
			cols: []int{1, 4, 6, 7, 8, 11, 13, 19, 22, 25, 26, 44, 45}, cost: 13, optimal: true, nodes: 1363},
		{name: "unit/twins", p: twinProblem(),
			cols: []int{2, 18, 20, 28, 34, 38, 44, 52, 56, 58, 60}, cost: 11, optimal: true, nodes: 63},
		{name: "cost1-4", p: withCosts(kernelProblem(40, 30, 4, 17), 1, 4, 1),
			cols: []int{5, 7, 8, 9, 13, 14, 15, 17, 18, 28}, cost: 19, optimal: true, nodes: 213},
		{name: "cost1-4/60x48", p: withCosts(kernelProblem(60, 48, 4, 31), 1, 4, 4),
			cols: []int{0, 1, 2, 5, 10, 16, 18, 19, 20, 23, 24, 30, 32, 33, 44, 45, 46}, cost: 25, optimal: true, nodes: 10867},
		{name: "cost0-3", p: withCosts(kernelProblem(40, 30, 4, 19), 0, 3, 2),
			cols: []int{2, 4, 6, 7, 10, 11, 13, 19, 28}, cost: 8, optimal: true, nodes: 234},
		{name: "cost0-3/60x48", p: withCosts(kernelProblem(60, 48, 4, 37), 0, 3, 5),
			cols: []int{2, 3, 7, 10, 13, 16, 22, 25, 30, 39, 40, 42, 43, 45}, cost: 9, optimal: true, nodes: 353},
		// The capped instances are ones where the search beats the greedy
		// incumbent before the cap binds, so the cover pins the visit order.
		{name: "cost1-4/capped", p: withCosts(kernelProblem(70, 50, 3, 49), 1, 4, 49), maxNodes: 3_000,
			cols: []int{0, 1, 3, 5, 11, 12, 13, 16, 17, 19, 21, 24, 27, 28, 34, 38, 39, 41, 44, 47}, cost: 32, optimal: false, nodes: 3001},
		{name: "wide/capped", p: wideProblem(), maxNodes: 3_000,
			cols: []int{14, 195, 360, 408, 489, 841, 874, 1398, 1569, 1786, 1941}, cost: 11, optimal: false, nodes: 3001},
	}
}

// solveSpan runs one traced exact solve and returns its solution and the
// cover.solve span.
func solveSpan(t *testing.T, p *Problem, opts Options) (Solution, trace.SpanRecord) {
	t.Helper()
	ctx, rec := trace.Start(context.Background())
	sol, err := p.SolveExactCtx(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range rec.Snapshot().Spans {
		if sp.Name == "cover.solve" {
			return sol, sp
		}
	}
	t.Fatal("no cover.solve span")
	return sol, trace.SpanRecord{}
}

// spanAttr reads one attribute of a cover.solve span, failing when absent.
func spanAttr(t *testing.T, sp trace.SpanRecord, key string) int64 {
	t.Helper()
	v, ok := sp.Attr(key)
	if !ok {
		t.Fatalf("cover.solve span has no %s attr: %+v", key, sp)
	}
	return v
}

// TestSearchPinned holds the branch and bound to the covers, costs,
// optimality flags and node counts it produced before the entry test, the
// dominance filters and the skipping of fruitless passes: all three skip
// only work that cannot change a verdict, so every search must visit the
// same nodes. Completed searches must also come out identical on the
// parallel engine.
func TestSearchPinned(t *testing.T) {
	for _, tc := range pinnedSearches() {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Parallelism: par.Workers(1), MaxNodes: tc.maxNodes}
			sol, sp := solveSpan(t, tc.p, opts)
			nodes := spanAttr(t, sp, "nodes")
			if !slices.Equal(sol.Cols, tc.cols) || sol.Cost != tc.cost || sol.Optimal != tc.optimal || nodes != tc.nodes {
				t.Fatalf("got cols %#v cost %d optimal %v nodes %d; want %#v %d %v %d",
					sol.Cols, sol.Cost, sol.Optimal, nodes, tc.cols, tc.cost, tc.optimal, tc.nodes)
			}
			checkCovers(t, tc.p, sol)
			if !tc.optimal {
				return
			}
			forceParallel(t)
			opts.Workers = 4
			got, err := tc.p.SolveExactCtx(context.Background(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, sol) {
				t.Fatalf("4 workers: %+v, sequential %+v", got, sol)
			}
		})
	}
}

// TestEntryPrunedSpan: cover.solve reports how many nodes the entry test
// pruned, how many terminal children were entered without being built and
// how many greedy covers the upper bound built, on the sequential path and
// folded over the parallel workers. The capped wide search spends most of
// its nodes on terminal children. Sequentially the bound cannot fall while
// a terminal node counts its children, so every terminal child is an entry
// prune.
func TestEntryPrunedSpan(t *testing.T) {
	forceParallel(t)
	for _, tc := range []struct {
		name     string
		p        *Problem
		maxNodes int
		workers  int
		terminal bool
	}{
		{"wide/capped", wideProblem(), 3_000, 1, true},
		{"wide/capped", wideProblem(), 3_000, 4, true},
		{"unit/60x48", kernelProblem(60, 48, 4, 29), 0, 4, false},
	} {
		_, sp := solveSpan(t, tc.p, Options{Parallelism: par.Workers(tc.workers), MaxNodes: tc.maxNodes})
		nodes, pruned, terminal := spanAttr(t, sp, "nodes"), spanAttr(t, sp, "entry_pruned"), spanAttr(t, sp, "terminal")
		if pruned <= 0 || pruned >= nodes || (tc.terminal && terminal <= 0) || terminal >= nodes ||
			(tc.workers == 1 && terminal > pruned) {
			t.Fatalf("%s, %d workers: entry_pruned %d, terminal %d of %d nodes", tc.name, tc.workers, pruned, terminal, nodes)
		}
		if greedy := spanAttr(t, sp, "greedy"); greedy != 27 {
			t.Fatalf("%s, %d workers: %d greedy covers, want 3 variants + 24 weighted rounds", tc.name, tc.workers, greedy)
		}
	}
}
