package prime

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/dichotomy"
)

// bkCtxStride is how many recursion calls pass between context polls.
const bkCtxStride = 256

// bkState is one Bron–Kerbosch enumeration walker. The sequential engine
// uses a single walker for the whole graph; the parallel engine gives each
// task its own walker and they share `count` and `overflow`, so the
// prime-count limit is enforced globally exactly as in the sequential run.
//
// A walker recurses allocation-free in steady state: the growing clique R
// is one mutable set maintained with an add/undo discipline, per-level
// candidate/P/X scratch sets come from a per-walker arena and are returned
// while unwinding, and emitted cliques are carved out of a slab instead of
// individually cloned. Neither the arena nor the slab is safe for
// concurrent use, so the parallel engine keeps one of each per worker
// goroutine, reused across the tasks that worker drains.
type bkState struct {
	ctx      context.Context
	adj      []bitset.Set
	limit    int64
	count    *atomic.Int64 // cliques emitted across all walkers
	overflow *atomic.Bool  // limit exceeded somewhere
	calls    int
	stopped  bool       // ctx expired or overflow observed; unwind quietly
	r        bitset.Set // current clique; rec adds before descending, removes after
	arena    *bitset.Arena
	slab     *bitset.Slab
	out      []bitset.Set
}

// rec is the classic pivoting recursion over the walker's current clique
// s.r. Maximal cliques are appended to s.out in DFS order; the candidate
// iteration order is determined entirely by the pivot rule, so the order is
// deterministic. rec may mutate p and x freely (the caller's copies are
// rebuilt by overwrite before its next descent) and must leave s.r exactly
// as it found it — every Add is undone after the child returns, even when
// the walker is stopping, because parallel workers reuse the task's R set.
func (s *bkState) rec(p, x bitset.Set) {
	if s.stopped {
		return
	}
	s.calls++
	if s.calls%bkCtxStride == 0 && (s.ctx.Err() != nil || s.overflow.Load()) {
		s.stopped = true
		return
	}
	if p.IsEmpty() && x.IsEmpty() {
		if s.count.Add(1) > s.limit {
			s.overflow.Store(true)
			s.stopped = true
			return
		}
		s.out = append(s.out, s.slab.CloneInto(s.r))
		return
	}
	pivot := bkPivot(p, x, s.adj)
	cand := s.arena.Get()
	if pivot >= 0 {
		cand.DifferenceInto(p, s.adj[pivot])
	} else {
		cand.CopyFrom(p)
	}
	p2 := s.arena.Get()
	x2 := s.arena.Get()
loop:
	for wi, wc := 0, cand.WordCount(); wi < wc; wi++ {
		for w := cand.Word(wi); w != 0; w &= w - 1 {
			v := wi*wordBits + bits.TrailingZeros64(w)
			// p2/x2 are fully overwritten, so whatever the previous child
			// left in them is irrelevant.
			p2.IntersectInto(p, s.adj[v])
			x2.IntersectInto(x, s.adj[v])
			s.r.Add(v)
			s.rec(p2, x2)
			s.r.Remove(v)
			if s.stopped {
				break loop
			}
			p.Remove(v)
			x.Add(v)
		}
	}
	s.arena.Put(x2)
	s.arena.Put(p2)
	s.arena.Put(cand)
}

// wordBits mirrors the bitset word width for closure-free iteration.
const wordBits = 64

// bkPivot returns the Tomita pivot: the vertex of P ∪ X with the most
// neighbours in P, the first such in a scan of P and then X in index
// order, or -1 when both sets are empty. It returns what that full scan
// returns but stops counting once the answer is decided. A vertex is not
// its own neighbour and X is disjoint from P, so only a vertex of X can
// have all |P| vertices of P as neighbours, and it then beats every vertex
// of P: the first such x is the pivot and leaves no candidate. Failing
// one, no vertex beats |P|−1, so the first vertex of P that reaches |P|−1
// is the pivot, and when none does, so is the first such vertex of X.
func bkPivot(p, x bitset.Set, adj []bitset.Set) int {
	if p.IsEmpty() {
		if v, ok := x.Min(); ok {
			return v
		}
		return -1
	}
	for wi, wc := 0, x.WordCount(); wi < wc; wi++ {
		for w := x.Word(wi); w != 0; w &= w - 1 {
			if v := wi*wordBits + bits.TrailingZeros64(w); p.SubsetOf(adj[v]) {
				return v
			}
		}
	}
	top := p.Len() - 1
	pivot, best := -1, -1
	for wi, wc := 0, p.WordCount(); wi < wc; wi++ {
		for w := p.Word(wi); w != 0; w &= w - 1 {
			u := wi*wordBits + bits.TrailingZeros64(w)
			d := bitset.IntersectLen(p, adj[u])
			if d == top {
				return u
			}
			if d > best {
				best, pivot = d, u
			}
		}
	}
	for wi, wc := 0, x.WordCount(); wi < wc; wi++ {
		for w := x.Word(wi); w != 0; w &= w - 1 {
			v := wi*wordBits + bits.TrailingZeros64(w)
			d := bitset.IntersectLen(p, adj[v])
			if d == top {
				return v
			}
			if d > best {
				best, pivot = d, v
			}
		}
	}
	return pivot
}

// bronKerbosch enumerates all maximal cliques of the compatibility graph
// sequentially. It also returns the number of recursion nodes it entered.
func bronKerbosch(ctx context.Context, seeds []dichotomy.D, opts Options) ([]bitset.Set, int, error) {
	n := len(seeds)
	if n == 0 {
		return nil, 0, nil
	}
	adj := compatibility(seeds, opts)
	var count atomic.Int64
	var overflow atomic.Bool
	s := &bkState{
		ctx:      ctx,
		adj:      adj,
		limit:    int64(opts.limit()),
		count:    &count,
		overflow: &overflow,
		r:        bitset.New(n),
		arena:    bitset.NewArena(n),
		slab:     bitset.NewSlab(n),
	}
	all := bitset.New(n)
	for i := 0; i < n; i++ {
		all.Add(i)
	}
	s.rec(all, bitset.New(n))
	if overflow.Load() {
		return nil, s.calls, fmt.Errorf("%w (> %d)", ErrLimit, opts.limit())
	}
	if ctx.Err() != nil {
		return nil, s.calls, ctxErr(ctx)
	}
	return s.out, s.calls, nil
}

// --- Parallel engine ---

// bkTasksPerWorker controls expansion granularity: the search frontier is
// peeled until about this many tasks per worker exist, so stragglers have
// somewhere to steal work from.
const bkTasksPerWorker = 8

// bkItem is one entry of the ordered search frontier: either a clique
// discovered during expansion (leaf) or a suspended subtree (task). The
// frontier preserves the sequential DFS order, so concatenating the items'
// cliques in frontier order reproduces the sequential output exactly.
type bkItem struct {
	leaf    bool
	clique  bitset.Set   // when leaf
	r, p, x bitset.Set   // when task
	out     []bitset.Set // task result, written only by the executing worker
}

// bronKerboschParallel fans the clique enumeration out over a worker pool.
// Expansion peels the leftmost unexpanded node off the frontier — exactly
// the node the sequential recursion would enter next — until the frontier
// holds enough independent subtrees; the pool then drains the subtrees,
// stealing the next frontier task as each worker goes idle. One shared
// atomic clique counter preserves the ErrLimit semantics of the sequential
// engine: the error fires iff the total number of maximal compatibles
// exceeds the limit, a condition independent of enumeration order. Every
// recursion node is either expanded here or entered by one worker, so the
// returned node count is the sequential engine's.
func bronKerboschParallel(ctx context.Context, seeds []dichotomy.D, opts Options) ([]bitset.Set, int, error) {
	n := len(seeds)
	if n == 0 {
		return nil, 0, nil
	}
	adj := compatibility(seeds, opts)
	limit := int64(opts.limit())
	workers := opts.WorkerCount()
	target := workers * bkTasksPerWorker

	all := bitset.New(n)
	for i := 0; i < n; i++ {
		all.Add(i)
	}
	items := []*bkItem{{r: bitset.New(n), p: all, x: bitset.New(n)}}
	tasks := 1

	var count atomic.Int64
	var overflow atomic.Bool
	var walked atomic.Int64 // recursion nodes entered by the workers
	expanded := 0

	// Expansion: replace the first task — the node the sequential recursion
	// would enter next — with its children until enough tasks exist.
	// Splicing children in place keeps the frontier in DFS order. The step
	// cap bounds the sequential prelude on skinny trees that keep yielding
	// a single child.
	first := 0 // index of the first task; everything before it is a leaf
	for steps := 0; tasks > 0 && tasks < target && steps < 16*target; steps++ {
		for items[first].leaf {
			first++
		}
		if ctx.Err() != nil {
			return nil, expanded, ctxErr(ctx)
		}
		it := items[first]
		children, clique := expandBK(it, adj)
		expanded++
		tasks--
		switch {
		case clique:
			if count.Add(1) > limit {
				return nil, expanded, fmt.Errorf("%w (> %d)", ErrLimit, opts.limit())
			}
			items[first] = &bkItem{leaf: true, clique: it.r}
		case len(children) == 0: // dead end: P empty but X not — no clique here
			items = append(items[:first], items[first+1:]...)
		default:
			items = append(items[:first], append(children, items[first+1:]...)...)
			tasks += len(children)
		}
	}

	// Drain the remaining tasks with the pool.
	var taskIdx []int
	for i, it := range items {
		if !it.leaf {
			taskIdx = append(taskIdx, i)
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers && w < len(taskIdx); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Scratch arena and result slab are per-goroutine (neither is
			// concurrency-safe) and reused across every task this worker
			// drains; rec's add/undo discipline leaves each task's R set
			// unchanged, so tasks cannot leak state into one another.
			arena := bitset.NewArena(n)
			slab := bitset.NewSlab(n)
			for {
				k := int(next.Add(1)) - 1
				if k >= len(taskIdx) || overflow.Load() || ctx.Err() != nil {
					return
				}
				it := items[taskIdx[k]]
				s := &bkState{
					ctx:      ctx,
					adj:      adj,
					limit:    limit,
					count:    &count,
					overflow: &overflow,
					r:        it.r,
					arena:    arena,
					slab:     slab,
				}
				s.rec(it.p, it.x)
				it.out = s.out
				walked.Add(int64(s.calls))
			}
		}()
	}
	wg.Wait()

	nodes := expanded + int(walked.Load())
	if overflow.Load() {
		return nil, nodes, fmt.Errorf("%w (> %d)", ErrLimit, opts.limit())
	}
	if ctx.Err() != nil {
		return nil, nodes, ctxErr(ctx)
	}
	out := make([]bitset.Set, 0, count.Load())
	for _, it := range items {
		if it.leaf {
			out = append(out, it.clique)
		} else {
			out = append(out, it.out...)
		}
	}
	return out, nodes, nil
}

// expandBK expands a task node one level, returning its children in the
// order the sequential recursion would visit them, or clique=true when the
// node is itself a maximal clique. A false clique with no children is a
// dead end (P exhausted while X is not). Child k inherits the P and X sets
// as mutated by its earlier siblings, mirroring the sequential loop.
func expandBK(it *bkItem, adj []bitset.Set) (children []*bkItem, clique bool) {
	if it.p.IsEmpty() && it.x.IsEmpty() {
		return nil, true
	}
	pivot := bkPivot(it.p, it.x, adj)
	cand := it.p.Clone()
	if pivot >= 0 {
		cand.DifferenceWith(adj[pivot])
	}
	p, x := it.p.Clone(), it.x.Clone()
	cand.ForEach(func(v int) bool {
		r2 := it.r.Clone()
		r2.Add(v)
		children = append(children, &bkItem{
			r: r2,
			p: bitset.Intersect(p, adj[v]),
			x: bitset.Intersect(x, adj[v]),
		})
		p.Remove(v)
		x.Add(v)
		return true
	})
	return children, false
}
