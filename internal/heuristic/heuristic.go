// Package heuristic implements the bounded-length encoding heuristic of
// Section 7.1: the exact P-3 formulation (select c of the 2^(n-1) possible
// encoding-dichotomies minimizing a cost function) is approximated by
// recursive *splitting* of the symbol set with a Kernighan–Lin-style
// partitioner, *merging* of the sub-solutions' restricted dichotomies by
// cross product, and *selection* of the c best restricted dichotomies under
// the chosen cost metric with a bounded enumeration.
//
// # Cancellation
//
// EncodeCtx polls its context at coarse grain: before each restart and
// between polish passes. When the context is canceled after at least one
// restart finished, the best encoding so far is polished (briefly) and
// returned; when no restart finished, the wrapped context error is
// returned. The context-free Encode wraps context.Background().
//
// # Parallelism
//
// With Options.Workers > 1 the independent restarts run concurrently, and
// within each restart the exhaustive candidate-selection enumeration is
// scored in parallel. Both fan-outs fold their results deterministically —
// restarts by (cost, restart index), combinations by (cost, enumeration
// index) — so the encoding returned is identical to the sequential one for
// any worker count, unless a canceled context cut the restarts short. Each
// scoring goroutine owns a private cost.Evaluator; the evaluator type
// itself is not safe for concurrent use.
package heuristic

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/bitset"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dichotomy"
	"repro/internal/hypercube"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/trace"
)

// Options configures the heuristic encoder.
type Options struct {
	// Parallelism supplies the Workers/TimeLimit pair shared by all
	// solver stages. Workers fans the independent restarts (and the
	// selection-phase scoring) out over a pool — the result is identical
	// for any value; TimeLimit bounds wall-clock time, applied as a
	// context deadline with the anytime semantics EncodeCtx documents.
	par.Parallelism
	// Metric is the P-3 cost function; default Violations.
	Metric cost.Metric
	// Bits fixes the code length, at most MaxBits; 0 means the minimum
	// length ceil(log2 n), as used throughout the paper's Tables 2 and 3.
	Bits int
	// MaxEvaluations bounds the number of candidate-selection cost
	// evaluations per subset (Section 7.1 "the number of evaluations can
	// be restricted to some fixed number"); 0 means DefaultMaxEvaluations.
	MaxEvaluations int
	// Restarts is the number of independent split/merge/select runs with
	// distinct partitioning tie-breaks; the best result wins. 0 means
	// DefaultRestarts.
	Restarts int
	// PolishBudget bounds the cost evaluations of the final pairwise-swap
	// polish over the assembled encoding; 0 means DefaultPolishBudget,
	// negative disables polishing.
	PolishBudget int
}

// ParallelCutoffSymbols is the symbol count below which the restart and
// selection-scoring fan-outs run sequentially regardless of Options.Workers.
// Below it a whole restart finishes in about a millisecond on the kernel
// benchmark machine — the same order as the goroutine spawn/join plus the
// private evaluator and scorer each parallel worker must construct — so the
// fan-out cannot pay for itself; the scoring fan-out additionally keeps its
// own pool-size gate (scoreChunk) for small enumerations.
const ParallelCutoffSymbols = 16

// parallelCutoffSymbols is the live gate value; tests lower it to force the
// parallel fan-outs onto small instances.
var parallelCutoffSymbols = ParallelCutoffSymbols

// DefaultMaxEvaluations bounds the selection-phase search per subproblem.
const DefaultMaxEvaluations = 2000

// DefaultRestarts is the number of multi-start runs.
const DefaultRestarts = 4

// DefaultPolishBudget bounds the final swap-improvement evaluations.
const DefaultPolishBudget = 6000

// MaxBits is the widest code length EncodeCtx accepts. The polish pass
// keeps one flag per code point, 16 MiB at this width; the paper's tables
// encode at the minimum length, a handful of bits.
const MaxBits = 24

// scoreChunk is how many selection combinations one worker scores per grab;
// pools smaller than a few chunks are scored sequentially.
const scoreChunk = 16

// Result carries the heuristic encoding and its evaluated cost.
type Result struct {
	Encoding *core.Encoding
	Cost     cost.Result
	// Trace is the stage-span report of this solve when the caller's
	// context carried a trace recorder (internal/trace); empty otherwise.
	Trace trace.Trace
}

// EncodeCtx runs the split/merge/select heuristic on the input
// constraints of cs and returns an encoding of the requested length.
// Output constraints are not handled by this algorithm (the paper
// presents it for input constraints); they are ignored if present. See
// the package documentation for the (coarse-grained) cancellation
// contract; Options.TimeLimit, when set, is layered under ctx as a
// deadline.
func EncodeCtx(ctx context.Context, cs *constraint.Set, opts Options) (*Result, error) {
	ctx, cancel := opts.Parallelism.Context(ctx)
	defer cancel()
	if err := cs.Validate(); err != nil {
		return nil, err
	}
	if opts.Bits > MaxBits {
		return nil, fmt.Errorf("heuristic: %d bits exceeds the limit of %d", opts.Bits, MaxBits)
	}
	n := cs.N()
	if n == 0 {
		return &Result{Encoding: core.NewEncoding(cs.Syms, 0, nil)}, nil
	}
	c := opts.Bits
	if c == 0 {
		c = hypercube.MinBits(n)
	}
	if n > 1<<uint(c) {
		return nil, fmt.Errorf("heuristic: %d symbols do not fit in %d bits", n, c)
	}
	if opts.MaxEvaluations == 0 {
		opts.MaxEvaluations = DefaultMaxEvaluations
	}

	restarts := opts.Restarts
	if restarts == 0 {
		restarts = DefaultRestarts
	}
	all := bitset.New(n)
	for i := 0; i < n; i++ {
		all.Add(i)
	}

	// Restarts are fully independent, so they fan out over the worker pool;
	// each scores its encoding with a private evaluator. The fold below
	// walks the results in restart order with strict improvement, which is
	// exactly the sequential loop's incumbent rule, so the winner does not
	// depend on the worker count.
	type run struct {
		enc *core.Encoding
		v   int
	}
	rsp := trace.StartSpan(ctx, "heuristic.restarts")
	runs := make([]*run, restarts)
	workers := opts.WorkersFor(n, parallelCutoffSymbols)
	par.ForEach(restarts, workers, func(r int) {
		if ctx.Err() != nil {
			return
		}
		e := &encoder{cs: cs, opts: opts, variant: r, workers: workers}
		cols := e.solve(all, c)
		enc := core.FromColumns(cs.Syms, cols)
		ensureUnique(enc, c)
		ev := cost.NewEvaluator(cs)
		runs[r] = &run{enc, ev.Of(opts.Metric, cost.FullAssignment(enc.Bits, enc.Codes))}
	})

	var best *core.Encoding
	bestCost := 1 << 30
	completed := 0
	for _, r := range runs {
		if r == nil {
			continue
		}
		completed++
		if r.v < bestCost {
			bestCost, best = r.v, r.enc
		}
	}
	if rsp != nil {
		rsp.Set("restarts", restarts).Set("completed", completed).
			Set("workers", workers).Set("bits", c)
		if best != nil {
			rsp.Set("best_cost", bestCost)
		}
		rsp.End()
	}
	if best == nil {
		return nil, fmt.Errorf("heuristic: encoding canceled: %w", context.Cause(ctx))
	}

	psp := trace.StartSpan(ctx, "heuristic.polish")
	polish(ctx, cs, best, opts, cost.NewEvaluator(cs))
	a := cost.FullAssignment(best.Bits, best.Codes)
	res := &Result{Encoding: best, Cost: cost.Evaluate(cs, a)}
	if psp != nil {
		psp.Set("cost", res.Cost.Of(opts.Metric)).End()
	}
	if rec := trace.FromContext(ctx); rec != nil {
		res.Trace = rec.Snapshot()
	}
	return res, nil
}

// polish improves the assembled encoding with pairwise code swaps and
// moves to unused codes, accepting strict improvements of the metric. The
// hill climb is order-dependent, so it stays sequential; ctx is polled
// between passes.
func polish(ctx context.Context, cs *constraint.Set, enc *core.Encoding, opts Options, evaluator *cost.Evaluator) {
	budget := opts.PolishBudget
	if budget == 0 {
		budget = DefaultPolishBudget
	}
	if budget < 0 {
		return
	}
	n := cs.N()
	limit := 1 << uint(enc.Bits)
	used := make([]bool, limit)
	for _, c := range enc.Codes {
		used[c] = true
	}
	// The assignment wraps enc.Codes by reference, so the in-place swap
	// moves below are visible through it — one subset bitset for the whole
	// climb instead of one per evaluation.
	fa := cost.FullAssignment(enc.Bits, enc.Codes)
	eval := func() int {
		return evaluator.Of(opts.Metric, fa)
	}
	best := eval()
	improved := true
	for improved && budget > 0 && ctx.Err() == nil {
		improved = false
		for a := 0; a < n && budget > 0; a++ {
			for b := a + 1; b < n && budget > 0; b++ {
				enc.Codes[a], enc.Codes[b] = enc.Codes[b], enc.Codes[a]
				budget--
				if v := eval(); v < best {
					best = v
					improved = true
				} else {
					enc.Codes[a], enc.Codes[b] = enc.Codes[b], enc.Codes[a]
				}
			}
		}
		for a := 0; a < n && budget > 0; a++ {
			for c := 0; c < limit && budget > 0; c++ {
				if used[c] {
					continue
				}
				old := enc.Codes[a]
				enc.Codes[a] = uint64(c)
				budget--
				if v := eval(); v < best {
					best = v
					used[old] = false
					used[c] = true
					improved = true
				} else {
					enc.Codes[a] = old
				}
			}
		}
		if improved || budget <= 0 {
			continue
		}
		// Pairwise moves are exhausted: try 3-cycles of codes to escape
		// swap-local minima before giving up.
		for a := 0; a < n && budget > 0; a++ {
			for b := a + 1; b < n && budget > 0; b++ {
				for c := b + 1; c < n && budget > 0; c++ {
					rotate := func() {
						enc.Codes[a], enc.Codes[b], enc.Codes[c] =
							enc.Codes[b], enc.Codes[c], enc.Codes[a]
					}
					applied, kept := 0, false
					for rot := 0; rot < 2 && budget > 0; rot++ {
						rotate()
						applied++
						budget--
						if v := eval(); v < best {
							best = v
							improved = true
							kept = true
							break
						}
					}
					if !kept {
						// Three rotations are the identity: undo.
						for ; applied%3 != 0; applied++ {
							rotate()
						}
					}
				}
			}
		}
	}
}

// encoder is the state of one restart of the split/merge/select recursion.
// Each restart owns its encoder, so the struct needs no synchronization;
// workers caps the fan-out of the selection-phase scoring.
type encoder struct {
	cs      *constraint.Set
	opts    Options
	variant int
	workers int
}

// ensureUnique guarantees distinct codes within the fixed code length: any
// symbol sharing a code with an earlier one is remapped to an unused code.
// The selection phase almost always delivers distinct codes already; this
// is a terminal safety net so the returned encoding is always usable.
func ensureUnique(enc *core.Encoding, c int) {
	if enc.Bits < c {
		enc.Bits = c
	}
	limit := hypercube.Code(1) << uint(enc.Bits)
	used := make(map[hypercube.Code]bool, len(enc.Codes))
	var free hypercube.Code
	for i, code := range enc.Codes {
		if !used[code] {
			used[code] = true
			continue
		}
		for used[free] && free < limit {
			free++
		}
		if free < limit {
			enc.Codes[i] = free
			used[free] = true
		}
	}
}

// solve returns up to c total restricted dichotomies over subset P that
// assign distinct codes to all symbols of P and minimize the cost metric
// on the restricted constraints.
func (e *encoder) solve(p bitset.Set, c int) []dichotomy.D {
	switch p.Len() {
	case 0:
		return nil
	case 1:
		s, _ := p.Min()
		return []dichotomy.D{dichotomy.Of([]int{s}, nil)}
	case 2:
		elems := p.Elems()
		return []dichotomy.D{dichotomy.Of(elems[:1], elems[1:])}
	}

	// Split: each side must fit in c-1 bits.
	capSide := 1 << uint(c-1)
	h := e.nets(p)
	left, right := partition.BipartitionVariant(h, p.Elems(), capSide, capSide, e.variant)

	d1 := e.solve(left, c-1)
	d2 := e.solve(right, c-1)

	// Merge: the partition dichotomy plus both-orientation cross products.
	var cands []dichotomy.D
	cands = append(cands, dichotomy.New(left, right))
	for _, a := range d1 {
		for _, b := range d2 {
			cands = append(cands, dichotomy.Union(a, b))
			cands = append(cands, dichotomy.Union(a, b.Mirror()))
		}
	}
	cands = dichotomy.Rows(cands) // one candidate per mirror pair

	return e.selectBest(p, c, cands)
}

// nets builds the splitting hypergraph: one net per restricted face
// constraint (cut nets are violated constraints) and one per pair that a
// restricted initial uniqueness dichotomy would distinguish is implied by
// the uniqueness guarantee of the merge step, so faces suffice.
func (e *encoder) nets(p bitset.Set) *partition.Hypergraph {
	h := &partition.Hypergraph{N: e.cs.N()}
	var m bitset.Set // reused across faces; Elems copies out the survivors
	for _, f := range e.cs.Faces {
		if m.IntersectPopcountInto(f.Members, p) >= 2 {
			h.Nets = append(h.Nets, m.Elems())
		}
	}
	return h
}

// selectBest picks min(c, needed) candidates giving distinct codes to all
// of P while minimizing the restricted cost metric. A greedy seed is
// improved by bounded swap passes; when the candidate pool is small enough
// the selection is exhaustive.
func (e *encoder) selectBest(p bitset.Set, c int, cands []dichotomy.D) []dichotomy.D {
	if len(cands) <= c {
		return cands
	}
	restricted := e.cs.Restrict(p)
	evaluator := cost.NewEvaluator(restricted)
	sc := &scorer{}

	evalBudget := e.opts.MaxEvaluations
	evalSel := func(sel []int) (int, bool) {
		if !sc.uniqueCodes(p, cands, sel) {
			return 1 << 30, false
		}
		if evalBudget <= 0 {
			return 1 << 30, false
		}
		evalBudget--
		a := sc.assignment(e.cs.N(), p, cands, sel)
		if e.opts.Metric == cost.Violations {
			return cost.CountViolations(restricted, a), true
		}
		return evaluator.Of(e.opts.Metric, a), true
	}

	// Exhaustive when feasible within budget. The enumeration is scored in
	// parallel; the winner is the minimum by (cost, enumeration index),
	// which is exactly the sequential first-strict-improvement rule, so the
	// chosen combination does not depend on the worker count. Each chunk is
	// scored with a private evaluator (cost.Evaluator is not safe for
	// concurrent use); the budget is untouched on this path, as a pool small
	// enough to enumerate never exceeds MaxEvaluations by construction.
	if nCombos := combinations(len(cands), c); nCombos <= e.opts.MaxEvaluations {
		// All combinations are materialized into one flat backing array —
		// one allocation for the whole enumeration; combination i is
		// flat[i*c : (i+1)*c].
		flat := make([]int, 0, nCombos*c)
		forEachCombination(len(cands), c, func(sel []int) {
			flat = append(flat, sel...)
		})
		type scored struct {
			idx int
			v   int
		}
		workers := e.workers
		if nCombos < 4*scoreChunk {
			workers = 1
		}
		wins := make([]scored, max(1, workers))
		par.ForEach(max(1, workers), workers, func(w int) {
			ev, wsc := evaluator, sc
			if workers > 1 {
				// Private evaluator and scratch per goroutine: neither type
				// is safe for concurrent use.
				ev = cost.NewEvaluator(restricted)
				wsc = &scorer{}
			}
			win := scored{-1, 1 << 30}
			for start := w * scoreChunk; start < nCombos; start += workers * scoreChunk {
				for i := start; i < start+scoreChunk && i < nCombos; i++ {
					sel := flat[i*c : i*c+c]
					if !wsc.uniqueCodes(p, cands, sel) {
						continue
					}
					var v int
					if e.opts.Metric == cost.Violations {
						v = cost.CountViolations(restricted, wsc.assignment(e.cs.N(), p, cands, sel))
					} else {
						v = ev.Of(e.opts.Metric, wsc.assignment(e.cs.N(), p, cands, sel))
					}
					if v < win.v {
						win = scored{i, v}
					}
				}
			}
			wins[w] = win
		})
		best := scored{-1, 1 << 30}
		for _, win := range wins {
			if win.idx >= 0 && (win.v < best.v || (win.v == best.v && win.idx < best.idx)) {
				best = win
			}
		}
		if best.idx >= 0 {
			return pick(cands, flat[best.idx*c:best.idx*c+c])
		}
	}

	// Greedy seed: the partition dichotomy first (it is candidate 0 and
	// guarantees progress on uniqueness), then grow by the candidate that
	// most improves distinctness, ties by metric.
	sel := greedySeed(p, cands, c)
	if sel == nil {
		// Fall back: any c candidates; uniqueness enforced later by caller
		// retries.
		sel = make([]int, c)
		for i := range sel {
			sel[i] = i % len(cands)
		}
	}
	bestCost, _ := evalSel(sel)

	// Swap improvement passes.
	improved := true
	for improved && evalBudget > 0 {
		improved = false
		for si := 0; si < len(sel) && evalBudget > 0; si++ {
			for ci := 0; ci < len(cands) && evalBudget > 0; ci++ {
				if contains(sel, ci) {
					continue
				}
				old := sel[si]
				sel[si] = ci
				if v, ok := evalSel(sel); ok && v < bestCost {
					bestCost = v
					improved = true
				} else {
					sel[si] = old
				}
			}
		}
	}
	return pick(cands, sel)
}

// scorer is the reusable working memory of one scoring worker: a partial
// code buffer for uniqueness checks and an assignment codes buffer handed
// to the cost evaluators. The evaluators read the codes during the call and
// never retain them, so reusing the buffer across evaluations is safe. A
// scorer must not be shared between goroutines.
type scorer struct {
	codes []hypercube.Code
	seen  []uint64
}

// partialCode computes symbol s's code under the selected columns.
func partialCode(s int, cands []dichotomy.D, sel []int) hypercube.Code {
	var code hypercube.Code
	for j, ci := range sel {
		if cands[ci].R.Has(s) {
			code |= 1 << uint(j)
		}
	}
	return code
}

// assignment derives the partial codes of subset p from the selected
// candidate columns into the scorer's reused buffer.
func (sc *scorer) assignment(n int, p bitset.Set, cands []dichotomy.D, sel []int) cost.Assignment {
	if cap(sc.codes) < n {
		sc.codes = make([]hypercube.Code, n)
	}
	codes := sc.codes[:n]
	for wi, wc := 0, p.WordCount(); wi < wc; wi++ {
		for w := p.Word(wi); w != 0; w &= w - 1 {
			s := wi*64 + bits.TrailingZeros64(w)
			codes[s] = partialCode(s, cands, sel)
		}
	}
	return cost.Assignment{Bits: len(sel), Subset: p, Codes: codes}
}

// uniqueCodes reports whether the selection assigns distinct codes to every
// symbol of p: the codes are collected into the reused buffer, sorted and
// scanned for an adjacent duplicate — no per-call map.
func (sc *scorer) uniqueCodes(p bitset.Set, cands []dichotomy.D, sel []int) bool {
	seen := sc.seen[:0]
	for wi, wc := 0, p.WordCount(); wi < wc; wi++ {
		for w := p.Word(wi); w != 0; w &= w - 1 {
			seen = append(seen, uint64(partialCode(wi*64+bits.TrailingZeros64(w), cands, sel)))
		}
	}
	sc.seen = seen
	slices.Sort(seen)
	for i := 1; i < len(seen); i++ {
		if seen[i] == seen[i-1] {
			return false
		}
	}
	return true
}

// uniqueCodes is the scratch-free convenience wrapper for cold call sites.
func uniqueCodes(p bitset.Set, cands []dichotomy.D, sel []int) bool {
	var sc scorer
	return sc.uniqueCodes(p, cands, sel)
}

// greedySeed builds an initial selection achieving distinct codes: start
// from the partition dichotomy (index 0) and add the candidate separating
// the most still-confounded pairs.
func greedySeed(p bitset.Set, cands []dichotomy.D, c int) []int {
	sel := []int{0}
	for len(sel) < c {
		bestCand, bestSep := -1, -1
		for ci := range cands {
			if contains(sel, ci) {
				continue
			}
			sep := confoundedPairsSeparated(p, cands, sel, ci)
			if sep > bestSep {
				bestSep, bestCand = sep, ci
			}
		}
		if bestCand < 0 {
			return nil
		}
		sel = append(sel, bestCand)
	}
	if !uniqueCodes(p, cands, sel) && !repairUniqueness(p, cands, sel) {
		return sel // caller's cost function will reject; swaps may fix it
	}
	return sel
}

// confoundedPairsSeparated counts pairs of symbols with equal partial codes
// under sel that candidate ci separates.
func confoundedPairsSeparated(p bitset.Set, cands []dichotomy.D, sel []int, ci int) int {
	elems := p.Elems()
	code := func(s int) uint64 {
		var v uint64
		for j, k := range sel {
			if cands[k].R.Has(s) {
				v |= 1 << uint(j)
			}
		}
		return v
	}
	count := 0
	for i := 0; i < len(elems); i++ {
		for j := i + 1; j < len(elems); j++ {
			if code(elems[i]) == code(elems[j]) && cands[ci].Separates(elems[i], elems[j]) {
				count++
			}
		}
	}
	return count
}

// repairUniqueness tries single-column replacements to reach distinct
// codes; returns true on success.
func repairUniqueness(p bitset.Set, cands []dichotomy.D, sel []int) bool {
	for si := range sel {
		old := sel[si]
		for ci := range cands {
			if contains(sel, ci) {
				continue
			}
			sel[si] = ci
			if uniqueCodes(p, cands, sel) {
				return true
			}
		}
		sel[si] = old
	}
	return false
}

func contains(sel []int, v int) bool {
	for _, s := range sel {
		if s == v {
			return true
		}
	}
	return false
}

func pick(cands []dichotomy.D, sel []int) []dichotomy.D {
	out := make([]dichotomy.D, len(sel))
	for i, ci := range sel {
		out[i] = cands[ci]
	}
	return out
}

// combinations returns C(n, k) saturating at a large bound.
func combinations(n, k int) int {
	if k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	res := 1
	for i := 0; i < k; i++ {
		res = res * (n - i) / (i + 1)
		if res > 1<<30 || res < 0 {
			return 1 << 30
		}
	}
	return res
}

// forEachCombination enumerates k-subsets of [0,n) in lexicographic order.
func forEachCombination(n, k int, fn func(sel []int)) {
	sel := make([]int, k)
	for i := range sel {
		sel[i] = i
	}
	for {
		fn(sel)
		i := k - 1
		for i >= 0 && sel[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		sel[i]++
		for j := i + 1; j < k; j++ {
			sel[j] = sel[j-1] + 1
		}
	}
}
