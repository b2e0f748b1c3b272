package cost

import (
	"math/rand"
	"testing"

	"repro/internal/hypercube"
)

// trajectory is a random walk over assignments of one constraint set that
// mixes the moves the annealer, the polish pass and the heuristic's
// selection make, plus changes of subset and code length.
type trajectory struct {
	rng  *rand.Rand
	n    int
	a    Assignment
	undo func()
}

// move applies one random move to t.a. A swap, relocation or 3-cycle may
// leave an undo behind that the next move runs first without an
// evaluation in between, as a rejected anneal or polish move is undone.
func (t *trajectory) move() {
	if t.undo != nil && t.rng.Intn(2) == 0 {
		t.undo()
	}
	t.undo = nil
	codes, n := t.a.Codes, t.n
	switch k := t.rng.Intn(20); {
	case k < 6: // pairwise swap
		x, y := t.rng.Intn(n), t.rng.Intn(n)
		codes[x], codes[y] = codes[y], codes[x]
		t.undo = func() { codes[x], codes[y] = codes[y], codes[x] }
	case k < 10: // relocation to a code no symbol holds
		s := t.rng.Intn(n)
		used := map[hypercube.Code]bool{}
		for _, c := range codes {
			used[c] = true
		}
		var free []hypercube.Code
		for c := hypercube.Code(0); c < 1<<uint(t.a.Bits); c++ {
			if !used[c] {
				free = append(free, c)
			}
		}
		if len(free) == 0 {
			return
		}
		old := codes[s]
		codes[s] = free[t.rng.Intn(len(free))]
		t.undo = func() { codes[s] = old }
	case k < 12: // polish-style 3-cycle of codes
		p := t.rng.Perm(n)
		if n < 3 {
			return
		}
		x, y, z := p[0], p[1], p[2]
		codes[x], codes[y], codes[z] = codes[y], codes[z], codes[x]
		t.undo = func() { codes[x], codes[y], codes[z] = codes[z], codes[x], codes[y] }
	case k < 14: // k symbols redraw codes from the set of their old codes
		p := t.rng.Perm(n)[:2+t.rng.Intn(min(n-1, maxMoved+1))]
		var pool []hypercube.Code
		for _, s := range p {
			pool = append(pool, codes[s])
		}
		for _, s := range p {
			codes[s] = pool[t.rng.Intn(len(pool))]
		}
	case k < 16: // k symbols draw arbitrary codes, repeats allowed
		for i := 1 + t.rng.Intn(maxMoved+3); i > 0; i-- {
			codes[t.rng.Intn(n)] = hypercube.Code(t.rng.Intn(1 << uint(t.a.Bits)))
		}
	case k < 17: // a symbol joins or leaves the subset
		if s := t.rng.Intn(n); t.a.Subset.Has(s) {
			t.a.Subset.Remove(s)
		} else {
			t.a.Subset.Add(s)
		}
	case k < 18: // the code length changes; codes keep their low bits
		bits := max(1, t.a.Bits+t.rng.Intn(3)-1)
		if 1<<uint(bits) < n {
			return
		}
		t.a.Bits = bits
		for i := range codes {
			codes[i] &= 1<<uint(bits) - 1
		}
	case k < 19: // a code entry past the last symbol comes or goes
		if len(t.a.Codes) > n {
			t.a.Codes = t.a.Codes[:n]
		} else {
			t.a.Codes = append(t.a.Codes, 0)
		}
	default: // the same assignment again
	}
}

// TestIncrementalMatchesReference walks random trajectories over random
// face sets with encoding don't-cares and requires the incremental
// evaluator's Result, Hits and Misses to equal the full-pass reference's
// at every step. The walks cover anneal-style swaps and relocations with
// rejected moves undone, polish-style 3-cycles, partial and changing
// subsets, changing code lengths, codes wider than 7 bits and repeated
// codes, and moves of more symbols than the incremental check takes.
func TestIncrementalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	incremental := 0
	for trial := 0; trial < 120; trial++ {
		n := 3 + rng.Intn(12)
		cs := randomFaces(rng, n)
		bits := hypercube.MinBits(n) + rng.Intn(3)
		if trial%5 == 0 {
			bits = 8 + rng.Intn(2)
		}
		codes := make([]hypercube.Code, n)
		for i, c := range rng.Perm(1 << uint(bits))[:n] {
			codes[i] = hypercube.Code(c)
		}
		tr := &trajectory{rng: rng, n: n, a: FullAssignment(bits, codes)}
		if trial%3 == 0 {
			tr.a.Subset.Remove(rng.Intn(n))
		}
		ev, ref := NewEvaluator(cs), newRefEvaluator(cs)
		for step := 0; step < 150; step++ {
			if step > 0 {
				tr.move()
			}
			want := ref.Evaluate(tr.a)
			if ev.diff(tr.a) {
				incremental++
			}
			got := ev.Evaluate(tr.a)
			if got != want || ev.Hits != ref.Hits || ev.Misses != ref.Misses {
				t.Fatalf("trial %d step %d (n=%d, %d bits): got %+v with %d hits, %d misses; reference %+v with %d hits, %d misses",
					trial, step, n, tr.a.Bits, got, ev.Hits, ev.Misses, want, ref.Hits, ref.Misses)
			}
		}
	}
	if incremental < 10000 {
		t.Fatalf("only %d evaluations took the incremental path", incremental)
	}
}
