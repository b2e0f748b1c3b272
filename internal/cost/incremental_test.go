package cost

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/constraint"
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
		p := t.rng.Perm(n)[:2+t.rng.Intn(min(n-1, 9))]
		var pool []hypercube.Code
		for _, s := range p {
			pool = append(pool, codes[s])
		}
		for _, s := range p {
			codes[s] = pool[t.rng.Intn(len(pool))]
		}
	case k < 16: // k symbols draw arbitrary codes, repeats allowed
		for i := 1 + t.rng.Intn(11); i > 0; i-- {
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

// stepMatches evaluates a with ev and ref and fails unless Result, Hits and
// Misses agree. It reports whether the evaluation was incremental, whether
// the last one keyed by masks, and how many symbols moved.
func stepMatches(t *testing.T, ev *Evaluator, ref *refEvaluator, a Assignment, where string) (incremental, wasMasked bool, moved int) {
	t.Helper()
	want := ref.Evaluate(a)
	incremental, wasMasked = ev.diff(a), ev.masked
	moved = len(ev.moved)
	got := ev.Evaluate(a)
	if got != want || ev.Hits != ref.Hits || ev.Misses != ref.Misses {
		t.Fatalf("%s (%d bits, %d moved): got %+v with %d hits, %d misses; reference %+v with %d hits, %d misses",
			where, a.Bits, moved, got, ev.Hits, ev.Misses, want, ref.Hits, ref.Misses)
	}
	return incremental, wasMasked, moved
}

// localMove swaps the codes of two subset symbols of a, or moves one to a
// code of a.Bits bits that no subset symbol holds, as the annealer does.
func localMove(rng *rand.Rand, a Assignment) {
	syms := a.Subset.Elems()
	x, y := syms[rng.Intn(len(syms))], syms[rng.Intn(len(syms))]
	if rng.Intn(2) == 0 {
		a.Codes[x], a.Codes[y] = a.Codes[y], a.Codes[x]
		return
	}
	used := map[hypercube.Code]bool{}
	for _, s := range syms {
		used[a.Codes[s]] = true
	}
	for c := hypercube.Code(rng.Intn(1 << uint(a.Bits))); ; c = (c + 1) % (1 << uint(a.Bits)) {
		if !used[c] {
			a.Codes[x] = c
			return
		}
		if len(used) >= 1<<uint(a.Bits) {
			return
		}
	}
}

// TestIncrementalMatchesReference walks random trajectories over random
// face sets with encoding don't-cares and requires the incremental
// evaluator's Result, Hits and Misses to equal the full-pass reference's
// at every step. The walks cover anneal-style swaps and relocations with
// rejected moves undone, polish-style 3-cycles, partial and changing
// subsets, changing code lengths, codes wider than 7 bits and repeated
// codes, and redraws of up to 11 symbols' codes. Two more kinds of walk
// follow: one evaluator leaves the mask path and re-enters it (a repeated
// code, a code wider than the length, an 8-bit length, then back), and
// selection-style walks over a fixed subset swap, flip and redraw whole
// code columns, moving more than 8 symbols at a time.
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

	// Leave the mask path and re-enter it on one evaluator.
	reentered := 0
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(12)
		cs := randomFaces(rng, n)
		bits := hypercube.MinBits(n) + 1
		codes := make([]hypercube.Code, n)
		for i, c := range rng.Perm(1 << uint(bits))[:n] {
			codes[i] = hypercube.Code(c)
		}
		a := FullAssignment(bits, codes)
		if trial%2 == 0 {
			a.Subset.Remove(rng.Intn(n))
		}
		syms := a.Subset.Elems()
		ev, ref := NewEvaluator(cs), newRefEvaluator(cs)
		phase := func(name string, change func()) {
			change()
			for step := 0; step < 12; step++ {
				if step > 0 {
					localMove(rng, a)
				}
				incremental, wasMasked, _ := stepMatches(t, ev, ref, a, fmt.Sprintf("trial %d, %s, step %d", trial, name, step))
				if incremental && !wasMasked && ev.masked {
					reentered++
				}
			}
		}
		// distinct clears the codes' bits past the length and moves each
		// repeat to a code no subset symbol holds.
		distinct := func() {
			held := map[hypercube.Code]bool{}
			for _, s := range syms {
				a.Codes[s] &= 1<<uint(a.Bits) - 1
				held[a.Codes[s]] = true
			}
			seen := map[hypercube.Code]bool{}
			for _, s := range syms {
				if seen[a.Codes[s]] {
					for held[a.Codes[s]] {
						a.Codes[s] = (a.Codes[s] + 1) % (1 << uint(a.Bits))
					}
					held[a.Codes[s]] = true
				}
				seen[a.Codes[s]] = true
			}
		}
		x, y := syms[0], syms[len(syms)-1]
		phase("distinct codes", func() {})
		phase("a repeated code", func() { a.Codes[x] = a.Codes[y] })
		phase("distinct again", distinct)
		phase("a code wider than the length", func() { a.Codes[x] |= 1 << uint(a.Bits) })
		phase("narrow again", distinct)
		phase("8-bit codes", func() {
			a.Bits = 8
			for i := range codes {
				codes[i] |= 0x80
			}
		})
		phase("back to the short length", func() {
			a.Bits = bits
			for i := range codes {
				codes[i] &= 1<<uint(bits) - 1
			}
		})
	}
	if reentered < 2*40 {
		t.Fatalf("the mask path was re-entered incrementally only %d times", reentered)
	}

	// Selection-style walks: codes are columns over a fixed subset, and a
	// move swaps two columns, flips one, redraws one (which may repeat
	// codes) or returns to the last codes that were distinct.
	wide := 0
	for trial := 0; trial < 40; trial++ {
		n := 16 + rng.Intn(24)
		cs := randomFaces(rng, n)
		bits := hypercube.MinBits(n) + rng.Intn(8-hypercube.MinBits(n))
		codes := make([]hypercube.Code, n)
		for i, c := range rng.Perm(1 << uint(bits))[:n] {
			codes[i] = hypercube.Code(c)
		}
		a := FullAssignment(bits, codes)
		for i := rng.Intn(4); i > 0; i-- {
			a.Subset.Remove(rng.Intn(n))
		}
		ev, ref := NewEvaluator(cs), newRefEvaluator(cs)
		distinct := append([]hypercube.Code(nil), codes...)
		for step := 0; step < 60; step++ {
			if _, ok := maskable(a); ok {
				copy(distinct, codes)
			}
			i, j := rng.Intn(bits), rng.Intn(bits)
			switch k := rng.Intn(8); {
			case step == 0:
			case k == 7:
				copy(codes, distinct)
			case k < 4: // swap columns i and j
				for s, c := range codes {
					bi, bj := c>>uint(i)&1, c>>uint(j)&1
					codes[s] = c&^(1<<uint(i)|1<<uint(j)) | bi<<uint(j) | bj<<uint(i)
				}
			case k < 6: // flip column i
				for s := range codes {
					codes[s] ^= 1 << uint(i)
				}
			default: // redraw column i
				for s := range codes {
					codes[s] = codes[s]&^(1<<uint(i)) | hypercube.Code(rng.Intn(2))<<uint(i)
				}
			}
			incremental, wasMasked, moved := stepMatches(t, ev, ref, a, fmt.Sprintf("selection trial %d step %d", trial, step))
			if incremental && wasMasked && ev.masked && moved > 8 {
				wide++
			}
		}
	}
	if wide < 500 {
		t.Fatalf("only %d mask-path evaluations moved more than 8 symbols", wide)
	}
}

// TestMemoTableGrows walks one evaluator through swaps and relocations of
// 7-bit codes over 24 faces until its mask table holds more than 10,000
// entries, which doubles its index ten times, from 32 slots to 32,768. At
// every step its Result, Hits and Misses equal the reference's, and every
// miss files one entry; at the end the filled index slots number the
// entries and each points at a distinct one.
func TestMemoTableGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n, bits = 16, 7
	spec := "symbols"
	for s := 0; s < n; s++ {
		spec += fmt.Sprintf(" s%d", s)
	}
	spec += "\n"
	for f := 0; f < 24; f++ {
		perm := rng.Perm(n)
		spec += "face"
		for _, s := range perm[:2+rng.Intn(5)] {
			spec += fmt.Sprintf(" s%d", s)
		}
		if f%4 == 0 {
			spec += fmt.Sprintf(" [ s%d ]", perm[n-1])
		}
		spec += "\n"
	}
	cs := constraint.MustParse(spec)
	codes := make([]hypercube.Code, n)
	for i, c := range rng.Perm(1 << bits)[:n] {
		codes[i] = hypercube.Code(c)
	}
	a := FullAssignment(bits, codes)
	ev, ref := NewEvaluator(cs), newRefEvaluator(cs)
	sizes := map[int]bool{}
	for step := 0; len(ev.memo.entries) <= 10_000; step++ {
		if step == 5_000 {
			t.Fatalf("%d entries after %d steps", len(ev.memo.entries), step)
		}
		if step > 0 {
			localMove(rng, a)
		}
		stepMatches(t, ev, ref, a, fmt.Sprintf("step %d", step))
		if len(ev.memo.entries) != ev.Misses {
			t.Fatalf("step %d: %d entries after %d misses", step, len(ev.memo.entries), ev.Misses)
		}
		sizes[len(ev.memo.index)] = true
	}
	seen := map[uint32]bool{}
	for _, x := range ev.memo.index {
		if x != 0 {
			seen[uint32(x)] = true
		}
	}
	if len(seen) != len(ev.memo.entries) || len(sizes) != 10 || len(ev.memo.index) != 1<<15 {
		t.Fatalf("index files %d distinct entries of %d; %d index sizes, the last %d slots",
			len(seen), len(ev.memo.entries), len(sizes), len(ev.memo.index))
	}
}
