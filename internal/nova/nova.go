// Package nova is the Table-2 comparator: a constraint-oriented
// minimum-length input-constraint encoder standing in for NOVA (Villa &
// Sangiovanni-Vincentelli). Like NOVA's greedy hybrid algorithms it places
// symbols on the hypercube one at a time, steering by the face-embedding
// constraints, and polishes the assignment with pairwise-swap and
// move-to-free-code improvement passes over the violated-constraint count.
//
// # Contract
//
// Encode consumes a constraint set and honors only its face constraints
// (it is an input encoder; dominance/disjunctive constraints are ignored,
// which callers comparing against the exact engine must account for). The
// returned encoding always has exactly Options.Bits bits (default: the
// minimum ceil(log2 n)), assigns distinct codes to distinct symbols, and
// is best-effort on faces — callers needing the violation count evaluate
// it with internal/cost. Encode is deterministic and single-threaded: the
// same set and options always produce the identical encoding, which is
// what lets pipeline reports and paperbench tables regenerate
// byte-identically.
package nova

import (
	"sort"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/hypercube"
)

// Options configures the encoder.
type Options struct {
	// Bits fixes the code length; 0 means minimum length ceil(log2 n).
	Bits int
}

// passes bounds the improvement passes of the polish loop.
const passes = 6

// Encode produces a minimum-length (or fixed-length) encoding minimizing
// violated face constraints.
func Encode(cs *constraint.Set, opts Options) (*core.Encoding, error) {
	if err := cs.Validate(); err != nil {
		return nil, err
	}
	n := cs.N()
	bits := opts.Bits
	if bits == 0 {
		bits = hypercube.MinBits(n)
	}
	if n == 0 {
		return core.NewEncoding(cs.Syms, 0, nil), nil
	}
	limit := 1 << uint(bits)

	// Placement order: symbols in the most face constraints first, so the
	// hardest symbols get the freest choice.
	weight := make([]int, n)
	for _, f := range cs.Faces {
		f.Members.ForEach(func(s int) bool {
			weight[s] += 2
			return true
		})
		f.DontCare.ForEach(func(s int) bool {
			weight[s]++
			return true
		})
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return weight[order[i]] > weight[order[j]] })

	codes := make([]hypercube.Code, n)
	placedSet := make([]int, 0, n)
	used := make([]bool, limit)
	for _, s := range order {
		bestCode, bestScore := -1, 1<<30
		for c := 0; c < limit; c++ {
			if used[c] {
				continue
			}
			codes[s] = hypercube.Code(c)
			score := partialViolations(cs, bits, codes, append(placedSet, s))
			if score < bestScore {
				bestScore, bestCode = score, c
			}
		}
		codes[s] = hypercube.Code(bestCode)
		used[bestCode] = true
		placedSet = append(placedSet, s)
	}

	improve(cs, bits, codes, used)
	return core.NewEncoding(cs.Syms, bits, codes), nil
}

// partialViolations counts face constraints already violated by the placed
// symbols: the face spanned by the placed members must exclude placed
// non-members.
func partialViolations(cs *constraint.Set, bits int, codes []hypercube.Code, placed []int) int {
	placedMask := make(map[int]bool, len(placed))
	for _, s := range placed {
		placedMask[s] = true
	}
	violated := 0
	for _, f := range cs.Faces {
		var member []hypercube.Code
		f.Members.ForEach(func(s int) bool {
			if placedMask[s] {
				member = append(member, codes[s])
			}
			return true
		})
		if len(member) < 2 {
			continue
		}
		face := hypercube.Span(bits, member...)
		for _, s := range placed {
			if f.Members.Has(s) || f.DontCare.Has(s) {
				continue
			}
			if face.Contains(codes[s]) {
				violated++
				break
			}
		}
	}
	return violated
}

// improve runs pairwise-swap and move-to-free passes, accepting strict
// improvements of the violated-constraint count.
func improve(cs *constraint.Set, bits int, codes []hypercube.Code, used []bool) {
	n := cs.N()
	assign := func() cost.Assignment { return cost.FullAssignment(bits, codes) }
	best := cost.CountViolations(cs, assign())
	for p := 0; p < passes && best > 0; p++ {
		improved := false
		// Pairwise swaps.
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				codes[a], codes[b] = codes[b], codes[a]
				v := cost.CountViolations(cs, assign())
				if v < best {
					best = v
					improved = true
				} else {
					codes[a], codes[b] = codes[b], codes[a]
				}
			}
		}
		// Moves to free codes.
		for a := 0; a < n; a++ {
			for c := range used {
				if used[c] {
					continue
				}
				old := codes[a]
				codes[a] = hypercube.Code(c)
				v := cost.CountViolations(cs, assign())
				if v < best {
					best = v
					used[old] = false
					used[c] = true
					improved = true
				} else {
					codes[a] = old
				}
			}
		}
		if !improved {
			break
		}
	}
}
