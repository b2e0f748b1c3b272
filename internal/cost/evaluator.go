package cost

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/constraint"
	"repro/internal/espresso"
	"repro/internal/hypercube"
)

// Evaluator memoizes per-constraint minimization results across repeated
// evaluations of similar assignments, and re-prices only the constraints
// a move changed. The characteristic function F_I of a face constraint
// depends only on the code length and the codes of its on, off and
// don't-care symbols, so a move that keeps each role's code multiset
// leaves F_I, its memo key and its cost as they were: annealing and
// swap-improvement loops price all but the few constraints touching the
// moved symbols from the last evaluation, and look the rest up in the memo.
type Evaluator struct {
	cs *constraint.Set
	// Each face's memo, by code-set masks and by sorted code lists.
	memo     []map[maskKey]faceCost
	codeMemo []map[string]faceCost
	// Hits and Misses expose cache behavior for the ablation bench. A
	// face the last evaluation priced and the move left unchanged counts
	// as a hit: the memo would have returned its cost under the same key.
	Hits, Misses int

	// The last assignment priced: its code length, subset and codes, the
	// faces with at least two members in the subset, and each face's cost.
	primed bool
	bits   int
	subset bitset.Set
	codes  []hypercube.Code
	active []int
	costs  []faceCost
	// Symbols of the subset whose code changed since the last evaluation.
	moved []int

	// Scratch reused across faces and evaluations, so a memo hit on a
	// mask key allocates nothing, and a miss only what the memo's growth
	// takes.
	fn      charFunc
	sorted  []uint64 // codeKey's buffers
	keyBuf  []byte
	scratch espresso.Scratch
}

// maxMoved is the most moved symbols an evaluation checks face by face;
// past it every face is re-keyed. The check costs each active face up to
// maxMoved² comparisons. An anneal or polish move, after the undo of a
// rejected one, changes one to six codes; a heuristic column swap can
// change most. Cutoffs from 8 to 64 priced a viterbi ENC run alike, and
// 2 and 4 were slower.
const maxMoved = 8

// maskKey is a face's memo key when its codes are of at most
// espresso.MaxMintermVars bits and all distinct: the on, off and
// don't-care code sets as masks. Other faces key by the code lists sorted
// and serialized (codeKey), which count a repeated code as often as it
// occurs. With distinct codes both forms have the same classes.
type maskKey struct {
	bits int
	sets [3]espresso.Minterms
}

type faceCost struct {
	cubes, literals int
	satisfied       bool
}

// NewEvaluator returns an evaluator for the given constraint set.
func NewEvaluator(cs *constraint.Set) *Evaluator {
	return &Evaluator{
		cs:       cs,
		memo:     make([]map[maskKey]faceCost, len(cs.Faces)),
		codeMemo: make([]map[string]faceCost, len(cs.Faces)),
		costs:    make([]faceCost, len(cs.Faces)),
	}
}

// Evaluate computes the Section-7 metrics with memoization. When the code
// length, the subset and the symbol count are those of the last call and
// at most maxMoved codes changed, only the faces in which the moved
// symbols' codes changed some role's multiset are re-keyed; the others
// keep their last cost.
func (e *Evaluator) Evaluate(a Assignment) Result {
	incremental := e.diff(a)
	if !incremental {
		e.active = e.active[:0]
		for fi, f := range e.cs.Faces {
			if bitset.IntersectLenUpTo(f.Members, a.Subset, 2) == 2 {
				e.active = append(e.active, fi)
			}
		}
	}
	var r Result
	for _, fi := range e.active {
		if incremental && e.unchanged(e.cs.Faces[fi], a) {
			e.Hits++
		} else {
			e.costs[fi] = e.price(fi, a)
		}
		fc := e.costs[fi]
		if !fc.satisfied {
			r.Violations++
		}
		r.Cubes += fc.cubes
		r.Literals += fc.literals
	}
	e.remember(a, incremental)
	return r
}

// Of evaluates a single metric with memoization. Violations takes a fast
// path: the metric only needs the allocation-free span/containment check
// (CountViolations), never the per-face espresso minimization the cube and
// literal metrics memoize, so it skips the cache machinery entirely.
func (e *Evaluator) Of(m Metric, a Assignment) int {
	if m == Violations {
		return CountViolations(e.cs, a)
	}
	r := e.Evaluate(a)
	switch m {
	case Cubes:
		return r.Cubes
	case Literals:
		return r.Literals
	default:
		panic("cost: unknown metric")
	}
}

// diff lists in e.moved the subset symbols whose code changed since the
// last evaluation, and reports whether few enough changed, over the same
// code length, subset and symbol count, to price a only where it moved.
func (e *Evaluator) diff(a Assignment) bool {
	if !e.primed || a.Bits != e.bits || len(a.Codes) != len(e.codes) || !a.Subset.Equal(e.subset) {
		return false
	}
	e.moved = e.moved[:0]
	for wi, wc := 0, a.Subset.WordCount(); wi < wc; wi++ {
		for w := a.Subset.Word(wi); w != 0; w &= w - 1 {
			s := wi*64 + bits.TrailingZeros64(w)
			if a.Codes[s] != e.codes[s] {
				if len(e.moved) == maxMoved {
					return false
				}
				e.moved = append(e.moved, s)
			}
		}
	}
	return true
}

// remember records a as the last assignment priced.
func (e *Evaluator) remember(a Assignment, incremental bool) {
	if incremental {
		for _, s := range e.moved {
			e.codes[s] = a.Codes[s]
		}
		return
	}
	e.primed, e.bits = true, a.Bits
	e.subset.CopyFrom(a.Subset)
	e.codes = append(e.codes[:0], a.Codes...)
}

// unchanged reports whether, in every role of face f, the moved symbols'
// old codes and their codes in a form the same multiset: then F_I, and so
// its memo key, is the one the last evaluation priced.
func (e *Evaluator) unchanged(f constraint.Face, a Assignment) bool {
	var roles [maxMoved]role
	for i, s := range e.moved {
		roles[i] = roleIn(f, s)
	}
	// Match each old code with an unmatched equal new code of the same
	// role; with equality as the match, greedy matching is exact.
	var matched uint64
	for i, s := range e.moved {
		old, found := e.codes[s], false
		for j, t := range e.moved {
			if matched>>uint(j)&1 == 0 && roles[j] == roles[i] && a.Codes[t] == old {
				matched |= 1 << uint(j)
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// price returns face fi's cost under a from the memo, minimizing F_I on a
// miss.
func (e *Evaluator) price(fi int, a Assignment) faceCost {
	f := e.cs.Faces[fi]
	e.fn.split(f, a)
	if key, ok := e.fn.maskKey(a.Bits); ok {
		if fc, ok := e.memo[fi][key]; ok {
			e.Hits++
			return fc
		}
		fc := e.miss(f, a)
		if e.memo[fi] == nil {
			e.memo[fi] = make(map[maskKey]faceCost)
		}
		e.memo[fi][key] = fc
		return fc
	}
	key := e.codeKey(a.Bits)
	if fc, ok := e.codeMemo[fi][string(key)]; ok {
		e.Hits++
		return fc
	}
	fc := e.miss(f, a)
	if e.codeMemo[fi] == nil {
		e.codeMemo[fi] = make(map[string]faceCost)
	}
	e.codeMemo[fi][string(key)] = fc
	return fc
}

// miss prices the F_I that e.fn holds for face f as a memo miss.
func (e *Evaluator) miss(f constraint.Face, a Assignment) faceCost {
	e.Misses++
	cubes, literals := e.scratch.Count(a.Bits, e.fn.codes[onRole], e.fn.codes[offRole])
	return faceCost{cubes: cubes, literals: literals, satisfied: faceSatisfied(f, a)}
}

// maskKey returns fn's key as code-set masks, or false when a code is
// wider than espresso.MaxMintermVars bits or repeats.
func (fn *charFunc) maskKey(bits int) (maskKey, bool) {
	k := maskKey{bits: bits}
	if bits > espresso.MaxMintermVars {
		return maskKey{}, false
	}
	var seen espresso.Minterms
	for r, codes := range fn.codes {
		for _, c := range codes {
			if c>>uint(bits) != 0 || seen.Has(c) {
				return maskKey{}, false
			}
			seen.Add(c)
			k.sets[r].Add(c)
		}
	}
	return k, true
}

// codeKey serializes e.fn's on, off and don't-care code lists, each
// sorted, so role-preserving permutations of symbols hit the same entry.
// The bytes live in e's buffer until the next call.
func (e *Evaluator) codeKey(bits int) []byte {
	buf := append(e.keyBuf[:0], byte(bits))
	for _, codes := range e.fn.codes {
		e.sorted = append(e.sorted[:0], codes...)
		sortU64(e.sorted)
		buf = append(buf, 0xFF)
		for _, c := range e.sorted {
			buf = binary.LittleEndian.AppendUint64(buf, c)
		}
	}
	e.keyBuf = buf
	return buf
}

func sortU64(xs []uint64) {
	// Insertion sort: groups are small (tens of codes).
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
