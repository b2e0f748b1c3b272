package cost

import (
	"encoding/binary"

	"repro/internal/bitset"
	"repro/internal/constraint"
	"repro/internal/espresso"
)

// Evaluator memoizes per-constraint minimization results across repeated
// evaluations of similar assignments. The characteristic function F_I of a
// face constraint depends only on (code length, member codes, off codes,
// in sets); a pairwise code swap leaves most constraints' key unchanged, so
// annealing and swap-improvement loops hit the cache on all but the few
// constraints touching the swapped symbols.
type Evaluator struct {
	cs   *constraint.Set
	memo []map[faceKey]faceCost
	// Hits and Misses expose cache behavior for the ablation bench.
	Hits, Misses int
	// Scratch reused across faces and evaluations, so a cache hit on a
	// mask key allocates nothing.
	fn      charFunc
	members bitset.Set // face's members ∩ subset working set
	sorted  []uint64   // codeKey's buffers
	keyBuf  []byte
}

// faceKey identifies F_I up to the symbols behind its codes. Codes of at
// most espresso.MaxMintermVars bits that are all distinct key by the on,
// off and don't-care code sets as masks. Others key by the code lists
// sorted and serialized in codes, which count a repeated code as often as
// it occurs. With distinct codes both forms have the same classes.
type faceKey struct {
	bits  int
	sets  [3]espresso.Minterms
	codes string
}

type faceCost struct {
	cubes, literals int
	satisfied       bool
}

// NewEvaluator returns an evaluator for the given constraint set.
func NewEvaluator(cs *constraint.Set) *Evaluator {
	return &Evaluator{cs: cs, memo: make([]map[faceKey]faceCost, len(cs.Faces))}
}

// Evaluate computes the Section-7 metrics with memoization.
func (e *Evaluator) Evaluate(a Assignment) Result {
	var r Result
	for fi := range e.cs.Faces {
		fc := e.face(fi, a)
		if !fc.satisfied {
			r.Violations++
		}
		r.Cubes += fc.cubes
		r.Literals += fc.literals
	}
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

func (e *Evaluator) face(fi int, a Assignment) faceCost {
	f := e.cs.Faces[fi]
	// Fused intersect+popcount into a reusable set: the < 2 early-out is the
	// common case across faces, and it costs no allocation.
	if e.members.IntersectPopcountInto(f.Members, a.Subset) < 2 {
		return faceCost{satisfied: true}
	}
	e.fn.split(f, e.members, a)
	key, ok := e.fn.maskKey(a.Bits)
	if !ok {
		key.codes = e.codeKey(a.Bits)
	}
	if e.memo[fi] == nil {
		e.memo[fi] = make(map[faceKey]faceCost)
	}
	if fc, ok := e.memo[fi][key]; ok {
		e.Hits++
		return fc
	}
	e.Misses++
	g := espresso.MinimizeMinterms(a.Bits, e.fn.on, e.fn.off)
	fc := faceCost{
		cubes:     g.Size(),
		literals:  g.Literals(),
		satisfied: faceSatisfied(f, a),
	}
	e.memo[fi][key] = fc
	return fc
}

// maskKey returns fn's key as code-set masks, or false when a code is
// wider than espresso.MaxMintermVars bits or repeats.
func (fn *charFunc) maskKey(bits int) (faceKey, bool) {
	k := faceKey{bits: bits}
	if bits > espresso.MaxMintermVars {
		return k, false
	}
	var seen espresso.Minterms
	for i, codes := range [...][]uint64{fn.on, fn.off, fn.dc} {
		for _, c := range codes {
			if c>>uint(bits) != 0 || seen.Has(c) {
				return k, false
			}
			seen.Add(c)
			k.sets[i].Add(c)
		}
	}
	return k, true
}

// codeKey serializes e.fn's on, off and don't-care code lists, each
// sorted, so role-preserving permutations of symbols hit the same entry.
func (e *Evaluator) codeKey(bits int) string {
	buf := append(e.keyBuf[:0], byte(bits))
	for _, codes := range [...][]uint64{e.fn.on, e.fn.off, e.fn.dc} {
		e.sorted = append(e.sorted[:0], codes...)
		sortU64(e.sorted)
		buf = append(buf, 0xFF)
		for _, c := range e.sorted {
			buf = binary.LittleEndian.AppendUint64(buf, c)
		}
	}
	e.keyBuf = buf
	return string(buf)
}

func sortU64(xs []uint64) {
	// Insertion sort: groups are small (tens of codes).
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
