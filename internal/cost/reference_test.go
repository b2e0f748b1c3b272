package cost

import (
	"encoding/binary"

	"repro/internal/bitset"
	"repro/internal/constraint"
	"repro/internal/espresso"
)

// refEvaluator is the full-pass memoizing evaluator the incremental one
// must reproduce: every call splits every face with at least two members
// in the subset, builds its key and looks it up in the face's memo,
// minimizing F_I through espresso.MinimizeMinterms on a miss. Its Result,
// Hits and Misses define the Evaluator's.
type refEvaluator struct {
	cs           *constraint.Set
	memo         []map[refKey]faceCost
	Hits, Misses int
	on, off, dc  []uint64
	members      bitset.Set
	sorted       []uint64
	keyBuf       []byte
}

// refKey keys by code-set masks when the codes are narrow enough and
// distinct, else by the sorted code lists serialized in codes.
type refKey struct {
	bits  int
	sets  [3]espresso.Minterms
	codes string
}

func newRefEvaluator(cs *constraint.Set) *refEvaluator {
	return &refEvaluator{cs: cs, memo: make([]map[refKey]faceCost, len(cs.Faces))}
}

func (e *refEvaluator) Evaluate(a Assignment) Result {
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

func (e *refEvaluator) face(fi int, a Assignment) faceCost {
	f := e.cs.Faces[fi]
	if e.members.IntersectPopcountInto(f.Members, a.Subset) < 2 {
		return faceCost{satisfied: true}
	}
	e.split(f, a)
	key, ok := e.maskKey(a.Bits)
	if !ok {
		key.codes = e.codeKey(a.Bits)
	}
	if e.memo[fi] == nil {
		e.memo[fi] = make(map[refKey]faceCost)
	}
	if fc, ok := e.memo[fi][key]; ok {
		e.Hits++
		return fc
	}
	e.Misses++
	g := espresso.MinimizeMinterms(a.Bits, e.on, e.off)
	fc := faceCost{cubes: g.Size(), literals: g.Literals(), satisfied: faceSatisfied(f, a)}
	e.memo[fi][key] = fc
	return fc
}

// split lists the subset's codes by role in face f, each list in subset
// order.
func (e *refEvaluator) split(f constraint.Face, a Assignment) {
	e.on, e.off, e.dc = e.on[:0], e.off[:0], e.dc[:0]
	a.Subset.ForEach(func(s int) bool {
		switch c := a.Codes[s]; {
		case e.members.Has(s):
			e.on = append(e.on, c)
		case f.DontCare.Has(s):
			e.dc = append(e.dc, c)
		default:
			e.off = append(e.off, c)
		}
		return true
	})
}

// maskKey returns the code-set masks, or false with no masks set when a
// code is too wide or repeats: the code-list key then stands alone, so a
// role-preserving permutation keeps it even with repeated codes.
func (e *refEvaluator) maskKey(bits int) (refKey, bool) {
	k := refKey{bits: bits}
	if bits > espresso.MaxMintermVars {
		return k, false
	}
	var seen espresso.Minterms
	for i, codes := range [...][]uint64{e.on, e.off, e.dc} {
		for _, c := range codes {
			if c>>uint(bits) != 0 || seen.Has(c) {
				return refKey{bits: bits}, false
			}
			seen.Add(c)
			k.sets[i].Add(c)
		}
	}
	return k, true
}

func (e *refEvaluator) codeKey(bits int) string {
	buf := append(e.keyBuf[:0], byte(bits))
	for _, codes := range [...][]uint64{e.on, e.off, e.dc} {
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
