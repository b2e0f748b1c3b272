package cost

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"repro/internal/bitset"
	"repro/internal/constraint"
	"repro/internal/espresso"
	"repro/internal/hypercube"
)

// Evaluator memoizes per-constraint minimization results across repeated
// evaluations of similar assignments, and re-keys only the constraints a
// move touched. The characteristic function F_I of a face constraint
// depends only on the code length and the codes of its on, off and
// don't-care symbols, so a face whose key a move kept reuses its last
// cost, which is the entry the memo would return: costs and hit and miss
// counts equal a full pass at every step.
//
// The first call, and any call whose code length, subset or symbol count
// differs from the last one's, runs the full pass: it lists the faces with
// at least two members in the subset (the active faces), indexes them
// under each subset symbol they hold as a member or as an encoding
// don't-care, and keys every one. A later call lists the symbols whose
// code changed. Only the faces indexed under them can change their on- or
// don't-care sets; every other face holds all moved symbols in its
// off-set, which changes only when the moved codes change as a multiset,
// as in a relocation to an unused code, and never in a swap or a cycle of
// codes.
//
// When the subset's codes are distinct and of at most
// espresso.MaxMintermVars bits, as in every encoding the encoders score, a
// face's key is its on, off and don't-care code sets as masks, which the
// evaluator keeps: a move takes the moved symbols' old codes out of the
// faces indexed under them and puts the new ones in, and a face's off-set
// is the codes the subset holds minus its on- and don't-care sets. A miss
// lists only the face's member codes, in symbol order, and hands the
// minimizer the off-set mask; its cost goes into the mask table (memo),
// one for every face. Other assignments key by the code lists, sorted and
// serialized (codeKey), in a map per face, and re-split the subset for
// each face they re-key.
type Evaluator struct {
	cs *constraint.Set
	// The memo: one table of every face's costs by code-set masks, and
	// each face's map by sorted code lists.
	memo     memoTable
	codeMemo []map[string]faceCost
	// Hits and Misses expose cache behavior for the ablation bench. A
	// face whose key a move kept counts as a hit: the memo would have
	// returned its cost under the same key.
	Hits, Misses int

	// The last assignment priced: its code length, subset and codes, the
	// active faces, each face's state and the sum of the active faces'
	// costs.
	primed bool
	bits   int
	subset bitset.Set
	codes  []hypercube.Code
	active []int
	faces  []faceState
	total  Result
	// faceList[faceStart[s]:faceStart[s+1]] lists the active faces that
	// hold subset symbol s as a member, as fi<<1, or as an encoding
	// don't-care only, as fi<<1 | 1.
	faceStart []int32
	faceList  []int32
	// Symbols of the subset whose code changed since the last evaluation,
	// and the distinct faces indexed under them.
	moved   []int
	touched []int

	// masked reports whether the last assignment's codes were distinct
	// and narrow enough to key by masks; used then holds them.
	masked bool
	used   espresso.Minterms

	// Scratch reused across faces and evaluations, so a memo hit
	// allocates nothing, and a miss only what the memo's growth takes.
	onList  []uint64
	fn      charFunc
	sorted  []uint64 // codeKey's and the multiset test's buffers
	sorted2 []uint64
	keyBuf  []byte
	scratch espresso.Scratch
}

// faceState is what the evaluator keeps of one face: its last cost and,
// while the assignments key by masks, its on- and don't-care code sets
// and the key it was last priced under.
type faceState struct {
	cost    faceCost
	on, dc  espresso.Minterms
	key     maskKey
	touched bool
}

type faceCost struct {
	cubes, literals int
	satisfied       bool
}

// NewEvaluator returns an evaluator for the given constraint set. Its
// tables are made when first needed, so an evaluator that only counts
// violations allocates none.
func NewEvaluator(cs *constraint.Set) *Evaluator {
	return &Evaluator{cs: cs}
}

// Evaluate computes the Section-7 metrics with memoization, re-keying only
// the faces the move since the last call touched (see Evaluator).
func (e *Evaluator) Evaluate(a Assignment) Result {
	if e.diff(a) {
		e.update(a)
	} else {
		e.rebuild(a)
	}
	return e.total
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
// last evaluation, and reports whether a has the last evaluation's code
// length, subset and symbol count, so that it can be priced where it
// moved.
func (e *Evaluator) diff(a Assignment) bool {
	if !e.primed || a.Bits != e.bits || len(a.Codes) != len(e.codes) || !a.Subset.Equal(e.subset) {
		return false
	}
	e.moved = e.moved[:0]
	for wi, wc := 0, a.Subset.WordCount(); wi < wc; wi++ {
		for w := a.Subset.Word(wi); w != 0; w &= w - 1 {
			if s := wi*64 + bits.TrailingZeros64(w); a.Codes[s] != e.codes[s] {
				e.moved = append(e.moved, s)
			}
		}
	}
	return true
}

// rebuild is the full pass: it records a, lists and indexes the active
// faces and keys every one.
func (e *Evaluator) rebuild(a Assignment) {
	if !e.primed {
		e.faces = make([]faceState, len(e.cs.Faces))
	}
	e.primed, e.bits = true, a.Bits
	e.subset.CopyFrom(a.Subset)
	e.codes = append(e.codes[:0], a.Codes...)
	e.active = e.active[:0]
	for fi, f := range e.cs.Faces {
		if bitset.IntersectLenUpTo(f.Members, a.Subset, 2) == 2 {
			e.active = append(e.active, fi)
		}
	}
	e.index(a)
	e.total = Result{}
	for _, fi := range e.active {
		e.faces[fi].cost = faceCost{satisfied: true}
	}
	e.rekeyAll(a)
}

// index files each active face under the subset symbols it holds as a
// member or as an encoding don't-care: a first pass counts each symbol's
// faces, and a second, walking the faces backwards, fills each symbol's
// run from its end, which leaves faceStart at the runs' starts.
func (e *Evaluator) index(a Assignment) {
	e.faceStart = slices.Grow(e.faceStart[:0], len(a.Codes)+1)[:len(a.Codes)+1]
	clear(e.faceStart)
	each := func(file func(s int, x int32)) {
		for i := len(e.active) - 1; i >= 0; i-- {
			fi := e.active[i]
			f := e.cs.Faces[fi]
			for wi, wc := 0, a.Subset.WordCount(); wi < wc; wi++ {
				sub, m := a.Subset.Word(wi), word(f.Members, wi)
				for w := m & sub; w != 0; w &= w - 1 {
					file(wi*64+bits.TrailingZeros64(w), int32(fi)<<1)
				}
				for w := word(f.DontCare, wi) & sub &^ m; w != 0; w &= w - 1 {
					file(wi*64+bits.TrailingZeros64(w), int32(fi)<<1|1)
				}
			}
		}
	}
	each(func(s int, _ int32) { e.faceStart[s]++ })
	for s := 1; s < len(e.faceStart); s++ {
		e.faceStart[s] += e.faceStart[s-1]
	}
	total := int(e.faceStart[len(e.faceStart)-1])
	e.faceList = slices.Grow(e.faceList[:0], total)[:total]
	each(func(s int, x int32) {
		e.faceStart[s]--
		e.faceList[e.faceStart[s]] = x
	})
}

// facesOf returns the active faces filed under subset symbol s.
func (e *Evaluator) facesOf(s int) []int32 {
	return e.faceList[e.faceStart[s]:e.faceStart[s+1]]
}

// rekeyAll keys every active face afresh, by masks when a's codes allow.
func (e *Evaluator) rekeyAll(a Assignment) {
	e.used, e.masked = maskable(a)
	for _, fi := range e.active {
		if e.masked {
			fs := &e.faces[fi]
			fs.on, fs.dc = e.roleMasks(e.cs.Faces[fi], a)
			fs.key.bits = -1 // no key to keep: look the face up
		}
		e.price(fi, a)
	}
}

// update re-prices a after a move of the symbols in e.moved, if any.
func (e *Evaluator) update(a Assignment) {
	relocated, masked := e.relocation(a)
	if masked && !e.masked {
		// The codes were repeated or too wide and no longer are.
		e.rekeyAll(a)
	} else {
		if masked {
			// Old codes out, then new codes in: a swap between two
			// members of one face must leave both codes in its on-set.
			for _, s := range e.moved {
				c := e.codes[s]
				for _, x := range e.facesOf(s) {
					if fs := &e.faces[x>>1]; x&1 == 0 {
						fs.on.Remove(c)
					} else {
						fs.dc.Remove(c)
					}
				}
			}
			for _, s := range e.moved {
				c := a.Codes[s]
				for _, x := range e.facesOf(s) {
					if fs := &e.faces[x>>1]; x&1 == 0 {
						fs.on.Add(c)
					} else {
						fs.dc.Add(c)
					}
				}
			}
		}
		e.masked = masked
		faces := e.active
		if !relocated {
			e.touch()
			faces = e.touched
		}
		for _, fi := range faces {
			e.price(fi, a)
		}
	}
	for _, s := range e.moved {
		e.codes[s] = a.Codes[s]
	}
}

// relocation reports whether the moved symbols' codes changed as a
// multiset, and whether a's codes key by masks. When both the last
// assignment's codes and a's do, it moves e.used to a's.
func (e *Evaluator) relocation(a Assignment) (relocated, masked bool) {
	if e.masked {
		var was, now espresso.Minterms
		for _, s := range e.moved {
			was.Add(e.codes[s])
			c := a.Codes[s]
			if c>>uint(a.Bits) != 0 || now.Has(c) {
				return true, false
			}
			now.Add(c)
		}
		if was == now {
			return false, true
		}
		rest := espresso.Minterms{e.used[0] &^ was[0], e.used[1] &^ was[1]}
		if rest[0]&now[0]|rest[1]&now[1] != 0 {
			return true, false
		}
		e.used = espresso.Minterms{rest[0] | now[0], rest[1] | now[1]}
		return true, true
	}
	e.sorted, e.sorted2 = e.sorted[:0], e.sorted2[:0]
	for _, s := range e.moved {
		e.sorted = append(e.sorted, e.codes[s])
		e.sorted2 = append(e.sorted2, a.Codes[s])
	}
	sortU64(e.sorted)
	sortU64(e.sorted2)
	if slices.Equal(e.sorted, e.sorted2) {
		// The subset holds the same codes as before, so they still
		// repeat or are too wide.
		return false, false
	}
	_, masked = maskable(a)
	return true, masked
}

// touch lists in e.touched the distinct faces indexed under the moved
// symbols and counts every other active face, whose key the move kept, as
// a hit.
func (e *Evaluator) touch() {
	e.touched = e.touched[:0]
	for _, s := range e.moved {
		for _, x := range e.facesOf(s) {
			if fs := &e.faces[x>>1]; !fs.touched {
				fs.touched = true
				e.touched = append(e.touched, int(x>>1))
			}
		}
	}
	for _, fi := range e.touched {
		e.faces[fi].touched = false
	}
	e.Hits += len(e.active) - len(e.touched)
}

// maskable returns the codes a's subset holds as a mask, and whether they
// are distinct and of at most espresso.MaxMintermVars bits.
func maskable(a Assignment) (used espresso.Minterms, ok bool) {
	if a.Bits > espresso.MaxMintermVars {
		return used, false
	}
	for wi, wc := 0, a.Subset.WordCount(); wi < wc; wi++ {
		for w := a.Subset.Word(wi); w != 0; w &= w - 1 {
			c := a.Codes[wi*64+bits.TrailingZeros64(w)]
			if c>>uint(a.Bits) != 0 || used.Has(c) {
				return used, false
			}
			used.Add(c)
		}
	}
	return used, true
}

// roleMasks returns the codes of face f's members and of its encoding
// don't-cares in a's subset.
func (e *Evaluator) roleMasks(f constraint.Face, a Assignment) (on, dc espresso.Minterms) {
	for wi, wc := 0, a.Subset.WordCount(); wi < wc; wi++ {
		sub, m := a.Subset.Word(wi), word(f.Members, wi)
		for w := m & sub; w != 0; w &= w - 1 {
			on.Add(a.Codes[wi*64+bits.TrailingZeros64(w)])
		}
		for w := word(f.DontCare, wi) & sub &^ m; w != 0; w &= w - 1 {
			dc.Add(a.Codes[wi*64+bits.TrailingZeros64(w)])
		}
	}
	return on, dc
}

// price sets face fi's cost under a, keyed by masks or by code lists as
// e.masked says.
func (e *Evaluator) price(fi int, a Assignment) {
	if e.masked {
		e.priceMasked(fi, a)
	} else {
		e.priceCodes(fi, a)
	}
}

// priceMasked keys face fi by its role masks, the off-set being the
// subset's other codes, and sets its cost: the last one when the key is
// the one it was last priced under, else the memo's, minimizing F_I on a
// miss.
func (e *Evaluator) priceMasked(fi int, a Assignment) {
	fs := &e.faces[fi]
	off := espresso.Minterms{e.used[0] &^ (fs.on[0] | fs.dc[0]), e.used[1] &^ (fs.on[1] | fs.dc[1])}
	key := newMaskKey(a.Bits, fs.on, off, fs.dc)
	if key == fs.key {
		e.Hits++
		return
	}
	fs.key = key
	fc, ok := e.memo.get(fi, &key)
	if ok {
		e.Hits++
	} else {
		f := e.cs.Faces[fi]
		e.onList = e.onList[:0]
		for wi, wc := 0, min(f.Members.WordCount(), a.Subset.WordCount()); wi < wc; wi++ {
			for w := f.Members.Word(wi) & a.Subset.Word(wi); w != 0; w &= w - 1 {
				e.onList = append(e.onList, a.Codes[wi*64+bits.TrailingZeros64(w)])
			}
		}
		cubes, literals := e.scratch.CountMasked(a.Bits, e.onList, off)
		fc = e.miss(f, a, cubes, literals)
		e.memo.put(fi, &key, fc)
	}
	e.set(fi, fc)
}

// priceCodes splits the subset by its roles in face fi, keys the face by
// the sorted code lists and sets its cost from the memo, minimizing F_I on
// a miss.
func (e *Evaluator) priceCodes(fi int, a Assignment) {
	f := e.cs.Faces[fi]
	e.fn.split(f, a)
	key := e.codeKey(a.Bits)
	if e.codeMemo == nil {
		e.codeMemo = make([]map[string]faceCost, len(e.cs.Faces))
	}
	fc, ok := e.codeMemo[fi][string(key)]
	if ok {
		e.Hits++
	} else {
		cubes, literals := e.scratch.Count(a.Bits, e.fn.codes[onRole], e.fn.codes[offRole])
		fc = e.miss(f, a, cubes, literals)
		if e.codeMemo[fi] == nil {
			e.codeMemo[fi] = make(map[string]faceCost)
		}
		e.codeMemo[fi][string(key)] = fc
	}
	e.set(fi, fc)
}

// miss counts a memo miss on face f and returns its cost from the
// minimizer's counts.
func (e *Evaluator) miss(f constraint.Face, a Assignment, cubes, literals int) faceCost {
	e.Misses++
	return faceCost{cubes: cubes, literals: literals, satisfied: faceSatisfied(f, a)}
}

// set records fc as face fi's cost and moves the total by the difference.
func (e *Evaluator) set(fi int, fc faceCost) {
	old := &e.faces[fi].cost
	e.total.Cubes += fc.cubes - old.cubes
	e.total.Literals += fc.literals - old.literals
	if !old.satisfied {
		e.total.Violations--
	}
	if !fc.satisfied {
		e.total.Violations++
	}
	*old = fc
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

// word returns word i of s, zero past its end.
func word(s bitset.Set, i int) uint64 {
	if i < s.WordCount() {
		return s.Word(i)
	}
	return 0
}

func sortU64(xs []uint64) {
	// Insertion sort: groups are small (tens of codes).
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
