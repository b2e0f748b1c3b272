package cost

import (
	"math/bits"

	"repro/internal/espresso"
)

// maskKey is a face's memo key when the subset's codes are of at most
// espresso.MaxMintermVars bits and all distinct: the code length and the
// on, off and don't-care code sets. Distinct codes make the three sets
// disjoint, so two masks hold them exactly: sets[0] = on ∪ off and
// sets[1] = off ∪ dc give on = sets[0] ∖ sets[1], off = sets[0] ∩ sets[1]
// and dc = sets[1] ∖ sets[0]. Other assignments key by the code lists
// sorted and serialized (codeKey), which count a repeated code as often as
// it occurs. With distinct codes both forms have the same classes.
type maskKey struct {
	sets [2]espresso.Minterms
	bits int
}

// newMaskKey returns the key of the disjoint code sets on, off and dc at
// the given code length.
func newMaskKey(bits int, on, off, dc espresso.Minterms) maskKey {
	return maskKey{bits: bits, sets: [2]espresso.Minterms{
		{on[0] | off[0], on[1] | off[1]},
		{off[0] | dc[0], off[1] | dc[1]},
	}}
}

// memoTable is the Evaluator's memo of mask-keyed face costs: one
// open-addressing hash table over every face. The entries lie in one
// slice in insertion order, each holding its face, key and cost inline,
// so an entry costs no allocation of its own. The index, probed linearly
// and at most half full, holds each entry's hash tag and position in one
// word: a probe compares whole keys only on a tag match, and a doubling
// re-files the index from its tags without touching the entries. Entries
// are never removed.
type memoTable struct {
	index   []uint64 // tag<<32 | position+1, 0 in an empty slot
	entries []memoEntry
	// The empty slot and tag of the key the last get missed, for the put
	// that follows it.
	slot int
	tag  uint64
}

// memoEntry is face fi's cost under a key. A mask key spans at most 128
// codes, so its cover has at most 128 cubes of at most 7 literals each,
// and both counts fit 16 bits.
type memoEntry struct {
	sets            [2]espresso.Minterms
	face            int32
	bits            int8
	satisfied       bool
	cubes, literals uint16
}

// tagOf returns the 32-bit hash of face fi's key k. Its low bits pick
// the key's home slot in the index, so the index re-files from tags alone.
func tagOf(fi int, k *maskKey) uint64 {
	s := &k.sets
	return mix(mix(s[0][0], s[0][1])^uint64(fi)<<8^uint64(k.bits), mix(s[1][0], s[1][1])) >> 32
}

// mix folds two words into one by a 128-bit multiply.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a^0xa0761d6478bd642f, b^0xe7037ed1a0b428db)
	return hi ^ lo
}

// get returns face fi's cost under key k, if the table holds it. When it
// does not, the table keeps the slot k's probe ended on for the put that
// follows.
func (t *memoTable) get(fi int, k *maskKey) (faceCost, bool) {
	if t.index == nil {
		t.index = make([]uint64, 32)
	}
	t.tag = tagOf(fi, k)
	mask := uint64(len(t.index) - 1)
	for i := t.tag & mask; ; i = (i + 1) & mask {
		x := t.index[i]
		if x == 0 {
			t.slot = int(i)
			return faceCost{}, false
		}
		if x>>32 != t.tag {
			continue
		}
		if e := &t.entries[uint32(x)-1]; int(e.face) == fi && int(e.bits) == k.bits && e.sets == k.sets {
			return faceCost{cubes: int(e.cubes), literals: int(e.literals), satisfied: e.satisfied}, true
		}
	}
}

// put records fc as face fi's cost under key k, which the get just before
// it missed, and doubles the index once it is more than half full.
func (t *memoTable) put(fi int, k *maskKey, fc faceCost) {
	if len(t.entries) == cap(t.entries) {
		grown := make([]memoEntry, len(t.entries), max(16, 2*len(t.entries)))
		copy(grown, t.entries)
		t.entries = grown
	}
	t.entries = append(t.entries, memoEntry{
		sets: k.sets, face: int32(fi), bits: int8(k.bits), satisfied: fc.satisfied,
		cubes: uint16(fc.cubes), literals: uint16(fc.literals),
	})
	t.index[t.slot] = t.tag<<32 | uint64(len(t.entries))
	if 2*len(t.entries) > len(t.index) {
		old := t.index
		t.index = make([]uint64, 2*len(old))
		mask := uint64(len(t.index) - 1)
		for _, x := range old {
			if x == 0 {
				continue
			}
			i := x >> 32 & mask
			for t.index[i] != 0 {
				i = (i + 1) & mask
			}
			t.index[i] = x
		}
	}
}
