package bitset

// 128-bit content hashing over bitset words. These are the primitives
// behind core.CanonicalHashSet's constraint-set hash and the seed
// deduplication in internal/dichotomy: two independent 64-bit streams (a
// SplitMix chain and an FNV-style accumulator) folded word by word, which
// makes a collision require agreement in both streams (~2^64 distinct
// inputs before one becomes likely).

// Mix64 is the SplitMix64 finalizer: a cheap full-avalanche 64-bit mixer.
func Mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// MixWord folds one 64-bit value into the running 128-bit state.
func MixWord(h1, h2, v uint64) (uint64, uint64) {
	m := Mix64(v + 0x9e3779b97f4a7c15)
	return Mix64(h1 ^ m), h2*0x100000001b3 + m
}

// HashWords folds s's words into the running 128-bit state (h1, h2).
// Trailing zero words are skipped so padded and unpadded representations of
// the same set hash identically; the effective word count (the universe
// signature) is folded in afterwards so sets whose words merely shift
// position cannot collide trivially.
func HashWords(h1, h2 uint64, s Set) (uint64, uint64) {
	end := s.WordCount()
	for end > 0 && s.Word(end-1) == 0 {
		end--
	}
	for i := 0; i < end; i++ {
		m := Mix64(s.Word(i) + 0x9e3779b97f4a7c15*uint64(i+1))
		h1 = Mix64(h1 ^ m)
		h2 = h2*0x100000001b3 + m
	}
	h1 = Mix64(h1 ^ uint64(end))
	h2 = Mix64(h2 + uint64(end)*0x9e3779b97f4a7c15)
	return h1, h2
}
