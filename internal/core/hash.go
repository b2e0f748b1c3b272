package core

import (
	"fmt"

	"repro/internal/bitset"
)

// Hash128 is a 128-bit content hash of a constraint set, used by the
// request server's coalescing and result-cache layers to key problems
// without retaining them. It folds values through bitset.MixWord (dual
// SplitMix/FNV streams), so a collision requires agreement in both 64-bit
// halves — possible in principle, but needing on the order of 2^64
// distinct sets to become likely, far beyond any cache bound this
// repository configures.
type Hash128 struct {
	Hi, Lo uint64
}

// String renders the hash as 32 hex digits.
func (h Hash128) String() string { return fmt.Sprintf("%016x%016x", h.Hi, h.Lo) }

// IsZero reports whether h is the zero hash (no CanonicalHashSet or
// HashBytes output is ever zero-valued in practice; the zero value marks
// "unset").
func (h Hash128) IsZero() bool { return h == Hash128{} }

// Per-section tags folded into the stream before each constraint kind, so
// that, e.g., a dominance pair can never collide with a distance-2 pair
// over the same symbols.
const (
	tagSymbols  = 0x53594d42 // "SYMB"
	tagFace     = 0x46414345 // "FACE"
	tagDom      = 0x444f4d49 // "DOMI"
	tagDisj     = 0x44495349 // "DISI"
	tagExtDisj  = 0x45585444 // "EXTD"
	tagDistance = 0x44495354 // "DIST"
	tagNonFace  = 0x4e464143 // "NFAC"
	tagChain    = 0x4348414e // "CHAN"
)

// setHasher folds values into a running 128-bit state.
type setHasher struct {
	h1, h2 uint64
}

func (h *setHasher) word(v uint64) {
	h.h1, h.h2 = bitset.MixWord(h.h1, h.h2, v)
}

func (h *setHasher) str(s string) {
	h.word(uint64(len(s)))
	// Fold eight bytes at a time; the length word above keeps "ab","c"
	// and "a","bc" apart.
	var w uint64
	n := 0
	for i := 0; i < len(s); i++ {
		w = w<<8 | uint64(s[i])
		if n++; n == 8 {
			h.word(w)
			w, n = 0, 0
		}
	}
	if n > 0 {
		h.word(w)
	}
}

// HashBytes returns the 128-bit content hash of an arbitrary byte string
// under the same dual-stream mixing discipline as CanonicalHashSet. The
// request server uses it to key non-constraint payloads (the pipeline
// endpoint's canonical KISS2 text) in the same cache and coalescing maps as
// constraint sets; the distinct initial state keeps the two key spaces
// apart.
func HashBytes(b []byte) Hash128 {
	h := &setHasher{h1: 0x243f6a8885a308d3, h2: 0x13198a2e03707344}
	h.str(string(b))
	return Hash128{Hi: h.h1, Lo: h.h2}
}
