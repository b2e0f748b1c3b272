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

// hashString folds the length of s, then its bytes eight at a time, into
// the 128-bit state seeded with (h1, h2). The length tells apart strings
// whose padded last words agree, such as "\x00a" and "a".
func hashString(h1, h2 uint64, s string) Hash128 {
	h1, h2 = bitset.MixWord(h1, h2, uint64(len(s)))
	var w uint64
	n := 0
	for i := 0; i < len(s); i++ {
		w = w<<8 | uint64(s[i])
		if n++; n == 8 {
			h1, h2 = bitset.MixWord(h1, h2, w)
			w, n = 0, 0
		}
	}
	if n > 0 {
		h1, h2 = bitset.MixWord(h1, h2, w)
	}
	return Hash128{Hi: h1, Lo: h2}
}

// HashBytes returns the 128-bit content hash of an arbitrary byte string
// under the same dual-stream mixing discipline as CanonicalHashSet. The
// request server uses it to key non-constraint payloads (the pipeline
// endpoint's canonical KISS2 text) in the same cache and coalescing maps as
// constraint sets; the distinct initial state keeps the two key spaces
// apart.
func HashBytes(b []byte) Hash128 {
	return hashString(0x243f6a8885a308d3, 0x13198a2e03707344, string(b))
}
