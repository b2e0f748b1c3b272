// Package bitset provides a dense, fixed-universe bit set used to represent
// sets of symbols throughout the encoding framework.
//
// All sets operated on together are expected to share the same universe size;
// operations normalize word counts on demand so mixed sizes are tolerated but
// never required. The zero value is an empty set over an empty universe.
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Word-sliced kernels. The gc compiler does not auto-vectorize, so the hot
// word loops below are hand-unrolled 4 ways with independent temporaries:
// the unrolling amortizes loop overhead and gives the CPU four independent
// dependency chains to schedule (and keeps the loop bodies in the shape a
// future SIMD intrinsic or vectorizing compiler wants). Every helper takes
// equal-length slices — callers normalize lengths — and tolerates dst
// aliasing either operand because each group's loads complete before its
// stores.

// andWords sets dst[i] = a[i] & b[i].
func andWords(dst, a, b []uint64) {
	n := len(dst)
	a = a[:n]
	b = b[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		a0, a1, a2, a3 := a[i], a[i+1], a[i+2], a[i+3]
		b0, b1, b2, b3 := b[i], b[i+1], b[i+2], b[i+3]
		dst[i], dst[i+1], dst[i+2], dst[i+3] = a0&b0, a1&b1, a2&b2, a3&b3
	}
	for ; i < n; i++ {
		dst[i] = a[i] & b[i]
	}
}

// orWords sets dst[i] = a[i] | b[i].
func orWords(dst, a, b []uint64) {
	n := len(dst)
	a = a[:n]
	b = b[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		a0, a1, a2, a3 := a[i], a[i+1], a[i+2], a[i+3]
		b0, b1, b2, b3 := b[i], b[i+1], b[i+2], b[i+3]
		dst[i], dst[i+1], dst[i+2], dst[i+3] = a0|b0, a1|b1, a2|b2, a3|b3
	}
	for ; i < n; i++ {
		dst[i] = a[i] | b[i]
	}
}

// andNotWords sets dst[i] = a[i] &^ b[i].
func andNotWords(dst, a, b []uint64) {
	n := len(dst)
	a = a[:n]
	b = b[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		a0, a1, a2, a3 := a[i], a[i+1], a[i+2], a[i+3]
		b0, b1, b2, b3 := b[i], b[i+1], b[i+2], b[i+3]
		dst[i], dst[i+1], dst[i+2], dst[i+3] = a0&^b0, a1&^b1, a2&^b2, a3&^b3
	}
	for ; i < n; i++ {
		dst[i] = a[i] &^ b[i]
	}
}

// popWords returns the total population count of w with four independent
// accumulators (OnesCount64 compiles to a single POPCNT).
func popWords(w []uint64) int {
	var c0, c1, c2, c3 int
	i, n := 0, len(w)
	for ; i+4 <= n; i += 4 {
		c0 += bits.OnesCount64(w[i])
		c1 += bits.OnesCount64(w[i+1])
		c2 += bits.OnesCount64(w[i+2])
		c3 += bits.OnesCount64(w[i+3])
	}
	for ; i < n; i++ {
		c0 += bits.OnesCount64(w[i])
	}
	return c0 + c1 + c2 + c3
}

// andPopWords returns popcount(a & b) without materializing the
// intersection.
func andPopWords(a, b []uint64) int {
	n := len(a)
	b = b[:n]
	var c0, c1, c2, c3 int
	i := 0
	for ; i+4 <= n; i += 4 {
		c0 += bits.OnesCount64(a[i] & b[i])
		c1 += bits.OnesCount64(a[i+1] & b[i+1])
		c2 += bits.OnesCount64(a[i+2] & b[i+2])
		c3 += bits.OnesCount64(a[i+3] & b[i+3])
	}
	for ; i < n; i++ {
		c0 += bits.OnesCount64(a[i] & b[i])
	}
	return c0 + c1 + c2 + c3
}

// Set is a set of small non-negative integers backed by a []uint64.
type Set struct {
	words []uint64
}

// New returns an empty set able to hold elements in [0, n) without
// reallocation.
func New(n int) Set {
	if n <= 0 {
		return Set{}
	}
	return Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromSlice returns a set containing exactly the given elements. The word
// array is sized from the maximum element in one pass, so construction
// performs a single allocation regardless of element count or order.
func FromSlice(elems []int) Set {
	maxE := -1
	for _, e := range elems {
		if e < 0 {
			panic("bitset: negative element " + strconv.Itoa(e))
		}
		if e > maxE {
			maxE = e
		}
	}
	if maxE < 0 {
		return Set{}
	}
	s := New(maxE + 1)
	for _, e := range elems {
		s.words[e/wordBits] |= 1 << uint(e%wordBits)
	}
	return s
}

// Of returns a set containing exactly the given elements.
func Of(elems ...int) Set {
	return FromSlice(elems)
}

func (s *Set) grow(word int) {
	for len(s.words) <= word {
		s.words = append(s.words, 0)
	}
}

// Add inserts e into the set. e must be non-negative.
func (s *Set) Add(e int) {
	if e < 0 {
		panic("bitset: negative element " + strconv.Itoa(e))
	}
	w := e / wordBits
	s.grow(w)
	s.words[w] |= 1 << uint(e%wordBits)
}

// Remove deletes e from the set if present.
func (s *Set) Remove(e int) {
	if e < 0 {
		return
	}
	w := e / wordBits
	if w < len(s.words) {
		s.words[w] &^= 1 << uint(e%wordBits)
	}
}

// Has reports whether e is in the set.
func (s Set) Has(e int) bool {
	if e < 0 {
		return false
	}
	w := e / wordBits
	return w < len(s.words) && s.words[w]&(1<<uint(e%wordBits)) != 0
}

// Len returns the number of elements in the set.
func (s Set) Len() int {
	return popWords(s.words)
}

// IsEmpty reports whether the set has no elements.
func (s Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	if len(s.words) == 0 {
		return Set{}
	}
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return Set{words: w}
}

// CopyFrom makes s an exact copy of t, reusing s's backing array when it is
// large enough. The receiver may alias t.
func (s *Set) CopyFrom(t Set) {
	if cap(s.words) < len(t.words) {
		s.words = make([]uint64, len(t.words))
	}
	s.words = s.words[:len(t.words)]
	copy(s.words, t.words)
}

// IntersectInto sets s = a ∩ b without allocating (unless s's backing array
// is too small). The receiver may alias either operand; operands of
// different word counts are handled by truncating to the shorter.
func (s *Set) IntersectInto(a, b Set) {
	n := len(a.words)
	if len(b.words) < n {
		n = len(b.words)
	}
	if cap(s.words) < n {
		s.words = make([]uint64, n)
	}
	s.words = s.words[:n]
	andWords(s.words, a.words[:n], b.words[:n])
}

// IntersectPopcountInto sets s = a ∩ b and returns |s| in the same pass:
// the fused form of IntersectInto followed by Len that the covering and
// clique kernels want, saving one full traversal of the words.
func (s *Set) IntersectPopcountInto(a, b Set) int {
	n := len(a.words)
	if len(b.words) < n {
		n = len(b.words)
	}
	if cap(s.words) < n {
		s.words = make([]uint64, n)
	}
	s.words = s.words[:n]
	dst, aw, bw := s.words, a.words[:n], b.words[:n]
	var c0, c1, c2, c3 int
	i := 0
	for ; i+4 <= n; i += 4 {
		w0 := aw[i] & bw[i]
		w1 := aw[i+1] & bw[i+1]
		w2 := aw[i+2] & bw[i+2]
		w3 := aw[i+3] & bw[i+3]
		dst[i], dst[i+1], dst[i+2], dst[i+3] = w0, w1, w2, w3
		c0 += bits.OnesCount64(w0)
		c1 += bits.OnesCount64(w1)
		c2 += bits.OnesCount64(w2)
		c3 += bits.OnesCount64(w3)
	}
	for ; i < n; i++ {
		w := aw[i] & bw[i]
		dst[i] = w
		c0 += bits.OnesCount64(w)
	}
	return c0 + c1 + c2 + c3
}

// UnionInto sets s = a ∪ b without allocating (unless s's backing array is
// too small). The receiver may alias either operand: every word is read
// from both operands before the same index is written.
func (s *Set) UnionInto(a, b Set) {
	n := len(a.words)
	if len(b.words) > n {
		n = len(b.words)
	}
	w := s.words
	if cap(w) < n {
		w = make([]uint64, n)
	}
	w = w[:n]
	long, short := a.words, b.words
	if len(long) < len(short) {
		long, short = short, long
	}
	orWords(w[:len(short)], long[:len(short)], short)
	copy(w[len(short):], long[len(short):])
	s.words = w
}

// DifferenceInto sets s = a \ b without allocating (unless s's backing
// array is too small). The receiver may alias either operand.
func (s *Set) DifferenceInto(a, b Set) {
	n := len(a.words)
	if cap(s.words) < n {
		s.words = make([]uint64, n)
	}
	s.words = s.words[:n]
	k := len(b.words)
	if k > n {
		k = n
	}
	andNotWords(s.words[:k], a.words[:k], b.words[:k])
	copy(s.words[k:], a.words[k:])
}

// Clear empties the set, keeping its backing array.
func (s *Set) Clear() {
	clear(s.words)
}

// WordCount returns the number of backing words; together with Word it
// enables closure-free element iteration in hot loops:
//
//	for i, wc := 0, s.WordCount(); i < wc; i++ {
//		for w := s.Word(i); w != 0; w &= w - 1 {
//			e := i*64 + bits.TrailingZeros64(w)
//			...
//		}
//	}
func (s Set) WordCount() int { return len(s.words) }

// Word returns the i-th backing word (64 elements starting at 64*i).
func (s Set) Word(i int) uint64 { return s.words[i] }

// UnionWith adds every element of t to s.
func (s *Set) UnionWith(t Set) {
	s.grow(len(t.words) - 1)
	k := len(t.words)
	orWords(s.words[:k], s.words[:k], t.words)
}

// Union returns a new set holding s ∪ t.
func Union(s, t Set) Set {
	u := s.Clone()
	u.UnionWith(t)
	return u
}

// IntersectWith removes from s every element not in t.
func (s *Set) IntersectWith(t Set) {
	k := len(s.words)
	if len(t.words) < k {
		k = len(t.words)
	}
	andWords(s.words[:k], s.words[:k], t.words[:k])
	clear(s.words[k:])
}

// Intersect returns a new set holding s ∩ t.
func Intersect(s, t Set) Set {
	u := s.Clone()
	u.IntersectWith(t)
	return u
}

// DifferenceWith removes every element of t from s.
func (s *Set) DifferenceWith(t Set) {
	k := len(s.words)
	if len(t.words) < k {
		k = len(t.words)
	}
	andNotWords(s.words[:k], s.words[:k], t.words[:k])
}

// Difference returns a new set holding s \ t.
func Difference(s, t Set) Set {
	u := s.Clone()
	u.DifferenceWith(t)
	return u
}

// Intersects reports whether s ∩ t is non-empty.
func (s Set) Intersects(t Set) bool {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// IntersectLen returns |s ∩ t| without allocating.
func IntersectLen(s, t Set) int {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	return andPopWords(s.words[:n], t.words[:n])
}

// IntersectLenUpTo returns min(|s ∩ t|, cap) without allocating, stopping
// as soon as cap elements are seen. With cap=2 this is the cheap
// "zero / one / many" classifier the covering solver needs.
func IntersectLenUpTo(s, t Set, cap int) int {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	count := 0
	for i := 0; i < n; i++ {
		w := s.words[i] & t.words[i]
		if w != 0 {
			count += bits.OnesCount64(w)
			if count >= cap {
				return cap
			}
		}
	}
	return count
}

// FirstOfIntersection returns the smallest element of s ∩ t, or (0, false).
func FirstOfIntersection(s, t Set) (int, bool) {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if w := s.words[i] & t.words[i]; w != 0 {
			return i*wordBits + bits.TrailingZeros64(w), true
		}
	}
	return 0, false
}

// IntersectionIntersects reports whether (a ∩ b) ∩ c is non-empty without
// allocating.
func IntersectionIntersects(a, b, c Set) bool {
	n := len(a.words)
	if len(b.words) < n {
		n = len(b.words)
	}
	if len(c.words) < n {
		n = len(c.words)
	}
	for i := 0; i < n; i++ {
		if a.words[i]&b.words[i]&c.words[i] != 0 {
			return true
		}
	}
	return false
}

// UnionWithIntersection performs s |= a ∩ b without allocating.
func (s *Set) UnionWithIntersection(a, b Set) {
	n := len(a.words)
	if len(b.words) < n {
		n = len(b.words)
	}
	s.grow(n - 1)
	for i := 0; i < n; i++ {
		s.words[i] |= a.words[i] & b.words[i]
	}
}

// IntersectionSubsetOf reports whether (a ∩ m) ⊆ (b ∩ m) without
// allocating.
func IntersectionSubsetOf(a, b, m Set) bool {
	for i, w := range a.words {
		if i >= len(m.words) {
			break
		}
		w &= m.words[i]
		var bw uint64
		if i < len(b.words) {
			bw = b.words[i]
		}
		if w&^bw != 0 {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every element of s is in t.
func (s Set) SubsetOf(t Set) bool {
	for i, w := range s.words {
		if i < len(t.words) {
			if w&^t.words[i] != 0 {
				return false
			}
		} else if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain the same elements.
func (s Set) Equal(t Set) bool {
	return s.SubsetOf(t) && t.SubsetOf(s)
}

// Elems returns the elements of the set in increasing order.
func (s Set) Elems() []int {
	return s.AppendTo(make([]int, 0, s.Len()))
}

// AppendTo appends the elements in increasing order to dst and returns the
// extended slice; with a reused dst it is the non-allocating Elems.
func (s Set) AppendTo(dst []int) []int {
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, i*wordBits+b)
			w &= w - 1
		}
	}
	return dst
}

// IntersectForEach calls fn for each element of s ∩ t in increasing order
// without materializing the intersection; it stops early if fn returns
// false.
func IntersectForEach(s, t Set, fn func(e int) bool) {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		for w := s.words[i] & t.words[i]; w != 0; w &= w - 1 {
			if !fn(i*wordBits + bits.TrailingZeros64(w)) {
				return
			}
		}
	}
}

// ForEach calls fn for each element in increasing order; it stops early if fn
// returns false.
func (s Set) ForEach(fn func(e int) bool) {
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(i*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Min returns the smallest element and true, or (0, false) for an empty set.
func (s Set) Min() (int, bool) {
	for i, w := range s.words {
		if w != 0 {
			return i*wordBits + bits.TrailingZeros64(w), true
		}
	}
	return 0, false
}

// NextSet returns the smallest element >= e and true, or (0, false) when no
// such element exists. Together with Min it gives closure-free ascending
// iteration for hot loops that cannot afford ForEach's per-element callback:
//
//	for e, ok := s.Min(); ok; e, ok = s.NextSet(e + 1) { ... }
func (s Set) NextSet(e int) (int, bool) {
	if e < 0 {
		e = 0
	}
	i := e / wordBits
	if i >= len(s.words) {
		return 0, false
	}
	if w := s.words[i] >> uint(e%wordBits); w != 0 {
		return e + bits.TrailingZeros64(w), true
	}
	for i++; i < len(s.words); i++ {
		if w := s.words[i]; w != 0 {
			return i*wordBits + bits.TrailingZeros64(w), true
		}
	}
	return 0, false
}

// Hash returns a 64-bit hash of the set contents, suitable for map bucketing
// of canonical forms. Trailing zero words do not affect the hash.
func (s Set) Hash() uint64 {
	var h uint64 = 14695981039346656037 // FNV offset basis
	for i := len(s.words) - 1; i >= 0; i-- {
		w := s.words[i]
		if h == 14695981039346656037 && w == 0 {
			continue // skip trailing zero words so padded sets hash equal
		}
		h ^= w
		h *= 1099511628211
		h ^= uint64(i)
		h *= 1099511628211
	}
	return h
}

// Key returns a canonical string key for the set (trailing zero words
// stripped), usable as a map key.
func (s Set) Key() string {
	end := len(s.words)
	for end > 0 && s.words[end-1] == 0 {
		end--
	}
	var b strings.Builder
	for i := 0; i < end; i++ {
		b.WriteByte(byte(s.words[i]))
		b.WriteByte(byte(s.words[i] >> 8))
		b.WriteByte(byte(s.words[i] >> 16))
		b.WriteByte(byte(s.words[i] >> 24))
		b.WriteByte(byte(s.words[i] >> 32))
		b.WriteByte(byte(s.words[i] >> 40))
		b.WriteByte(byte(s.words[i] >> 48))
		b.WriteByte(byte(s.words[i] >> 56))
	}
	return b.String()
}

// String renders the set as {e1,e2,...}.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(e int) bool {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(strconv.Itoa(e))
		return true
	})
	b.WriteByte('}')
	return b.String()
}
