package bitset

import (
	"math/bits"
	"testing"
)

// BenchmarkFromSliceKernel tracks the construction allocation discipline:
// a single preallocated word array versus word-by-word append growth.
func BenchmarkFromSliceKernel(b *testing.B) {
	elems := make([]int, 0, 128)
	for e := 0; e < 512; e += 4 {
		elems = append(elems, e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromSlice(elems)
	}
}

// BenchmarkIntersectKernel is the allocating two-operand intersection the
// hot paths used before the in-place kernels existed; kept as the
// comparison point for IntersectInto.
func BenchmarkIntersectKernel(b *testing.B) {
	s, t := New(512), New(512)
	for e := 0; e < 512; e += 3 {
		s.Add(e)
	}
	for e := 0; e < 512; e += 5 {
		t.Add(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Intersect(s, t)
	}
}

// BenchmarkIntersectIntoKernel is the in-place counterpart of
// BenchmarkIntersectKernel: same operands, reused receiver, zero
// steady-state allocation. The loop body is the 4-way unrolled andWords
// kernel.
func BenchmarkIntersectIntoKernel(b *testing.B) {
	s, t := New(512), New(512)
	for e := 0; e < 512; e += 3 {
		s.Add(e)
	}
	for e := 0; e < 512; e += 5 {
		t.Add(e)
	}
	dst := New(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.IntersectInto(s, t)
	}
}

// benchPair builds the standard 512-element operand pair the kernel
// benchmarks share.
func benchPair() (Set, Set) {
	s, t := New(512), New(512)
	for e := 0; e < 512; e += 3 {
		s.Add(e)
	}
	for e := 0; e < 512; e += 5 {
		t.Add(e)
	}
	return s, t
}

// BenchmarkIntersectLenKernel measures the fused popcount-of-intersection
// scan: the single hottest bitset operation in the Bron–Kerbosch pivot rule
// and the covering solver's branch ordering.
func BenchmarkIntersectLenKernel(b *testing.B) {
	s, t := benchPair()
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += IntersectLen(s, t)
	}
	benchSink = sink
}

// BenchmarkIntersectPopcountIntoKernel is the fused intersect-and-count
// form; its unfused cost is one IntersectIntoKernel plus one full Len pass.
func BenchmarkIntersectPopcountIntoKernel(b *testing.B) {
	s, t := benchPair()
	dst := New(512)
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += dst.IntersectPopcountInto(s, t)
	}
	benchSink = sink
}

// BenchmarkUnionIntoKernel exercises the unrolled orWords kernel.
func BenchmarkUnionIntoKernel(b *testing.B) {
	s, t := benchPair()
	dst := New(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.UnionInto(s, t)
	}
}

// BenchmarkWordIterKernel is the closure-free WordCount/Word iteration
// idiom the solvers' hot loops use — the baseline the other two iteration
// benchmarks compare against.
func BenchmarkWordIterKernel(b *testing.B) {
	s, _ := benchPair()
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		for wi, wc := 0, s.WordCount(); wi < wc; wi++ {
			for w := s.Word(wi); w != 0; w &= w - 1 {
				sink += wi*64 + bits.TrailingZeros64(w)
			}
		}
	}
	benchSink = sink
}

// BenchmarkNextSetIterKernel walks a set with the stateful Min/NextSet
// protocol: slower than the word idiom on dense sets (each step re-derives
// its word), but the only form usable when iteration state must survive
// across calls.
func BenchmarkNextSetIterKernel(b *testing.B) {
	s, _ := benchPair()
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		for e, ok := s.Min(); ok; e, ok = s.NextSet(e + 1) {
			sink += e
		}
	}
	benchSink = sink
}

// BenchmarkForEachIterKernel is the per-element-callback iteration baseline
// for BenchmarkNextSetIterKernel.
func BenchmarkForEachIterKernel(b *testing.B) {
	s, _ := benchPair()
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		s.ForEach(func(e int) bool {
			sink += e
			return true
		})
	}
	benchSink = sink
}

// benchSink defeats dead-code elimination of the measured loops.
var benchSink int
