package server

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/encodingapi"
)

// benchDecomposedRequest builds a decomposed exact request over k
// four-symbol face components.
func benchDecomposedRequest(b *testing.B, s *Server, k int) *solveRequest {
	b.Helper()
	var sb strings.Builder
	for i := 0; i < k; i++ {
		fmt.Fprintf(&sb, "face g%d.a g%d.b\nface g%d.a g%d.c\nface g%d.c g%d.d\n",
			i, i, i, i, i, i)
	}
	sreq, err := s.parseRequest(&encodingapi.EncodeRequest{Constraints: sb.String(), Decompose: true})
	if err != nil {
		b.Fatal(err)
	}
	return sreq
}

// BenchmarkDecomposedEncodeWarmCacheKernel measures the all-cached spine of
// a decomposed request: every component rebuilds from its sub-hash cache
// entry, so an op is Split + per-component rebuild + Assemble + Verify and
// never reaches the solve pool. This is the path a production duplicate
// (or any request overlapping a previously seen component) takes.
func BenchmarkDecomposedEncodeWarmCacheKernel(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	sreq := benchDecomposedRequest(b, s, 4)
	ctx := context.Background()
	if _, err := s.solveDecomposed(ctx, sreq, true); err != nil {
		b.Fatal(err)
	}
	if hits := s.metrics.ComponentCacheMisses.Load(); hits != 4 {
		b.Fatalf("warm-up missed %d components, want 4", hits)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.solveDecomposed(ctx, sreq, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecomposedEncodeColdCacheKernel is the same request with caching
// disabled: every op pays the full per-component kernel solves through the
// pool. The warm/cold delta is what the per-component cache buys.
func BenchmarkDecomposedEncodeColdCacheKernel(b *testing.B) {
	s := New(Config{CacheEntries: -1})
	defer s.Close()
	sreq := benchDecomposedRequest(b, s, 4)
	ctx := context.Background()
	if _, err := s.solveDecomposed(ctx, sreq, true); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.solveDecomposed(ctx, sreq, true); err != nil {
			b.Fatal(err)
		}
	}
}
