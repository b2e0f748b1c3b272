package server

import (
	"context"
	"fmt"

	"repro/encodingapi"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/trace"
)

// solveDecomposed is the function execute's singleflight leader runs for a
// decomposed exact request: Split, then decomp's component loop with the
// service's per-component hook (solveComponent), then Verify the assembled
// encoding. At most as many components are in flight as the pool has
// workers, so a request never sheds itself.
//
// A request whose components are all cached never reaches the pool: every
// component rebuilds from its cache entry, and the result is assembled and
// verified without a kernel solve.
func (s *Server) solveDecomposed(ctx context.Context, sreq *solveRequest, wait bool) (*encodingapi.EncodeResult, error) {
	ssp := trace.StartSpan(ctx, "server.decompose")
	plan, err := decomp.Split(sreq.cs)
	if err != nil {
		ssp.End()
		return nil, err
	}
	s.metrics.Decompositions.Add(1)
	s.metrics.Components.Add(int64(len(plan.Components)))
	ssp.Set("components", len(plan.Components)).End()
	// The job-state transition fires here rather than in runSolve: an
	// all-cached decomposed request never enters the pool, yet it did run.
	if sreq.onStart != nil {
		sreq.onStart()
	}
	full, err := plan.Solve(ctx, s.pool.workers, func(ctx context.Context, c *decomp.Component, sp *trace.Span) (*core.ExactResult, error) {
		return s.solveComponent(ctx, sreq, c, sp, wait)
	})
	if err != nil {
		return nil, err
	}
	if v := encodingapi.Verify(sreq.cs, full.Encoding); len(v) != 0 {
		return nil, fmt.Errorf("internal error: encoding failed verification: %s: %s", v[0].Kind, v[0].Detail)
	}
	res := &encodingapi.EncodeResult{Mode: modeExact, Feasible: true, Optimal: full.Optimal}
	fillEncoding(res, full.Encoding)
	return res, nil
}

// solveComponent answers one component of a decomposed request: from the
// cache under the component's sub-hash when it can, otherwise through the
// component's own singleflight and runSolve on the pool, caching the
// answer. Component entries live beside the whole-request entries, so a
// later request overlapping in *any* component benefits.
func (s *Server) solveComponent(ctx context.Context, sreq *solveRequest, c *decomp.Component, sp *trace.Span, wait bool) (*core.ExactResult, error) {
	key := requestKey{set: c.Hash, mode: modeExactComponent, primeLimit: sreq.primeLimit, backend: sreq.backend}
	if res, ok := s.cache.Get(key); ok {
		// A malformed entry (wrong shape for this component) falls
		// through to a fresh solve rather than failing the request.
		if r, err := c.ResultFromCodes(res.Bits, res.Codes, res.Optimal); err == nil {
			s.metrics.ComponentCacheHits.Add(1)
			sp.Set("cached", 1)
			return r, nil
		}
	}
	s.metrics.ComponentCacheMisses.Add(1)
	creq := &solveRequest{
		mode:       modeExact,
		cs:         c.Set,
		primeLimit: sreq.primeLimit,
		workers:    sreq.workers,
		backend:    sreq.backend,
	}
	res, err, leader := s.flights.do(ctx, key,
		func() { s.metrics.Coalesced.Add(1) },
		func() (*encodingapi.EncodeResult, error) { return s.runSolve(ctx, creq, wait) },
	)
	if err != nil {
		return nil, err
	}
	if leader && cacheable(res) {
		s.cache.Add(key, res)
	}
	// Codes are keyed by name: a coalesced result may come from an equal
	// component whose symbols were interned in another order.
	return c.ResultFromCodes(res.Bits, res.Codes, res.Optimal)
}
