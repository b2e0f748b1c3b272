package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/encodingapi"
)

// handleBatch serves POST /v1/encode/batch. Items are parsed
// individually (a malformed item fails that item, not the batch), deduped
// by canonical request key so duplicate items cost exactly one solve, and
// the unique problems run concurrently through the shared execute spine —
// cache, singleflight, pool backpressure and tenant admission all apply
// per item, with batch items waiting out contention rather than shedding.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	end := s.beginRequest()
	defer end()
	start := time.Now()
	if !s.intake(w, r, http.MethodPost) {
		return
	}

	dec := newBodyDecoder(w, r, s.cfg.MaxBodyBytes)
	var body encodingapi.BatchRequest
	if err := dec.Decode(&body); err != nil {
		s.writeError(w, apiErr(http.StatusBadRequest, encodingapi.CodeBadRequest, fmt.Sprintf("decoding request: %v", err)))
		return
	}
	if len(body.Items) == 0 {
		s.writeError(w, apiErr(http.StatusBadRequest, encodingapi.CodeBadRequest, "batch needs at least one item"))
		return
	}
	if len(body.Items) > s.cfg.MaxBatchItems {
		s.writeError(w, apiErr(http.StatusBadRequest, encodingapi.CodeBadRequest,
			fmt.Sprintf("batch has %d items, limit is %d", len(body.Items), s.cfg.MaxBatchItems)))
		return
	}
	if body.TimeoutMS < 0 {
		s.writeError(w, apiErr(http.StatusBadRequest, encodingapi.CodeBadRequest, "timeout_ms must be non-negative"))
		return
	}
	s.metrics.BatchRequests.Add(1)
	s.metrics.BatchItems.Add(int64(len(body.Items)))
	tenant := tenantFrom(r)

	// Parse every item up front; failures stay per-item.
	parsed := make([]*solveRequest, len(body.Items))
	itemErrs := make([]*apiError, len(body.Items))
	for i := range body.Items {
		it := &body.Items[i]
		if it.TimeoutMS != 0 {
			itemErrs[i] = apiErr(http.StatusBadRequest, encodingapi.CodeBadRequest,
				"timeout_ms is per-batch: set it at the top level, not on items")
			continue
		}
		sreq, err := s.parseRequest(it)
		if err != nil {
			itemErrs[i] = apiErr(http.StatusBadRequest, encodingapi.CodeBadRequest, err.Error())
			continue
		}
		parsed[i] = sreq
	}

	// Dedupe by canonical key: duplicate items are the same question and
	// must cost one solve. dupOf maps a duplicate to the sibling whose
	// outcome it shares; -1 marks leaders and parse failures.
	leaderOf := make(map[requestKey]int)
	dupOf := make([]int, len(parsed))
	deduped := 0
	for i, sreq := range parsed {
		dupOf[i] = -1
		if sreq == nil {
			continue
		}
		k := sreq.key()
		if j, ok := leaderOf[k]; ok {
			dupOf[i] = j
			deduped++
			s.metrics.BatchDeduped.Add(1)
		} else {
			leaderOf[k] = i
		}
	}

	// The parent trace entry is published before the items run so their
	// entries can point at its id; its elapsed time is completed below.
	parentID := s.traces.add(&traceEntry{Mode: modeBatch, Items: len(body.Items), Start: start})

	budget := s.budget(time.Duration(body.TimeoutMS) * time.Millisecond)
	ctx, cancel := context.WithTimeout(s.baseCtx, budget)
	defer cancel()

	type outcome struct {
		res       *encodingapi.EncodeResult
		meta      execMeta
		err       error
		elapsedMS float64 // this item's own wall-clock, not the batch's
	}
	outs := make([]*outcome, len(parsed))
	var wg sync.WaitGroup
	for i, sreq := range parsed {
		if sreq == nil || dupOf[i] >= 0 {
			continue
		}
		wg.Add(1)
		go func(i int, sreq *solveRequest) {
			defer wg.Done()
			itemStart := time.Now()
			res, meta, err := s.execute(ctx, sreq, tenant, parentID, true)
			outs[i] = &outcome{
				res: res, meta: meta, err: err,
				elapsedMS: sinceMS(itemStart),
			}
		}(i, sreq)
	}
	wg.Wait()

	resp := encodingapi.BatchResult{
		Items:       make([]encodingapi.BatchItemResult, len(parsed)),
		UniqueItems: len(leaderOf),
		Deduped:     deduped,
		TraceID:     parentID,
		ElapsedMS:   sinceMS(start),
	}
	for i := range parsed {
		item := encodingapi.BatchItemResult{Index: i}
		switch {
		case itemErrs[i] != nil:
			item.Status = itemErrs[i].status
			item.Error = &itemErrs[i].body
		default:
			src, dup := i, false
			if dupOf[i] >= 0 {
				src, dup = dupOf[i], true
			}
			out := outs[src]
			if out.err != nil {
				ae := s.asAPIError(out.err)
				item.Status = ae.status
				item.Error = &ae.body
				break
			}
			// Every successful item gets its own trace id: leaders that
			// solved already have one; cache hits, coalesced followers
			// and in-batch duplicates get a stub entry whose parent and
			// origin say where the answer came from.
			meta := out.meta
			if dup || meta.traceID == 0 {
				origin := "cache"
				switch {
				case dup:
					origin = "duplicate"
				case meta.coalesced:
					origin = "coalesced"
				}
				meta.traceID = s.traces.add(&traceEntry{
					Mode:   parsed[i].mode,
					Parent: parentID,
					Origin: origin,
					Start:  start,
				})
			}
			meta.coalesced = meta.coalesced || dup
			// ElapsedMS is the item's own latency (duplicates report their
			// leader's — the time the answer actually took to produce);
			// the top-level ElapsedMS carries the batch wall-clock.
			item.Status = http.StatusOK
			item.Result = meta.deliver(out.res, out.elapsedMS)
		}
		resp.Items[i] = item
	}

	s.traces.complete(parentID, func(e *traceEntry) {
		e.ElapsedMS = sinceMS(start)
	})
	s.metrics.OK.Add(1)
	writeJSON(w, http.StatusOK, resp)
}
