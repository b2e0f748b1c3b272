package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/encodingapi"
)

// TestRetryAfterRoundsUp is the regression test for the truncation bug:
// a sub-second RetryAfter used to render as "Retry-After: 0" (integer
// division by time.Second), telling clients to hammer an overloaded
// server. The header must round up and never fall below 1.
func TestRetryAfterRoundsUp(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int64
	}{
		{100 * time.Millisecond, 1},
		{999 * time.Millisecond, 1},
		{time.Second, 1},
		{1001 * time.Millisecond, 2},
		{1500 * time.Millisecond, 2},
		{2 * time.Second, 2},
		{0, 1}, // defensive: Normalize prevents 0, but never emit < 1
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.d); got != c.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

// TestRetryAfterHeaderSubSecond drives the fix end to end: an overloaded
// server configured with a 500ms hint must answer "Retry-After: 1".
func TestRetryAfterHeaderSubSecond(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1, RetryAfter: 500 * time.Millisecond})
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s.solveFn = func(ctx context.Context, req *solveRequest) (*encodingapi.EncodeResult, error) {
		started <- struct{}{}
		<-release
		return &encodingapi.EncodeResult{Mode: req.mode, Feasible: true}, nil
	}
	defer close(release)

	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		post(t, ts, reqBody(t, encodingapi.EncodeRequest{Constraints: "face a b\n"}))
	}()
	<-started

	resp, body := post(t, ts, reqBody(t, encodingapi.EncodeRequest{Constraints: "face c d\n"}))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\" (sub-second hint must round up, not truncate to 0)", ra)
	}
	release <- struct{}{}
	<-blockerDone
}

// TestHistogramBoundaries pins the duration-accurate bucketing: samples
// between two boundaries land in the upper bucket (the old code truncated
// to whole milliseconds first, misfiling 2.5ms into the ≤2ms bucket), and
// samples exactly on a boundary land in that boundary's bucket.
func TestHistogramBoundaries(t *testing.T) {
	cases := []struct {
		d      time.Duration
		wantLE int64 // -1 = +Inf bucket
	}{
		{0, 1},
		{500 * time.Microsecond, 1},
		{time.Millisecond, 1},                   // exact boundary: inclusive
		{time.Millisecond + time.Nanosecond, 2}, // just past: next bucket
		{2500 * time.Microsecond, 5},            // the motivating case
		{2 * time.Millisecond, 2},               // exact boundary: inclusive
		{9999 * time.Microsecond, 10},           // 9.999ms: would truncate to 9
		{10 * time.Second, 10000},               // last finite boundary
		{10*time.Second + time.Millisecond, -1}, // overflow bucket
	}
	for _, c := range cases {
		var h histogram
		h.observe(c.d)
		snap := h.snapshot()
		for _, b := range snap {
			want := int64(0)
			if b.LEMillis == c.wantLE {
				want = 1
			}
			if b.Count != want {
				t.Errorf("observe(%v): bucket le=%d count=%d, want %d", c.d, b.LEMillis, b.Count, want)
			}
		}
	}
}

// TestHistogramQuantiles checks the bucket-boundary quantile estimates.
func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	if q := h.quantiles(); q != (Quantiles{}) {
		t.Fatalf("empty histogram quantiles = %+v, want zeros", q)
	}

	// 100 samples at ~1.5ms: every quantile interpolates inside (1, 2].
	for i := 0; i < 100; i++ {
		h.observe(1500 * time.Microsecond)
	}
	q := h.quantiles()
	for name, v := range map[string]float64{"p50": q.P50, "p95": q.P95, "p99": q.P99} {
		if v <= 1 || v > 2 {
			t.Errorf("%s = %v, want within (1, 2] (all samples in the ≤2ms bucket)", name, v)
		}
	}
	if !(q.P50 < q.P95 && q.P95 < q.P99) {
		t.Errorf("quantiles not monotone: p50=%v p95=%v p99=%v", q.P50, q.P95, q.P99)
	}

	// Bimodal: 90 fast (≤1ms) + 10 slow (≤1000ms). p50 stays in the fast
	// bucket; p95 and p99 move to the slow one.
	var h2 histogram
	for i := 0; i < 90; i++ {
		h2.observe(500 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h2.observe(800 * time.Millisecond)
	}
	q2 := h2.quantiles()
	if q2.P50 > 1 {
		t.Errorf("bimodal p50 = %v, want ≤ 1", q2.P50)
	}
	if q2.P95 <= 500 || q2.P95 > 1000 {
		t.Errorf("bimodal p95 = %v, want within (500, 1000]", q2.P95)
	}
	if q2.P99 <= q2.P95 {
		t.Errorf("bimodal p99 = %v not above p95 = %v", q2.P99, q2.P95)
	}

	// All samples overflow: quantiles report the last finite boundary.
	var h3 histogram
	h3.observe(time.Minute)
	if q3 := h3.quantiles(); q3.P50 != float64(latencyBuckets[len(latencyBuckets)-1]) {
		t.Errorf("overflow p50 = %v, want last finite boundary %d", q3.P50, latencyBuckets[len(latencyBuckets)-1])
	}
}

// TestQueueWaitSeparateFromSolveTime checks the decomposed histograms: a
// solve that sleeps inside the engine must show up in solve_time but not
// inflate queue_wait by the same amount.
func TestQueueWaitSeparateFromSolveTime(t *testing.T) {
	const solveSleep = 30 * time.Millisecond
	s, ts := newTestServer(t, Config{Workers: 1})
	s.solveFn = func(ctx context.Context, req *solveRequest) (*encodingapi.EncodeResult, error) {
		time.Sleep(solveSleep)
		return &encodingapi.EncodeResult{Mode: req.mode, Feasible: true}, nil
	}
	post(t, ts, reqBody(t, encodingapi.EncodeRequest{Constraints: feasibleText}))
	st := getStats(t, ts)

	count := func(buckets []LatencyBucket, pred func(le int64) bool) int64 {
		var n int64
		for _, b := range buckets {
			if pred(b.LEMillis) {
				n += b.Count
			}
		}
		return n
	}
	// The 30ms solve lands above the 25ms boundary of solve_time...
	if got := count(st.SolveTime, func(le int64) bool { return le == -1 || le >= 50 }); got != 1 {
		t.Fatalf("solve_time: %d samples ≥ 25ms, want 1; %+v", got, st.SolveTime)
	}
	// ...while the queue wait (idle pool) stays below it.
	if got := count(st.QueueWait, func(le int64) bool { return le != -1 && le <= 25 }); got != 1 {
		t.Fatalf("queue_wait: %d samples ≤ 25ms, want 1; %+v", got, st.QueueWait)
	}
}

// traceGet fetches and decodes GET /v1/trace/{id}.
func traceGet(t *testing.T, ts *httptest.Server, id uint64) (*traceEntry, int) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/trace/%d", ts.URL, id))
	if err != nil {
		t.Fatalf("GET /v1/trace/%d: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode
	}
	var e traceEntry
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decoding trace: %v", err)
	}
	return &e, resp.StatusCode
}

// TestTraceEndpoints drives the solve-trace surface end to end: a real
// solve returns a trace_id, the trace is fetchable with engine stage spans,
// the list endpoint shows it, and cache hits don't mint new traces.
func TestTraceEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := reqBody(t, encodingapi.EncodeRequest{Constraints: feasibleText, Mode: modeExact})

	resp, data := post(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("encode = %d: %s", resp.StatusCode, data)
	}
	var er encodingapi.EncodeResult
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if er.TraceID == 0 {
		t.Fatal("leader solve returned trace_id 0")
	}

	e, status := traceGet(t, ts, er.TraceID)
	if status != http.StatusOK {
		t.Fatalf("GET /v1/trace/%d = %d", er.TraceID, status)
	}
	if e.Mode != modeExact || e.Error != "" || e.ElapsedMS <= 0 {
		t.Fatalf("trace entry = %+v", e)
	}
	want := map[string]bool{"server.queue": false, "server.solve": false, "core.seeds": false, "prime.generate": false, "cover.solve": false}
	for _, sp := range e.Spans {
		if _, ok := want[sp.Name]; ok {
			want[sp.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("trace %d missing span %q; got %+v", er.TraceID, name, e.Spans)
		}
	}

	// Stage attrs survive the JSON round trip.
	for _, sp := range e.Spans {
		if sp.Name == "cover.solve" {
			for _, key := range []string{"nodes", "entry_pruned"} {
				if _, ok := sp.Attrs[key]; !ok {
					t.Errorf("cover.solve span lost its %s attr: %+v", key, sp)
				}
			}
		}
	}

	// A cache hit must not mint a trace.
	resp2, data2 := post(t, ts, body)
	var er2 encodingapi.EncodeResult
	if err := json.Unmarshal(data2, &er2); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if !er2.Cached || er2.TraceID != 0 {
		t.Fatalf("cache hit: cached=%v trace_id=%d, want true/0", er2.Cached, er2.TraceID)
	}

	// The list endpoint shows exactly the one retained trace.
	listResp, err := http.Get(ts.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var list struct {
		Traces []traceEntry `json:"traces"`
	}
	if err := json.NewDecoder(listResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) != 1 || list.Traces[0].ID != er.TraceID {
		t.Fatalf("trace list = %+v, want the single solve", list.Traces)
	}

	// Unknown and malformed ids.
	if _, status := traceGet(t, ts, er.TraceID+100); status != http.StatusNotFound {
		t.Fatalf("unknown trace id = %d, want 404", status)
	}
	respBad, err := http.Get(ts.URL + "/v1/trace/nope")
	if err != nil {
		t.Fatal(err)
	}
	respBad.Body.Close()
	if respBad.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed trace id = %d, want 400", respBad.StatusCode)
	}
}

// TestTraceRingEviction checks the ring retains only the newest N and that
// evicted ids answer 404 rather than a wrong entry.
func TestTraceRingEviction(t *testing.T) {
	r := newTraceRing(2)
	id1 := r.add(&traceEntry{Mode: "a"})
	id2 := r.add(&traceEntry{Mode: "b"})
	id3 := r.add(&traceEntry{Mode: "c"}) // evicts id1
	if got, ok := r.get(id1); ok {
		t.Fatalf("evicted id %d still served: %+v", id1, got)
	}
	if got, ok := r.get(id2); !ok || got.Mode != "b" {
		t.Fatalf("get(%d) = %+v, want mode b", id2, got)
	}
	l := r.list()
	if len(l) != 2 || l[0].ID != id3 || l[1].ID != id2 {
		t.Fatalf("list = %+v, want [c b] newest first", l)
	}

	// Disabled retention still assigns ids (responses and logs correlate)
	// but serves nothing.
	off := newTraceRing(-1)
	if id := off.add(&traceEntry{}); id == 0 {
		t.Fatal("disabled ring must still assign ids")
	}
	if _, ok := off.get(1); ok || len(off.list()) != 0 {
		t.Fatal("disabled ring must serve no entries")
	}
}

// TestSlowSolveLog checks that a solve above the threshold emits one
// structured log line carrying the trace id and stage breakdown, and
// increments the slow_solves counter.
func TestSlowSolveLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	s, ts := newTestServer(t, Config{SlowSolveThreshold: time.Nanosecond, Logger: logger})
	s.solveFn = func(ctx context.Context, req *solveRequest) (*encodingapi.EncodeResult, error) {
		time.Sleep(2 * time.Millisecond)
		return &encodingapi.EncodeResult{Mode: req.mode, Feasible: true}, nil
	}
	_, data := post(t, ts, reqBody(t, encodingapi.EncodeRequest{Constraints: feasibleText}))
	var er encodingapi.EncodeResult
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !bytes.Contains(buf.Bytes(), []byte("slow solve")) {
		t.Fatalf("no slow-solve log line; log: %q", out)
	}
	if want := fmt.Sprintf("trace_id=%d", er.TraceID); !bytes.Contains(buf.Bytes(), []byte(want)) {
		t.Fatalf("log line missing %q; log: %q", want, out)
	}
	if st := getStats(t, ts); st.SlowSolves != 1 {
		t.Fatalf("slow_solves = %d, want 1", st.SlowSolves)
	}

	// Negative threshold disables the log.
	buf.Reset()
	s2, ts2 := newTestServer(t, Config{SlowSolveThreshold: -1, Logger: logger})
	s2.solveFn = s.solveFn
	post(t, ts2, reqBody(t, encodingapi.EncodeRequest{Constraints: feasibleText}))
	if buf.Len() != 0 {
		t.Fatalf("disabled threshold still logged: %q", buf.String())
	}
}

// TestPermutedRequestHitsCache is the regression test for the order-
// sensitive cache key: resubmitting the same constraint set with the
// constraint lines reordered, face members permuted, and symbols therefore
// interned in a different order must hit the result cache (one engine
// solve total), not re-solve the identical problem.
func TestPermutedRequestHitsCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Same constraint multiset as feasibleText ("face a b\nface b c\n
	// dom a > d\n"), written backwards with permuted members: interning
	// order becomes a,d,c,b instead of a,b,c,d.
	permutedText := "dom a > d\nface c b\nface b a\n"

	resp1, data1 := post(t, ts, reqBody(t, encodingapi.EncodeRequest{Constraints: feasibleText}))
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request = %d: %s", resp1.StatusCode, data1)
	}
	resp2, data2 := post(t, ts, reqBody(t, encodingapi.EncodeRequest{Constraints: permutedText}))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("permuted request = %d: %s", resp2.StatusCode, data2)
	}
	var er2 encodingapi.EncodeResult
	if err := json.Unmarshal(data2, &er2); err != nil {
		t.Fatal(err)
	}
	if !er2.Cached {
		t.Fatalf("permuted-but-equal request missed the cache: %s", data2)
	}
	if st := getStats(t, ts); st.Solves != 1 || st.CacheHits != 1 {
		t.Fatalf("solves = %d, cache hits = %d; want one solve, one hit", st.Solves, st.CacheHits)
	}

	// A genuinely different problem must still miss.
	resp3, _ := post(t, ts, reqBody(t, encodingapi.EncodeRequest{Constraints: "face a b\nface b c\ndom d > a\n"}))
	resp3.Body.Close()
	if st := getStats(t, ts); st.Solves != 2 {
		t.Fatalf("reversed dominance coalesced with the original: solves = %d, want 2", st.Solves)
	}
}

// TestDebugEndpointsGated checks /debug/pprof and /debug/vars exist only
// under Config.Debug.
func TestDebugEndpointsGated(t *testing.T) {
	_, tsOff := newTestServer(t, Config{})
	for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get(tsOff.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("Debug off: GET %s = %d, want 404", path, resp.StatusCode)
		}
	}

	_, tsOn := newTestServer(t, Config{Debug: true})
	for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get(tsOn.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("Debug on: GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
}
