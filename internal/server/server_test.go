package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/encodingapi"
	"repro/internal/gen"
)

const (
	feasibleText   = "face a b\nface b c\ndom a > d\n"
	infeasibleText = "dom a > b\ndom b > a\n"
)

// newTestServer builds a Server + httptest front end and registers cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/encode", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/encode: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, data
}

func getStats(t *testing.T, ts *httptest.Server) Stats {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	return st
}

func reqBody(t *testing.T, req encodingapi.EncodeRequest) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	return string(b)
}

// TestHandleEncodeTable drives the validation and error-mapping paths of
// POST /v1/encode.
func TestHandleEncodeTable(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name       string
		body       string
		wantStatus int
		wantInBody string
	}{
		{"malformed json", `{"constraints": `, http.StatusBadRequest, "decoding request"},
		{"unknown field", `{"constraints": "face a b\n", "bogus": 1}`, http.StatusBadRequest, "bogus"},
		{"missing constraints", `{"mode": "exact"}`, http.StatusBadRequest, "missing constraints"},
		{"bad mode", `{"constraints": "face a b\n", "mode": "zen"}`, http.StatusBadRequest, "unknown mode"},
		{"parse error", `{"constraints": "face\n"}`, http.StatusBadRequest, "parsing constraints"},
		{"negative timeout", `{"constraints": "face a b\n", "timeout_ms": -1}`, http.StatusBadRequest, "timeout_ms"},
		{"negative workers", `{"constraints": "face a b\n", "workers": -1}`, http.StatusBadRequest, "workers must be non-negative"},
		{"bits outside heuristic", `{"constraints": "face a b\n", "mode": "exact", "bits": 3}`, http.StatusBadRequest, "heuristic"},
		{"heuristic without bits", `{"constraints": "face a b\n", "mode": "heuristic"}`, http.StatusBadRequest, "requires bits"},
		{"bad metric", `{"constraints": "face a b\n", "mode": "heuristic", "bits": 2, "metric": "entropy"}`, http.StatusBadRequest, "unknown metric"},
		{"bad backend", `{"constraints": "face a b\n", "backend": "cplex"}`, http.StatusBadRequest, "unknown backend"},
		{"backend outside exact", `{"constraints": "face a b\n", "mode": "feasible", "backend": "sat"}`, http.StatusBadRequest, "exact mode"},
		{"unsatisfiable exact", fmt.Sprintf(`{"constraints": %q}`, infeasibleText), http.StatusUnprocessableEntity, "infeasible"},
		{"sat backend ok", fmt.Sprintf(`{"constraints": %q, "backend": "sat"}`, feasibleText), http.StatusOK, `"mode": "exact"`},
		{"sat backend infeasible", fmt.Sprintf(`{"constraints": %q, "backend": "sat"}`, infeasibleText), http.StatusUnprocessableEntity, "infeasible"},
		{"exact ok", fmt.Sprintf(`{"constraints": %q}`, feasibleText), http.StatusOK, `"mode": "exact"`},
		{"feasible verdict", fmt.Sprintf(`{"constraints": %q, "mode": "feasible"}`, infeasibleText), http.StatusOK, `"feasible": false`},
		{"heuristic ok", fmt.Sprintf(`{"constraints": %q, "mode": "heuristic", "bits": 2, "metric": "cubes"}`, feasibleText), http.StatusOK, `"cost"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d; body: %s", resp.StatusCode, tc.wantStatus, body)
			}
			if !bytes.Contains(body, []byte(tc.wantInBody)) {
				t.Fatalf("body missing %q: %s", tc.wantInBody, body)
			}
		})
	}
}

// TestByteIdenticalToLibrary is the acceptance check: concurrent mixed-mode
// requests through the service return byte-identical encodings to direct
// library calls, for several engine worker counts.
func TestByteIdenticalToLibrary(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: -1}) // no cache: every request solves

	ctx := context.Background()
	exactWant, err := encodingapi.ExactEncode(ctx, encodingapi.MustParse(feasibleText), encodingapi.ExactOptions{})
	if err != nil {
		t.Fatalf("library exact: %v", err)
	}
	heurWant, err := encodingapi.HeuristicEncode(ctx, encodingapi.MustParse(feasibleText),
		encodingapi.HeuristicOptions{Bits: 3, Metric: encodingapi.Literals})
	if err != nil {
		t.Fatalf("library heuristic: %v", err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for _, workers := range []int{1, 2, 4} {
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func(workers int) {
				defer wg.Done()
				resp, body := post(t, ts, reqBody(t, encodingapi.EncodeRequest{Constraints: feasibleText, Mode: modeExact, Workers: workers}))
				var out encodingapi.EncodeResult
				if err := json.Unmarshal(body, &out); err != nil || resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("exact workers=%d: status %d err %v", workers, resp.StatusCode, err)
					return
				}
				if out.Text != exactWant.Encoding.String() || !out.Optimal {
					errs <- fmt.Errorf("exact workers=%d: text differs from library:\n%s\nvs\n%s", workers, out.Text, exactWant.Encoding)
				}
			}(workers)
			wg.Add(1)
			go func(workers int) {
				defer wg.Done()
				resp, body := post(t, ts, reqBody(t, encodingapi.EncodeRequest{
					Constraints: feasibleText, Mode: modeHeuristic, Bits: 3, Metric: "literals", Workers: workers,
				}))
				var out encodingapi.EncodeResult
				if err := json.Unmarshal(body, &out); err != nil || resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("heuristic workers=%d: status %d err %v", workers, resp.StatusCode, err)
					return
				}
				if out.Text != heurWant.Encoding.String() || out.Cost == nil || out.Cost.Literals != heurWant.Cost.Literals {
					errs <- fmt.Errorf("heuristic workers=%d: differs from library", workers)
				}
			}(workers)
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, body := post(t, ts, reqBody(t, encodingapi.EncodeRequest{Constraints: feasibleText, Mode: modeFeasible}))
				var out encodingapi.EncodeResult
				if err := json.Unmarshal(body, &out); err != nil || resp.StatusCode != http.StatusOK || !out.Feasible {
					errs <- fmt.Errorf("feasible: status %d err %v", resp.StatusCode, err)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCacheHit checks the second identical request is served from the LRU
// without another solve.
func TestCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := reqBody(t, encodingapi.EncodeRequest{Constraints: feasibleText})

	resp1, data1 := post(t, ts, body)
	resp2, data2 := post(t, ts, body)
	if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
		t.Fatalf("statuses %d, %d", resp1.StatusCode, resp2.StatusCode)
	}
	var out1, out2 encodingapi.EncodeResult
	if err := json.Unmarshal(data1, &out1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data2, &out2); err != nil {
		t.Fatal(err)
	}
	if out1.Cached || !out2.Cached {
		t.Fatalf("cached flags = %v, %v; want false, true", out1.Cached, out2.Cached)
	}
	if out1.Text != out2.Text {
		t.Fatalf("cached result differs from solved result")
	}
	st := getStats(t, ts)
	if st.Solves != 1 || st.CacheHits != 1 || st.CacheMisses != 1 || st.CacheEntries != 1 {
		t.Fatalf("stats = solves %d hits %d misses %d entries %d", st.Solves, st.CacheHits, st.CacheMisses, st.CacheEntries)
	}
	// Formatting differences in the constraint text must hit the same
	// cache entry (canonical hashing).
	_, data3 := post(t, ts, reqBody(t, encodingapi.EncodeRequest{Constraints: "face  a , b\nface b c\ndom a > d\n"}))
	var out3 encodingapi.EncodeResult
	if err := json.Unmarshal(data3, &out3); err != nil {
		t.Fatal(err)
	}
	if !out3.Cached {
		t.Fatalf("reformatted constraints missed the cache")
	}
}

// TestBackendCacheIdentity checks the two exact backends agree on code
// length yet occupy distinct cache entries: a sat request after a bb
// request must solve, not hit the bb entry (the backends may legitimately
// return different minimum covers, so their results must never alias).
func TestBackendCacheIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	_, data1 := post(t, ts, reqBody(t, encodingapi.EncodeRequest{Constraints: feasibleText}))
	_, data2 := post(t, ts, reqBody(t, encodingapi.EncodeRequest{Constraints: feasibleText, Backend: "sat"}))
	var out1, out2 encodingapi.EncodeResult
	if err := json.Unmarshal(data1, &out1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data2, &out2); err != nil {
		t.Fatal(err)
	}
	if out2.Cached {
		t.Fatalf("sat request hit the bb cache entry")
	}
	if out1.Bits != out2.Bits {
		t.Fatalf("backends disagree on code length: bb=%d sat=%d", out1.Bits, out2.Bits)
	}
	if st := getStats(t, ts); st.Solves != 2 {
		t.Fatalf("solves = %d, want 2 (one per backend)", st.Solves)
	}

	// Repeating the sat request must now hit its own entry, and an
	// explicit "bb" must alias the default-backend entry.
	_, data3 := post(t, ts, reqBody(t, encodingapi.EncodeRequest{Constraints: feasibleText, Backend: "sat"}))
	_, data4 := post(t, ts, reqBody(t, encodingapi.EncodeRequest{Constraints: feasibleText, Backend: "bb"}))
	var out3, out4 encodingapi.EncodeResult
	if err := json.Unmarshal(data3, &out3); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data4, &out4); err != nil {
		t.Fatal(err)
	}
	if !out3.Cached {
		t.Fatalf("repeated sat request missed the cache")
	}
	if !out4.Cached {
		t.Fatalf("explicit bb request missed the default-backend entry")
	}
}

// TestDeadlineExpiry checks a solve that outlives its budget maps to 504.
func TestDeadlineExpiry(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.solveFn = func(ctx context.Context, req *solveRequest) (*encodingapi.EncodeResult, error) {
		<-ctx.Done() // simulate a solve that never beats the deadline
		return nil, ctx.Err()
	}
	resp, body := post(t, ts, reqBody(t, encodingapi.EncodeRequest{Constraints: feasibleText, TimeoutMS: 30}))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body: %s", resp.StatusCode, body)
	}
	if st := getStats(t, ts); st.Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", st.Timeouts)
	}
}

// TestChainSolveFreesWorker: the chain search polls the request budget, so
// a chain request that times out releases the only pool worker — the next
// request is served and Close returns.
func TestChainSolveFreesWorker(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The direct chain search on this set runs for minutes.
	heavy := "chain a b\nface a c\nface a d\nface b c\nface b d\nface a b e\nface c d e\nface f g\nface g h\n"
	resp, body := post(t, ts, reqBody(t, encodingapi.EncodeRequest{Constraints: heavy, TimeoutMS: 200}))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("chain request: status = %d, want 504; body: %s", resp.StatusCode, body)
	}
	resp, body = post(t, ts, reqBody(t, encodingapi.EncodeRequest{Constraints: "face a b\nface b c\n", TimeoutMS: 5000}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the chain timeout: status = %d, want 200; body: %s", resp.StatusCode, body)
	}
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return: the chain search still holds the worker")
	}
}

// TestInfeasibleMinimizeFreesWorker is TestChainSolveFreesWorker for the
// error path of an infeasible set: its P-1 check takes tens of
// milliseconds, but minimizing its conflict subset re-runs the check
// hundreds of times. Once the request's budget is spent the minimization
// must stop and free the single worker, so the next request is served
// well inside a budget shorter than the whole minimization.
func TestInfeasibleMinimizeFreesWorker(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	heavy := gen.Random(1, gen.Config{Symbols: 56, Faces: 56, Dominances: 112, Disjunctives: 3, ExtDisjunctives: 2, DontCareProb: 0.3}).Set.String()
	resp, body := post(t, ts, reqBody(t, encodingapi.EncodeRequest{Constraints: heavy, TimeoutMS: 200}))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("infeasible request: status = %d, want 504; body: %s", resp.StatusCode, body)
	}
	resp, body = post(t, ts, reqBody(t, encodingapi.EncodeRequest{Constraints: "face a b\nface b c\n", TimeoutMS: 1500}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the infeasible one timed out: status = %d, want 200; body: %s", resp.StatusCode, body)
	}
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return: the conflict minimization still holds the worker")
	}
}

// TestOverload checks that a full pool sheds load with 429 + Retry-After.
func TestOverload(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1, RetryAfter: 2 * time.Second})
	release := make(chan struct{})
	started := make(chan struct{}, 16)
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
	<-started // the single worker is now occupied

	// A different problem cannot coalesce and finds the queue full.
	resp, body := post(t, ts, reqBody(t, encodingapi.EncodeRequest{Constraints: "face c d\n"}))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}
	if st := getStats(t, ts); st.Overloads != 1 {
		t.Fatalf("overloads = %d, want 1", st.Overloads)
	}
	release <- struct{}{}
	<-blockerDone
}

// TestCoalescing checks duplicate concurrent requests trigger exactly one
// solve, asserted through /v1/stats per the acceptance criteria.
func TestCoalescing(t *testing.T) {
	const followers = 4
	s, ts := newTestServer(t, Config{Workers: 2, CacheEntries: -1})
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s.solveFn = func(ctx context.Context, req *solveRequest) (*encodingapi.EncodeResult, error) {
		started <- struct{}{}
		<-release
		return &encodingapi.EncodeResult{Mode: req.mode, Feasible: true, Text: "x = 0\n"}, nil
	}

	body := reqBody(t, encodingapi.EncodeRequest{Constraints: feasibleText})
	results := make(chan encodingapi.EncodeResult, followers+1)
	var wg sync.WaitGroup
	for i := 0; i < followers+1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := post(t, ts, body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status = %d: %s", resp.StatusCode, data)
				return
			}
			var out encodingapi.EncodeResult
			if err := json.Unmarshal(data, &out); err != nil {
				t.Error(err)
				return
			}
			results <- out
		}()
	}

	<-started // leader is solving
	// Wait until every follower has attached before releasing the leader.
	deadline := time.Now().Add(5 * time.Second)
	for getStats(t, ts).Coalesced < followers {
		if time.Now().After(deadline) {
			t.Fatalf("followers never attached: coalesced = %d", getStats(t, ts).Coalesced)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(results)

	var leaders, coalesced int
	for out := range results {
		if out.Text != "x = 0\n" {
			t.Fatalf("result text = %q", out.Text)
		}
		if out.Coalesced {
			coalesced++
		} else {
			leaders++
		}
	}
	if leaders != 1 || coalesced != followers {
		t.Fatalf("leaders = %d, coalesced = %d; want 1, %d", leaders, coalesced, followers)
	}
	st := getStats(t, ts)
	if st.Solves != 1 {
		t.Fatalf("solves = %d, want exactly 1", st.Solves)
	}
	if st.Coalesced != followers {
		t.Fatalf("stats.coalesced = %d, want %d", st.Coalesced, followers)
	}
}

// TestPanicIsolation checks a panicking solve maps to 500 and leaves the
// pool serving later requests.
func TestPanicIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.solveFn = func(ctx context.Context, req *solveRequest) (*encodingapi.EncodeResult, error) {
		if strings.Contains(req.cs.Syms.Name(0), "boom") {
			panic("kaboom")
		}
		return s.solveLibrary(ctx, req)
	}
	resp, body := post(t, ts, reqBody(t, encodingapi.EncodeRequest{Constraints: "face boom other\n"}))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("kaboom")) {
		t.Fatalf("panic message missing: %s", body)
	}
	// The worker survived; a normal request still succeeds.
	resp, body = post(t, ts, reqBody(t, encodingapi.EncodeRequest{Constraints: feasibleText}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic status = %d; body: %s", resp.StatusCode, body)
	}
	if st := getStats(t, ts); st.SolvePanics != 1 || st.ServerError != 1 {
		t.Fatalf("panics = %d, server errors = %d", st.SolvePanics, st.ServerError)
	}
}

// TestGracefulShutdown checks Shutdown rejects new work, drains the
// in-flight solve to a successful response, and returns cleanly.
func TestGracefulShutdown(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s.solveFn = func(ctx context.Context, req *solveRequest) (*encodingapi.EncodeResult, error) {
		started <- struct{}{}
		<-release
		return &encodingapi.EncodeResult{Mode: req.mode, Feasible: true, Text: "drained\n"}, nil
	}

	type reply struct {
		status int
		data   []byte
	}
	inflight := make(chan reply, 1)
	go func() {
		resp, data := post(t, ts, reqBody(t, encodingapi.EncodeRequest{Constraints: feasibleText}))
		inflight <- reply{resp.StatusCode, data}
	}()
	<-started

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// Wait for draining to take effect, then confirm intake is closed.
	deadline := time.Now().Add(5 * time.Second)
	for !s.isDraining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	resp, _ := post(t, ts, reqBody(t, encodingapi.EncodeRequest{Constraints: "face x y\n"}))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("during drain: status = %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: status = %d, want 503", hresp.StatusCode)
	}

	close(release) // let the in-flight solve finish
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	in := <-inflight
	if in.status != http.StatusOK {
		t.Fatalf("in-flight request lost during drain: status %d, body %s", in.status, in.data)
	}
	var out encodingapi.EncodeResult
	if err := json.Unmarshal(in.data, &out); err != nil {
		t.Fatalf("unmarshal in-flight response: %v", err)
	}
	if out.Text != "drained\n" {
		t.Fatalf("in-flight response text = %q", out.Text)
	}
}

// TestShutdownCancelsOnExpiredBudget checks a drain that overruns its
// context aborts running solves instead of hanging.
func TestShutdownCancelsOnExpiredBudget(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	started := make(chan struct{}, 1)
	s.solveFn = func(ctx context.Context, req *solveRequest) (*encodingapi.EncodeResult, error) {
		started <- struct{}{}
		<-ctx.Done() // only the shutdown cancel can end this solve
		return nil, ctx.Err()
	}
	done := make(chan int, 1)
	go func() {
		resp, _ := post(t, ts, reqBody(t, encodingapi.EncodeRequest{Constraints: feasibleText}))
		done <- resp.StatusCode
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
	if status := <-done; status != http.StatusServiceUnavailable {
		t.Fatalf("canceled solve status = %d, want 503", status)
	}
}

// TestNoGoroutineLeaks runs a burst of real traffic, shuts down, and checks
// the goroutine count returns to its baseline.
func TestNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	s := New(Config{Workers: 4, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mode := []string{modeFeasible, modeExact, modeHeuristic}[i%3]
			req := encodingapi.EncodeRequest{Constraints: feasibleText, Mode: mode}
			if mode == modeHeuristic {
				req.Bits = 2
			}
			post(t, ts, reqBody(t, req))
		}(i)
	}
	wg.Wait()
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStatsAndHealthEndpoints sanity-checks the observability surface.
// Debug is on so the gated expvar endpoint is mounted.
func TestStatsAndHealthEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Debug: true})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	post(t, ts, reqBody(t, encodingapi.EncodeRequest{Constraints: feasibleText}))
	st := getStats(t, ts)
	if st.Requests != 1 || st.OK != 1 || st.Solves != 1 {
		t.Fatalf("stats after one request: %+v", st)
	}
	var total int64
	for _, b := range st.Latency {
		total += b.Count
	}
	if total != 1 {
		t.Fatalf("latency histogram total = %d, want 1", total)
	}

	resp, err = http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars = %d", resp.StatusCode)
	}
}

// TestTruncatedExactNotCached checks budget-truncated exact results
// (Optimal=false) bypass the cache so a richer budget can retry.
func TestTruncatedExactNotCached(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.solveFn = func(ctx context.Context, req *solveRequest) (*encodingapi.EncodeResult, error) {
		return &encodingapi.EncodeResult{Mode: modeExact, Feasible: true, Optimal: false, Text: "truncated\n"}, nil
	}
	body := reqBody(t, encodingapi.EncodeRequest{Constraints: feasibleText})
	post(t, ts, body)
	post(t, ts, body)
	if st := getStats(t, ts); st.Solves != 2 || st.CacheEntries != 0 {
		t.Fatalf("truncated result entered the cache: solves %d entries %d", st.Solves, st.CacheEntries)
	}
}

// TestInfeasibleInputsReturn422 pins the infeasibility contract of
// POST /v1/encode across hand-written and generated inputs: every
// infeasible set must come back as a structured 422 carrying the typed
// solver diagnosis (never a 500), and the same text asked in feasible mode
// must be a 200 with "feasible": false.
func TestInfeasibleInputsReturn422(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: -1})

	texts := []string{
		"dom a > b\ndom b > a\n",           // dominance cycle
		"disj a = b | c\ndisj b = a | c\n", // disjunctive cycle through a,b
		"symbols a b c d\nface a b\nface a c\nface a d\nface b c\nface b d\nface c d\n", // K4 of faces
	}
	// Harvest more from the unrestricted generator: whatever the P-1 check
	// rejects must round through the service as a 422.
	cfg := gen.DefaultConfig(5)
	cfg.Feasible = false
	for seed := int64(1); seed <= 40 && len(texts) < 8; seed++ {
		inst := gen.Random(seed, cfg)
		if !encodingapi.Feasible(inst.Set) {
			texts = append(texts, inst.Set.Format())
		}
	}
	if len(texts) < 4 {
		t.Fatalf("generator produced no infeasible instances to test with")
	}

	for i, text := range texts {
		cs, err := encodingapi.ParseString(text)
		if err != nil {
			t.Fatalf("case %d does not parse: %v\n%s", i, err, text)
		}
		if encodingapi.Feasible(cs) {
			continue // hand-written cases are infeasible; generated ones were filtered
		}
		resp, body := post(t, ts, fmt.Sprintf(`{"constraints": %q}`, text))
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("case %d: status = %d, want 422; body: %s\ninput:\n%s",
				i, resp.StatusCode, body, text)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("case %d: 422 body is not the structured error shape: %v: %s", i, err, body)
		}
		if er.Error.Code != encodingapi.CodeInfeasible || !strings.Contains(er.Error.Message, "infeasible") {
			t.Fatalf("case %d: error does not name infeasibility: %+v", i, er.Error)
		}

		resp, body = post(t, ts, fmt.Sprintf(`{"constraints": %q, "mode": "feasible"}`, text))
		if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"feasible": false`)) {
			t.Fatalf("case %d: feasible mode: status %d body %s", i, resp.StatusCode, body)
		}
	}

	// The typed error's conflict subset must surface in the 422 body for a
	// small instance, so clients see *which* constraints clash.
	resp, body := post(t, ts, fmt.Sprintf(`{"constraints": %q}`, "face c d\ndom a > b\ndom b > a\n"))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422; body: %s", resp.StatusCode, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("422 body is not the structured error shape: %v: %s", err, body)
	}
	if !strings.Contains(er.Error.Message, "minimal conflicting subset") ||
		!strings.Contains(er.Error.Message, "dom a > b") {
		t.Fatalf("422 body does not carry the conflict subset: %s", body)
	}
	// The machine-readable conflict field carries the same subset, one
	// re-parseable constraint per line.
	if len(er.Error.Conflict) == 0 {
		t.Fatalf("422 body has no conflict field: %s", body)
	}
	if _, err := encodingapi.ParseString(strings.Join(er.Error.Conflict, "\n") + "\n"); err != nil {
		t.Fatalf("conflict lines do not re-parse: %v: %q", err, er.Error.Conflict)
	}
}
