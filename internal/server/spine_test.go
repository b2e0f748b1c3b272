package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/encodingapi"
)

// disjointFaces returns k two-symbol face constraints over disjoint
// symbols: a set with k connected components.
func disjointFaces(k int) string {
	var b strings.Builder
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "face a%d b%d\n", i, i)
	}
	return b.String()
}

// encodeOK posts body to /v1/encode and decodes the 200 answer.
func encodeOK(t *testing.T, ts *httptest.Server, body string) encodingapi.EncodeResult {
	t.Helper()
	resp, data := post(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var out encodingapi.EncodeResult
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDecomposedRequestNeverShedsItself: a sync decomposed request keeps
// at most one component solve per pool worker in flight, so on an idle
// server its own fan-out cannot fill the queue and shed it with 429.
func TestDecomposedRequestNeverShedsItself(t *testing.T) {
	for _, k := range []int{8, 40} {
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
			encodeOK(t, ts, fmt.Sprintf(`{"constraints": %q, "decompose": true}`, disjointFaces(k)))
			st := s.Stats()
			if st.Solves != int64(k) || st.Overloads != 0 {
				t.Errorf("solves=%d overloads=%d, want %d, 0", st.Solves, st.Overloads, k)
			}
		})
	}
}

// TestDecomposeIsPartOfCacheIdentity: decomposed and monolithic solves of
// one set may assign different codes, so neither may answer the other
// from the cache.
func TestDecomposeIsPartOfCacheIdentity(t *testing.T) {
	const text = "face a b\nface c d\n"
	mono := fmt.Sprintf(`{"constraints": %q}`, text)
	dec := fmt.Sprintf(`{"constraints": %q, "decompose": true}`, text)

	_, fresh := newTestServer(t, Config{})
	want := encodeOK(t, fresh, mono)

	_, ts := newTestServer(t, Config{})
	encodeOK(t, ts, dec)
	got := encodeOK(t, ts, mono)
	if got.Cached {
		t.Error("monolithic request after a decomposed one was a cache hit")
	}
	if got.Text != want.Text {
		t.Errorf("monolithic codes after a decomposed request:\n%s\nwant the fresh monolithic codes:\n%s", got.Text, want.Text)
	}
	if again := encodeOK(t, ts, dec); !again.Cached {
		t.Error("repeated decomposed request missed the cache")
	}
}

// TestCoalescedComponentConflictNamesOwnSymbols: a request that shares
// another request's in-flight solve of an infeasible component, with its
// symbols interned in another order, still gets the conflict stated in the
// right names.
func TestCoalescedComponentConflictNamesOwnSymbols(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	s.solveFn = func(ctx context.Context, req *solveRequest) (*encodingapi.EncodeResult, error) {
		entered <- struct{}{}
		<-release
		return s.solveLibrary(ctx, req)
	}
	conflicts := make(chan []string, 2)
	send := func(text string) {
		var body errorResponse
		resp, err := http.Post(ts.URL+"/v1/encode", "application/json",
			strings.NewReader(fmt.Sprintf(`{"constraints": %q, "decompose": true}`, text)))
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
		}
		if err != nil || resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%q: want 422, got %v %+v", text, err, body)
		}
		conflicts <- body.Error.Conflict
	}
	// The leader interns a2, b2, c2; the follower c2, b2, a2.
	go send("disj a2 = b2 | c2\nface b2 c2\nface p q\n")
	<-entered
	<-entered
	go send("face r s\nface c2 b2\ndisj a2 = c2 | b2\n")
	for s.metrics.Coalesced.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < 2; i++ {
		lines := <-conflicts
		if joined := strings.Join(lines, "\n"); !strings.Contains(joined, "disj a2 = ") {
			t.Errorf("conflict %q lost the disjunctive's parent a2", joined)
		}
	}
}

// TestDecomposedTraceEntry: a decomposed request publishes one trace entry
// holding the split, one component span per component and the queue and
// solve spans of each component that missed the cache.
func TestDecomposedTraceEntry(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	count := func(id uint64) map[string]int {
		t.Helper()
		e, status := traceGet(t, ts, id)
		if status != http.StatusOK {
			t.Fatalf("GET /v1/trace/%d = %d", id, status)
		}
		n := map[string]int{}
		for _, sp := range e.Spans {
			n[sp.Name]++
			if sp.Name == "decomp.component" && sp.Attrs["cached"] == 1 {
				n["cached"]++
			}
		}
		return n
	}

	first := encodeOK(t, ts, fmt.Sprintf(`{"constraints": %q, "decompose": true}`, "face a b\nface c d\n"))
	n := count(first.TraceID)
	if n["server.decompose"] != 1 || n["decomp.component"] != 2 || n["server.queue"] != 2 || n["server.solve"] != 2 || n["cached"] != 0 {
		t.Errorf("cold request spans = %v", n)
	}
	// {a,b} is cached now; only {e,f} reaches the pool.
	second := encodeOK(t, ts, fmt.Sprintf(`{"constraints": %q, "decompose": true}`, "face b a\nface e f\n"))
	n = count(second.TraceID)
	if n["server.decompose"] != 1 || n["decomp.component"] != 2 || n["server.queue"] != 1 || n["server.solve"] != 1 || n["cached"] != 1 {
		t.Errorf("half-cached request spans = %v", n)
	}

	resp, err := http.Get(ts.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Traces []traceEntry `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) != 2 {
		t.Errorf("%d trace entries for two decomposed requests, want 2", len(list.Traces))
	}
}

// TestDecomposedJobRuns: a decomposed job moves through running to done
// and answers what the sync path answers.
func TestDecomposedJobRuns(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: -1})
	text := disjointFaces(3)
	sync := encodeOK(t, ts, fmt.Sprintf(`{"constraints": %q, "decompose": true}`, text))

	resp, data := postJSON(t, ts, "/v1/jobs", fmt.Sprintf(`{"encode": {"constraints": %q, "decompose": true}}`, text), "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, data)
	}
	var job encodingapi.Job
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatal(err)
	}
	resp, data = doReq(t, ts, http.MethodGet, "/v1/jobs/"+job.ID+"?wait=5s", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poll = %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatal(err)
	}
	if job.State != "done" || job.Started == nil || job.Result == nil {
		t.Fatalf("job = %+v, want done with a start time", job)
	}
	if job.Result.Text != sync.Text {
		t.Errorf("job codes:\n%s\nsync codes:\n%s", job.Result.Text, sync.Text)
	}
}

// TestHeuristicBitsBounded: a heuristic code length below what the
// symbols need, or above the engine's limit, is the client's error on
// every surface, and the server keeps answering afterwards.
func TestHeuristicBitsBounded(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	bodies := []string{
		`{"constraints":"face a b\nface b c\n","mode":"heuristic","bits":40}`,
		`{"constraints":"face a b c\nface d e\n","mode":"heuristic","bits":1}`,
	}
	for _, body := range bodies {
		resp, data := postJSON(t, ts, "/v1/encode", body, "")
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), encodingapi.CodeBadRequest) {
			t.Errorf("encode %s: status %d: %s", body, resp.StatusCode, data)
		}
		resp, data = postJSON(t, ts, "/v1/jobs", `{"encode":`+body+`}`, "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("job %s: status %d: %s", body, resp.StatusCode, data)
		}
		resp, data = postJSON(t, ts, "/v1/encode/batch", `{"items":[`+body+`]}`, "")
		var out encodingapi.BatchResult
		if err := json.Unmarshal(data, &out); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %s: status %d: %s", body, resp.StatusCode, data)
		}
		if it := out.Items[0]; it.Status != http.StatusBadRequest || it.Error == nil || it.Error.Code != encodingapi.CodeBadRequest {
			t.Errorf("batch item %s: %+v", body, it)
		}
	}
	got := encodeOK(t, ts, `{"constraints":"face a b\nface b c\n","mode":"heuristic","bits":2}`)
	if got.Bits != 2 {
		t.Errorf("follow-up heuristic request: bits = %d, want 2", got.Bits)
	}
}

// TestZeroStateMachineRejected: a KISS2 text with no transitions describes
// a machine with no states, which no strategy can encode; it is a 400, not
// a solve panic.
func TestZeroStateMachineRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, kiss := range []string{"#000", ".i 1\n.o 1\n"} {
		body := fmt.Sprintf(`{"kiss": %q}`, kiss)
		resp, data := postJSON(t, ts, "/v1/pipeline", body, "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("pipeline %q: status %d: %s", kiss, resp.StatusCode, data)
		}
		resp, data = postJSON(t, ts, "/v1/jobs", `{"pipeline":`+body+`}`, "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("job %q: status %d: %s", kiss, resp.StatusCode, data)
		}
	}
}
