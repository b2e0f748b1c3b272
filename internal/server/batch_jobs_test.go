package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/encodingapi"
)

// postJSON posts a JSON body to an arbitrary path with optional tenant key.
func postJSON(t *testing.T, ts *httptest.Server, path, body, tenant string) (*http.Response, []byte) {
	t.Helper()
	return doReq(t, ts, http.MethodPost, path, body, tenant)
}

func doReq(t *testing.T, ts *httptest.Server, method, path, body, tenant string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if tenant != "" {
		req.Header.Set("X-API-Key", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, data
}

// TestBatchDedupesToOneSolvePerUniqueProblem is the tentpole acceptance
// check: a batch of N items with duplicates runs exactly one solve per
// canonical problem, and duplicates carry their leader's answer.
func TestBatchDedupesToOneSolvePerUniqueProblem(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: -1}) // no cache: solves are countable
	const (
		textA = "face a b\nface b c\n"
		textB = "face x y\n"
		// textA with permuted whitespace: canonically identical to textA.
		textAPermuted = "face  a ,  b\nface b c\n"
	)
	body := fmt.Sprintf(`{"items": [
		{"constraints": %q}, {"constraints": %q}, {"constraints": %q},
		{"constraints": %q}, {"constraints": %q}, {"constraints": %q}
	]}`, textA, textB, textA, textAPermuted, textB, textA)

	resp, data := postJSON(t, ts, "/v1/encode/batch", body, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var out encodingapi.BatchResult
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 6 {
		t.Fatalf("items = %d, want 6", len(out.Items))
	}
	if out.UniqueItems != 2 || out.Deduped != 4 {
		t.Fatalf("unique = %d, deduped = %d; want 2, 4", out.UniqueItems, out.Deduped)
	}
	for i, it := range out.Items {
		if it.Status != http.StatusOK || it.Result == nil {
			t.Fatalf("item %d: status %d, error %+v", i, it.Status, it.Error)
		}
		if it.Result.TraceID == 0 {
			t.Fatalf("item %d: missing trace id", i)
		}
	}
	// Duplicates answer with their leader's bytes.
	for _, pair := range [][2]int{{0, 2}, {0, 3}, {0, 5}, {1, 4}} {
		if a, b := out.Items[pair[0]].Result.Text, out.Items[pair[1]].Result.Text; a != b {
			t.Fatalf("items %v: texts differ: %q vs %q", pair, a, b)
		}
	}
	st := getStats(t, ts)
	if st.Solves != 2 {
		t.Fatalf("solves = %d, want exactly 2 (one per unique problem)", st.Solves)
	}
	if st.BatchRequests != 1 || st.BatchItems != 6 || st.BatchDeduped != 4 {
		t.Fatalf("batch stats: %+v", st)
	}
}

// TestBatchPartialFailure checks one bad item fails alone: parse errors
// and infeasibility stay per-item while siblings succeed.
func TestBatchPartialFailure(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := fmt.Sprintf(`{"items": [
		{"constraints": %q},
		{"constraints": %q},
		{"constraints": "face\n"},
		{"constraints": %q, "timeout_ms": 50}
	]}`, feasibleText, infeasibleText, feasibleText)

	resp, data := postJSON(t, ts, "/v1/encode/batch", body, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var out encodingapi.BatchResult
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	wantStatus := []int{http.StatusOK, http.StatusUnprocessableEntity, http.StatusBadRequest, http.StatusBadRequest}
	wantCode := []string{"", encodingapi.CodeInfeasible, encodingapi.CodeBadRequest, encodingapi.CodeBadRequest}
	for i, it := range out.Items {
		if it.Status != wantStatus[i] {
			t.Fatalf("item %d: status = %d, want %d (error %+v)", i, it.Status, wantStatus[i], it.Error)
		}
		if wantCode[i] == "" {
			if it.Result == nil || it.Error != nil {
				t.Fatalf("item %d: want success, got %+v", i, it)
			}
			continue
		}
		if it.Error == nil || it.Error.Code != wantCode[i] {
			t.Fatalf("item %d: error = %+v, want code %q", i, it.Error, wantCode[i])
		}
	}
	// The infeasible item carries a re-parseable conflict.
	if c := out.Items[1].Error.Conflict; len(c) == 0 {
		t.Fatalf("infeasible item: missing conflict lines")
	}
	// The per-item timeout_ms rejection names the batch-level field.
	if msg := out.Items[3].Error.Message; !strings.Contains(msg, "per-batch") {
		t.Fatalf("timeout item message = %q", msg)
	}
}

// TestBatchValidation drives the batch-level rejections.
func TestBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatchItems: 2})
	cases := []struct {
		name, body string
		status     int
	}{
		{"empty items", `{"items": []}`, http.StatusBadRequest},
		{"missing items", `{}`, http.StatusBadRequest},
		{"too many items", fmt.Sprintf(`{"items": [{"constraints": %q}, {"constraints": %q}, {"constraints": %q}]}`,
			feasibleText, feasibleText, feasibleText), http.StatusBadRequest},
		{"negative batch timeout", fmt.Sprintf(`{"items": [{"constraints": %q}], "timeout_ms": -1}`, feasibleText), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postJSON(t, ts, "/v1/encode/batch", tc.body, "")
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d: %s", resp.StatusCode, tc.status, data)
			}
			var er errorResponse
			if err := json.Unmarshal(data, &er); err != nil || er.Error.Code != encodingapi.CodeBadRequest {
				t.Fatalf("error body = %s (%v)", data, err)
			}
		})
	}
}

// TestAsyncJobMatchesSync is the async acceptance check: submit → 202 →
// long-poll → done, with the job's result byte-identical to the
// synchronous answer for the same problem.
func TestAsyncJobMatchesSync(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: -1})

	resp, syncData := post(t, ts, reqBody(t, encodingapi.EncodeRequest{Constraints: feasibleText}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync status = %d: %s", resp.StatusCode, syncData)
	}
	var sync encodingapi.EncodeResult
	if err := json.Unmarshal(syncData, &sync); err != nil {
		t.Fatal(err)
	}

	resp, data := postJSON(t, ts, "/v1/jobs", fmt.Sprintf(`{"encode": {"constraints": %q}}`, feasibleText), "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202: %s", resp.StatusCode, data)
	}
	var submitted encodingapi.Job
	if err := json.Unmarshal(data, &submitted); err != nil {
		t.Fatal(err)
	}
	if submitted.ID == "" || submitted.Result != nil {
		t.Fatalf("submit view = %+v", submitted)
	}

	resp, data = doReq(t, ts, http.MethodGet, "/v1/jobs/"+submitted.ID+"?wait=5s", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poll status = %d: %s", resp.StatusCode, data)
	}
	var done encodingapi.Job
	if err := json.Unmarshal(data, &done); err != nil {
		t.Fatal(err)
	}
	if done.State != "done" || done.Result == nil {
		t.Fatalf("job after wait: %+v", done)
	}
	if done.Result.Text != sync.Text || done.Result.Bits != sync.Bits {
		t.Fatalf("async text %q (bits %d) != sync text %q (bits %d)",
			done.Result.Text, done.Result.Bits, sync.Text, sync.Bits)
	}
	if done.Started == nil || done.Finished == nil {
		t.Fatalf("missing lifecycle timestamps: %+v", done)
	}
	st := getStats(t, ts)
	if st.JobsSubmitted != 1 || st.JobsDone != 1 || st.JobsActive != 0 || st.JobsRetained != 1 {
		t.Fatalf("job stats: submitted=%d done=%d active=%d retained=%d",
			st.JobsSubmitted, st.JobsDone, st.JobsActive, st.JobsRetained)
	}
}

// TestJobCancelWhileQueued occupies the only worker, submits a job that
// cannot start, and cancels it: the job must turn terminally cancelled
// immediately, without ever running.
func TestJobCancelWhileQueued(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheEntries: -1})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s.solveFn = func(ctx context.Context, req *solveRequest) (*encodingapi.EncodeResult, error) {
		started <- struct{}{}
		select {
		case <-release:
			return &encodingapi.EncodeResult{Mode: req.mode, Feasible: true, Text: "x = 0\n"}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	defer close(release)

	// Occupy the worker with a sync request. Plain http in the goroutine:
	// t.Fatalf may only be called from the test goroutine.
	body := reqBody(t, encodingapi.EncodeRequest{Constraints: feasibleText})
	go func() {
		resp, err := http.Post(ts.URL+"/v1/encode", "application/json", strings.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started

	resp, data := postJSON(t, ts, "/v1/jobs", `{"encode": {"constraints": "face p q\n"}}`, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, data)
	}
	var jv encodingapi.Job
	if err := json.Unmarshal(data, &jv); err != nil {
		t.Fatal(err)
	}

	resp, data = doReq(t, ts, http.MethodDelete, "/v1/jobs/"+jv.ID, "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d: %s", resp.StatusCode, data)
	}
	var cancelled encodingapi.Job
	if err := json.Unmarshal(data, &cancelled); err != nil {
		t.Fatal(err)
	}
	if cancelled.State != "cancelled" || cancelled.Started != nil {
		t.Fatalf("queued cancel: %+v", cancelled)
	}
	// Terminal count settles once the runner observes the cancellation.
	waitFor(t, func() bool { return getStats(t, ts).JobsCancelled == 1 })
}

// TestJobCancelWhileRunning cancels a job mid-solve: DELETE reports
// "running", the solve observes its cut context, and the job settles
// terminally cancelled.
func TestJobCancelWhileRunning(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: -1})
	started := make(chan struct{}, 1)
	s.solveFn = func(ctx context.Context, req *solveRequest) (*encodingapi.EncodeResult, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}

	resp, data := postJSON(t, ts, "/v1/jobs", fmt.Sprintf(`{"encode": {"constraints": %q}}`, feasibleText), "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, data)
	}
	var jv encodingapi.Job
	if err := json.Unmarshal(data, &jv); err != nil {
		t.Fatal(err)
	}
	<-started

	resp, data = doReq(t, ts, http.MethodDelete, "/v1/jobs/"+jv.ID, "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d: %s", resp.StatusCode, data)
	}
	var mid encodingapi.Job
	if err := json.Unmarshal(data, &mid); err != nil {
		t.Fatal(err)
	}
	if mid.State != "running" {
		t.Fatalf("cancel mid-solve state = %q, want running", mid.State)
	}

	resp, data = doReq(t, ts, http.MethodGet, "/v1/jobs/"+jv.ID+"?wait=5s", "", "")
	var final encodingapi.Job
	if err := json.Unmarshal(data, &final); err != nil {
		t.Fatal(err)
	}
	if final.State != "cancelled" || final.Error == nil || final.Error.Code != encodingapi.CodeCanceled {
		t.Fatalf("final state: %+v", final)
	}
	if st := getStats(t, ts); st.JobsCancelled != 1 {
		t.Fatalf("jobs_cancelled = %d, want 1", st.JobsCancelled)
	}
}

// TestJobIDsAreCapabilities: unknown ids and other tenants' ids are
// indistinguishable 404s, and listing is tenant-scoped.
func TestJobIDsAreCapabilities(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := doReq(t, ts, http.MethodGet, "/v1/jobs/j-nope", "", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id = %d, want 404", resp.StatusCode)
	}

	resp, data := postJSON(t, ts, "/v1/jobs",
		fmt.Sprintf(`{"encode": {"constraints": %q}}`, feasibleText), "tenant-a")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, data)
	}
	var jv encodingapi.Job
	if err := json.Unmarshal(data, &jv); err != nil {
		t.Fatal(err)
	}
	if resp, _ := doReq(t, ts, http.MethodGet, "/v1/jobs/"+jv.ID, "", "tenant-b"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant get = %d, want 404", resp.StatusCode)
	}
	if resp, _ := doReq(t, ts, http.MethodDelete, "/v1/jobs/"+jv.ID, "", "tenant-b"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant delete = %d, want 404", resp.StatusCode)
	}

	var listed struct {
		Jobs []encodingapi.Job `json:"jobs"`
	}
	_, data = doReq(t, ts, http.MethodGet, "/v1/jobs", "", "tenant-b")
	if err := json.Unmarshal(data, &listed); err != nil || len(listed.Jobs) != 0 {
		t.Fatalf("tenant-b list = %s (%v)", data, err)
	}
	_, data = doReq(t, ts, http.MethodGet, "/v1/jobs", "", "tenant-a")
	if err := json.Unmarshal(data, &listed); err != nil || len(listed.Jobs) != 1 {
		t.Fatalf("tenant-a list = %s (%v)", data, err)
	}
}

// TestStatsNeverRenderRawTenantCredentials: /v1/stats is unauthenticated,
// so its per-tenant rows must be keyed by the opaque credential digest —
// echoing the raw Bearer token / X-API-Key would let any caller harvest
// and replay every tenant's credential.
func TestStatsNeverRenderRawTenantCredentials(t *testing.T) {
	_, ts := newTestServer(t, Config{TenantMaxActive: 2})
	const secret = "super-secret-api-key"

	resp, data := postJSON(t, ts, "/v1/encode", reqBody(t, encodingapi.EncodeRequest{Constraints: feasibleText}), secret)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("x-api-key solve = %d: %s", resp.StatusCode, data)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/encode",
		strings.NewReader(reqBody(t, encodingapi.EncodeRequest{Constraints: "face m n\n"})))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+secret)
	bresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("bearer solve = %d", bresp.StatusCode)
	}

	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), secret) {
		t.Fatalf("stats body leaks the raw credential: %s", raw)
	}
	var st Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	// Both credential forms account under one digest row.
	if _, ok := st.Tenants[tenantKey(secret)]; !ok {
		t.Fatalf("no row under the credential digest: %+v", st.Tenants)
	}
}

// TestJobListingRequiresCredential: all unauthenticated clients share the
// anonymous tenant, so the listing (which reveals job-id capabilities)
// must demand a credential; anonymous jobs stay reachable by their own id.
func TestJobListingRequiresCredential(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts, "/v1/jobs", fmt.Sprintf(`{"encode": {"constraints": %q}}`, feasibleText), "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("anonymous submit = %d: %s", resp.StatusCode, data)
	}
	var jv encodingapi.Job
	if err := json.Unmarshal(data, &jv); err != nil {
		t.Fatal(err)
	}

	resp, data = doReq(t, ts, http.MethodGet, "/v1/jobs", "", "")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("anonymous list = %d, want 401: %s", resp.StatusCode, data)
	}
	var er errorResponse
	if err := json.Unmarshal(data, &er); err != nil || er.Error.Code != encodingapi.CodeCredentialRequired {
		t.Fatalf("error body = %s (%v)", data, err)
	}

	// The submit-time id remains a working capability without a credential.
	if resp, data := doReq(t, ts, http.MethodGet, "/v1/jobs/"+jv.ID+"?wait=5s", "", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("anonymous poll by id = %d: %s", resp.StatusCode, data)
	}
	// Credentialed listings still work (and exclude anonymous jobs).
	var listed struct {
		Jobs []encodingapi.Job `json:"jobs"`
	}
	resp, data = doReq(t, ts, http.MethodGet, "/v1/jobs", "", "tenant-a")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("credentialed list = %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &listed); err != nil || len(listed.Jobs) != 0 {
		t.Fatalf("credentialed list = %s (%v)", data, err)
	}
}

// TestBatchPerItemElapsed: each batch item reports its own latency — a
// fast item must not inherit a slow sibling's wall-clock time.
func TestBatchPerItemElapsed(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, CacheEntries: -1})
	const slowDelay = 150 * time.Millisecond
	s.solveFn = func(ctx context.Context, req *solveRequest) (*encodingapi.EncodeResult, error) {
		if req.primeLimit == 7 { // the marked slow item
			time.Sleep(slowDelay)
		}
		return &encodingapi.EncodeResult{Mode: req.mode, Feasible: true, Text: "x = 0\n"}, nil
	}

	body := fmt.Sprintf(`{"items": [{"constraints": %q}, {"constraints": "face m n\n", "prime_limit": 7}]}`,
		feasibleText)
	resp, data := postJSON(t, ts, "/v1/encode/batch", body, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var out encodingapi.BatchResult
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	fast, slow := out.Items[0].Result, out.Items[1].Result
	if fast == nil || slow == nil {
		t.Fatalf("items missing results: %+v", out.Items)
	}
	if min := float64(slowDelay.Milliseconds()); slow.ElapsedMS < min {
		t.Fatalf("slow item elapsed = %vms, want >= %vms", slow.ElapsedMS, min)
	}
	if limit := float64(slowDelay.Milliseconds()) / 2; fast.ElapsedMS >= limit {
		t.Fatalf("fast item elapsed = %vms, want < %vms (must not inherit the batch wall-clock)", fast.ElapsedMS, limit)
	}
	if out.ElapsedMS < slow.ElapsedMS-1 {
		t.Fatalf("batch elapsed %vms below its slowest item's %vms", out.ElapsedMS, slow.ElapsedMS)
	}
}

// TestTenantQuotaShedsSyncTraffic: with one active-solve slot per tenant,
// a tenant's second concurrent solve sheds 429 quota_exhausted while
// another tenant still gets through.
func TestTenantQuotaShedsSyncTraffic(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, CacheEntries: -1, TenantMaxActive: 1, RetryAfter: 2 * time.Second})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s.solveFn = func(ctx context.Context, req *solveRequest) (*encodingapi.EncodeResult, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &encodingapi.EncodeResult{Mode: req.mode, Feasible: true, Text: "x = 0\n"}, nil
	}
	defer close(release)

	go postJSON(t, ts, "/v1/encode", reqBody(t, encodingapi.EncodeRequest{Constraints: feasibleText}), "tenant-a")
	<-started

	resp, data := postJSON(t, ts, "/v1/encode", reqBody(t, encodingapi.EncodeRequest{Constraints: "face p q\n"}), "tenant-a")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("same-tenant second solve = %d, want 429: %s", resp.StatusCode, data)
	}
	var er errorResponse
	if err := json.Unmarshal(data, &er); err != nil || er.Error.Code != encodingapi.CodeQuotaExhausted {
		t.Fatalf("error body = %s (%v)", data, err)
	}
	if resp.Header.Get("Retry-After") == "" || er.Error.RetryAfterS <= 0 {
		t.Fatalf("quota rejection missing Retry-After: header=%q body=%+v", resp.Header.Get("Retry-After"), er.Error)
	}

	// A different tenant is admitted (its solve just parks on the pool).
	otherDone := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts, "/v1/encode", reqBody(t, encodingapi.EncodeRequest{Constraints: "face m n\n"}), "tenant-b")
		otherDone <- resp.StatusCode
	}()
	<-started

	st := getStats(t, ts)
	if st.QuotaRejections != 1 {
		t.Fatalf("quota_rejections = %d, want 1", st.QuotaRejections)
	}
	if ten, ok := st.Tenants[tenantKey("tenant-a")]; !ok || ten.QuotaRejections != 1 {
		t.Fatalf("tenant stats: %+v", st.Tenants)
	}

	release <- struct{}{}
	release <- struct{}{}
	if status := <-otherDone; status != http.StatusOK {
		t.Fatalf("other tenant = %d, want 200", status)
	}
}

// TestTenantJobQuota: with one live job per tenant, the second submit
// sheds 429 until the first job finishes.
func TestTenantJobQuota(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: -1, TenantMaxJobs: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s.solveFn = func(ctx context.Context, req *solveRequest) (*encodingapi.EncodeResult, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &encodingapi.EncodeResult{Mode: req.mode, Feasible: true, Text: "x = 0\n"}, nil
	}
	defer close(release)

	resp, data := postJSON(t, ts, "/v1/jobs",
		fmt.Sprintf(`{"encode": {"constraints": %q}}`, feasibleText), "tenant-a")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d: %s", resp.StatusCode, data)
	}
	var first encodingapi.Job
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatal(err)
	}
	<-started

	resp, data = postJSON(t, ts, "/v1/jobs", `{"encode": {"constraints": "face p q\n"}}`, "tenant-a")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit = %d, want 429: %s", resp.StatusCode, data)
	}
	var er errorResponse
	if err := json.Unmarshal(data, &er); err != nil || er.Error.Code != encodingapi.CodeQuotaExhausted {
		t.Fatalf("error body = %s (%v)", data, err)
	}

	release <- struct{}{}
	doReq(t, ts, http.MethodGet, "/v1/jobs/"+first.ID+"?wait=5s", "", "tenant-a")
	resp, data = postJSON(t, ts, "/v1/jobs", `{"encode": {"constraints": "face p q\n"}}`, "tenant-a")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-drain submit = %d: %s", resp.StatusCode, data)
	}
}

// TestErrorShapeTable checks every endpoint renders the one versioned
// error body: {"error":{"code","message",...}}.
func TestErrorShapeTable(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, method, path, body string
		status                   int
		code                     string
	}{
		{"encode bad json", http.MethodPost, "/v1/encode", "{", http.StatusBadRequest, encodingapi.CodeBadRequest},
		{"encode infeasible", http.MethodPost, "/v1/encode", fmt.Sprintf(`{"constraints": %q}`, infeasibleText), http.StatusUnprocessableEntity, encodingapi.CodeInfeasible},
		{"encode bad method", http.MethodGet, "/v1/encode", "", http.StatusMethodNotAllowed, encodingapi.CodeMethodNotAllowed},
		{"batch bad json", http.MethodPost, "/v1/encode/batch", "{", http.StatusBadRequest, encodingapi.CodeBadRequest},
		{"pipeline bad json", http.MethodPost, "/v1/pipeline", "{", http.StatusBadRequest, encodingapi.CodeBadRequest},
		{"jobs bad method", http.MethodDelete, "/v1/jobs", "", http.StatusMethodNotAllowed, encodingapi.CodeMethodNotAllowed},
		{"jobs anonymous list", http.MethodGet, "/v1/jobs", "", http.StatusUnauthorized, encodingapi.CodeCredentialRequired},
		{"jobs missing workload", http.MethodPost, "/v1/jobs", "{}", http.StatusBadRequest, encodingapi.CodeBadRequest},
		{"jobs both workloads", http.MethodPost, "/v1/jobs", fmt.Sprintf(`{"encode": {"constraints": %q}, "pipeline": {"kiss": "x"}}`, feasibleText), http.StatusBadRequest, encodingapi.CodeBadRequest},
		{"job unknown id", http.MethodGet, "/v1/jobs/j-missing", "", http.StatusNotFound, encodingapi.CodeNotFound},
		{"job bad method", http.MethodPut, "/v1/jobs/j-missing", "", http.StatusNotFound, encodingapi.CodeNotFound},
		{"trace unknown id", http.MethodGet, "/v1/trace/999999", "", http.StatusNotFound, encodingapi.CodeNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := doReq(t, ts, tc.method, tc.path, tc.body, "")
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d: %s", resp.StatusCode, tc.status, data)
			}
			var er errorResponse
			if err := json.Unmarshal(data, &er); err != nil {
				t.Fatalf("not the versioned error shape: %s (%v)", data, err)
			}
			if er.Error.Code != tc.code || er.Error.Message == "" {
				t.Fatalf("error = %+v, want code %q with message", er.Error, tc.code)
			}
		})
	}
}

// TestNoGoroutineLeaksWithJobsOutstandingAtDrain shuts the server down
// while jobs are queued, running and long-polled, and checks both that
// every job reaches a terminal state and that the goroutine count returns
// to baseline.
func TestNoGoroutineLeaksWithJobsOutstandingAtDrain(t *testing.T) {
	before := runtime.NumGoroutine()

	s := New(Config{Workers: 2, CacheEntries: -1})
	ts := httptest.NewServer(s.Handler())
	started := make(chan struct{}, 16)
	s.solveFn = func(ctx context.Context, req *solveRequest) (*encodingapi.EncodeResult, error) {
		started <- struct{}{}
		<-ctx.Done() // only shutdown can end these solves
		return nil, ctx.Err()
	}

	var ids []string
	for i := 0; i < 4; i++ {
		resp, data := postJSON(t, ts, "/v1/jobs",
			fmt.Sprintf(`{"encode": {"constraints": "face s%d t%d\n"}}`, i, i), "")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d: %s", i, resp.StatusCode, data)
		}
		var jv encodingapi.Job
		if err := json.Unmarshal(data, &jv); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, jv.ID)
	}
	<-started
	<-started // two running, two queued behind the workers

	// Park a long-poll on a running job; drain must wake it.
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		doReq(t, ts, http.MethodGet, "/v1/jobs/"+ids[0]+"?wait=25s", "", "")
	}()
	time.Sleep(20 * time.Millisecond) // let the poll park

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	<-pollDone
	ts.Close()

	for _, id := range ids {
		snap, ok := s.jobs.Get(id)
		if !ok || !snap.State.Terminal() {
			t.Fatalf("job %s not terminal after drain: %+v (ok=%v)", id, snap, ok)
		}
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

// TestJobStoreEvictionSurfacesAs404: a finished job past its TTL vanishes
// from the API like it never existed.
func TestJobStoreEvictionSurfacesAs404(t *testing.T) {
	_, ts := newTestServer(t, Config{JobTTL: time.Millisecond})
	resp, data := postJSON(t, ts, "/v1/jobs", fmt.Sprintf(`{"encode": {"constraints": %q}}`, feasibleText), "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, data)
	}
	var jv encodingapi.Job
	if err := json.Unmarshal(data, &jv); err != nil {
		t.Fatal(err)
	}
	// Wait for done, then for the TTL sweep (triggered by store accesses).
	doReq(t, ts, http.MethodGet, "/v1/jobs/"+jv.ID+"?wait=5s", "", "")
	time.Sleep(5 * time.Millisecond)
	waitFor(t, func() bool {
		resp, _ := doReq(t, ts, http.MethodGet, "/v1/jobs/"+jv.ID, "", "")
		return resp.StatusCode == http.StatusNotFound
	})
}

// TestBatchSharesOneParentTrace: coalesced batch items reference the
// batch's parent span through their trace parent ids.
func TestBatchSharesOneParentTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: -1})
	body := fmt.Sprintf(`{"items": [{"constraints": %q}, {"constraints": %q}, {"constraints": "face u v\n"}]}`,
		feasibleText, feasibleText)
	resp, data := postJSON(t, ts, "/v1/encode/batch", body, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var out encodingapi.BatchResult
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.TraceID == 0 {
		t.Fatal("missing batch trace id")
	}

	resp, data = doReq(t, ts, http.MethodGet, fmt.Sprintf("/v1/trace/%d", out.TraceID), "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("parent trace fetch = %d: %s", resp.StatusCode, data)
	}
	var parent traceEntry
	if err := json.Unmarshal(data, &parent); err != nil {
		t.Fatal(err)
	}
	if parent.Mode != modeBatch || parent.Items != 3 {
		t.Fatalf("parent entry: %+v", parent)
	}

	seen := map[uint64]bool{}
	for i, it := range out.Items {
		if it.Result == nil || it.Result.TraceID == 0 {
			t.Fatalf("item %d: no trace id", i)
		}
		if it.Result.TraceID == out.TraceID {
			t.Fatalf("item %d: trace id equals the parent's", i)
		}
		if seen[it.Result.TraceID] {
			t.Fatalf("item %d: trace id %d reused verbatim", i, it.Result.TraceID)
		}
		seen[it.Result.TraceID] = true

		resp, data = doReq(t, ts, http.MethodGet, fmt.Sprintf("/v1/trace/%d", it.Result.TraceID), "", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("item %d trace fetch = %d", i, resp.StatusCode)
		}
		var child traceEntry
		if err := json.Unmarshal(data, &child); err != nil {
			t.Fatal(err)
		}
		if child.Parent != out.TraceID {
			t.Fatalf("item %d: parent = %d, want %d", i, child.Parent, out.TraceID)
		}
	}
}

// waitFor polls cond until true or a 5s deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
