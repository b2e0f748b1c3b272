package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/encodingapi"
)

var updateGolden = flag.Bool("update", false, "rewrite the API-compat golden file")

// canonicalShape reduces a decoded JSON value to its shape: scalars
// become type placeholders, arrays keep only their first element, object
// keys sort. Two responses with the same shape canonicalize identically
// regardless of values, so the golden file pins the wire contract — field
// names, nesting, types — without pinning timings, ids or codes.
func canonicalShape(v any) any {
	switch x := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, val := range x {
			out[k] = canonicalShape(val)
		}
		return out
	case []any:
		if len(x) == 0 {
			return []any{}
		}
		return []any{canonicalShape(x[0])}
	case string:
		return "string"
	case float64:
		return "number"
	case bool:
		return "bool"
	case nil:
		return "null"
	default:
		return fmt.Sprintf("%T", v)
	}
}

// marshalShape renders a shape with sorted keys and stable indentation.
func marshalShape(v any) []byte {
	// encoding/json sorts map keys already; indent for reviewable diffs.
	b, err := json.MarshalIndent(sortKeys(v), "", "  ")
	if err != nil {
		panic(err)
	}
	return b
}

func sortKeys(v any) any {
	// json.Marshal already emits map keys sorted; this exists to keep the
	// traversal explicit if the representation ever changes.
	if m, ok := v.(map[string]any); ok {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out := make(map[string]any, len(m))
		for _, k := range keys {
			out[k] = sortKeys(m[k])
		}
		return out
	}
	if a, ok := v.([]any); ok {
		for i := range a {
			a[i] = sortKeys(a[i])
		}
	}
	return v
}

// TestAPICompatGolden snapshots the JSON shape of every v1 response the
// service can produce and compares against testdata/api_shapes.golden.
// A mismatch means the wire contract changed: if intentional, regenerate
// with `go test ./internal/server -run APICompat -update` and review the
// diff as an API change.
func TestAPICompatGolden(t *testing.T) {
	s, ts := newTestServer(t, Config{Debug: false})

	// A blocking solve lets us pin a cancelled-job error shape. The async
	// steps carry a credential: the job listing refuses anonymous callers
	// (job ids are capabilities and anonymous traffic shares one tenant).
	const tenant = "golden-tenant"
	type step struct {
		name         string
		method, path string
		body         string
		wantStatus   int
		tenant       string
	}

	var jobID string
	run := func(st step) []byte {
		t.Helper()
		resp, data := doReq(t, ts, st.method, st.path, st.body, st.tenant)
		if resp.StatusCode != st.wantStatus {
			t.Fatalf("%s: status = %d, want %d: %s", st.name, resp.StatusCode, st.wantStatus, data)
		}
		var v any
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("%s: non-JSON response: %s", st.name, data)
		}
		return marshalShape(canonicalShape(v))
	}

	var buf bytes.Buffer
	record := func(name string, status int, shape []byte) {
		fmt.Fprintf(&buf, "== %s (%d)\n%s\n\n", name, status, shape)
	}

	// Synchronous surface.
	encodeOK := fmt.Sprintf(`{"constraints": %q}`, feasibleText)
	record("encode ok", 200, run(step{"encode ok", http.MethodPost, "/v1/encode", encodeOK, 200, ""}))
	record("encode infeasible", 422, run(step{"encode infeasible", http.MethodPost, "/v1/encode",
		fmt.Sprintf(`{"constraints": %q}`, infeasibleText), 422, ""}))
	record("encode bad request", 400, run(step{"encode bad request", http.MethodPost, "/v1/encode", "{", 400, ""}))

	// Batch: one success and one per-item error in the same response
	// pins both item shapes? No — arrays keep the first element only, so
	// two batches: success-first and error-first.
	record("batch ok", 200, run(step{"batch ok", http.MethodPost, "/v1/encode/batch",
		fmt.Sprintf(`{"items": [{"constraints": %q}, {"constraints": %q}]}`, feasibleText, feasibleText), 200, ""}))
	record("batch item error", 200, run(step{"batch item error", http.MethodPost, "/v1/encode/batch",
		fmt.Sprintf(`{"items": [{"constraints": %q}]}`, infeasibleText), 200, ""}))

	// Async surface: submit, wait to done, list, then a cancelled shape.
	{
		resp, data := postJSON(t, ts, "/v1/jobs", fmt.Sprintf(`{"encode": {"constraints": %q}}`, feasibleText), tenant)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d: %s", resp.StatusCode, data)
		}
		var v any
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
		record("job submitted", 202, marshalShape(canonicalShape(v)))
		var jv encodingapi.Job
		if err := json.Unmarshal(data, &jv); err != nil {
			t.Fatal(err)
		}
		jobID = jv.ID
	}
	record("job done", 200, run(step{"job done", http.MethodGet, "/v1/jobs/" + jobID + "?wait=5s", "", 200, tenant}))
	record("job list", 200, run(step{"job list", http.MethodGet, "/v1/jobs", "", 200, tenant}))
	record("job list unauthorized", 401, run(step{"job list unauthorized", http.MethodGet, "/v1/jobs", "", 401, ""}))

	// A cancelled job carries the error body inside the job view.
	{
		release := make(chan struct{})
		started := make(chan struct{}, 1)
		s.solveFn = func(ctx context.Context, req *solveRequest) (*encodingapi.EncodeResult, error) {
			started <- struct{}{}
			select {
			case <-release:
				return s.solveLibrary(ctx, req)
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		resp, data := postJSON(t, ts, "/v1/jobs", `{"encode": {"constraints": "face cx cy\n"}}`, "")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d: %s", resp.StatusCode, data)
		}
		var jv encodingapi.Job
		if err := json.Unmarshal(data, &jv); err != nil {
			t.Fatal(err)
		}
		<-started
		doReq(t, ts, http.MethodDelete, "/v1/jobs/"+jv.ID, "", "")
		record("job cancelled", 200, run(step{"job cancelled", http.MethodGet, "/v1/jobs/" + jv.ID + "?wait=5s", "", 200, ""}))
		close(release)
		s.solveFn = nil
	}

	record("job not found", 404, run(step{"job not found", http.MethodGet, "/v1/jobs/j-missing", "", 404, ""}))

	// Observability surface. The trace list is shape-unstable (entries
	// carry omitempty fields that depend on request interleaving), so the
	// contract test pins a specific child entry instead: re-run a batch
	// and fetch its parent entry by id.
	record("healthz", 200, run(step{"healthz", http.MethodGet, "/v1/healthz", "", 200, ""}))
	record("stats", 200, run(step{"stats", http.MethodGet, "/v1/stats", "", 200, ""}))
	{
		resp, data := postJSON(t, ts, "/v1/encode/batch",
			fmt.Sprintf(`{"items": [{"constraints": %q}, {"constraints": %q}]}`, feasibleText, feasibleText), "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trace batch: %d: %s", resp.StatusCode, data)
		}
		var out encodingapi.BatchResult
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		record("trace batch parent", 200, run(step{"trace batch parent", http.MethodGet,
			fmt.Sprintf("/v1/trace/%d", out.TraceID), "", 200, ""}))
	}

	golden := filepath.Join("testdata", "api_shapes.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("API shapes changed — review as a wire-contract change and regenerate with -update.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}
