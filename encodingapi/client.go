// The v1 wire contract of the encoding service and a typed HTTP client
// for it. The request and answer types below are the contract's only Go
// definitions: internal/server (cmd/served) decodes its request bodies
// into them and renders its answers from them, and Client sends and
// decodes the same types, covering the synchronous endpoints, batch
// submission and the async job lifecycle. docs/openapi.yaml specifies the
// contract, and internal/server/testdata/api_shapes.golden snapshots every
// answer shape. Service errors decode into RemoteError, which unwraps
// infeasibility back into the same typed errors the in-process entry
// points return — errors.Is(err, ErrInfeasible) and AsInfeasible work
// identically against a remote server.
package encodingapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/jobs"
	"repro/internal/pipeline"
)

// Client calls a served instance. The zero value is not usable; set
// BaseURL (e.g. "http://localhost:8080"). Safe for concurrent use.
type Client struct {
	// BaseURL is the service root, without a trailing slash.
	BaseURL string
	// HTTPClient performs the requests; nil means http.DefaultClient.
	// Long-poll calls (Wait) need a client timeout above the poll window
	// or none at all.
	HTTPClient *http.Client
	// APIKey, when non-empty, is sent as the Bearer token identifying
	// the tenant for the service's admission control.
	APIKey string
}

// NewClient returns a Client for the service at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// EncodeRequest is the body of POST /v1/encode and of one batch item.
type EncodeRequest struct {
	// Constraints is the textual constraint language (same grammar as the
	// encode CLI input files).
	Constraints string `json:"constraints"`
	// Mode selects the problem: "feasible" (P-1), "exact" (P-2, default)
	// or "heuristic" (P-3).
	Mode string `json:"mode,omitempty"`
	// Bits is the code length for heuristic mode (required there,
	// rejected elsewhere).
	Bits int `json:"bits,omitempty"`
	// Metric is the heuristic cost metric: "violations" (default),
	// "cubes" or "literals".
	Metric string `json:"metric,omitempty"`
	// PrimeLimit caps maximal-compatible generation in exact mode;
	// 0 means the engine default.
	PrimeLimit int `json:"prime_limit,omitempty"`
	// TimeoutMS is the solve budget in milliseconds; 0 means the server
	// default, and values above the server maximum are clamped. Batch
	// items must leave it 0: a batch sets one shared budget at its top
	// level (BatchRequest.TimeoutMS), not per item.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Workers sets the engine worker count (0 = all CPUs). Results are
	// identical for any value whenever the search completes, and only
	// such results are cached, so this never affects caching.
	Workers int `json:"workers,omitempty"`
	// Decompose requests connected-component decomposition in exact
	// mode: disconnected sub-problems solve independently, hit the cache
	// per component, and reassemble. Both answers satisfy the constraints,
	// but their codes may differ and the assembled width can exceed the
	// monolithic minimum, so the resolved choice (this field or the server
	// default, for decomposable sets) is part of the cache identity.
	Decompose bool `json:"decompose,omitempty"`
	// Backend selects the exact-mode covering engine: "bb"
	// (branch-and-bound) or "sat" (CNF/DPLL); empty means the server
	// default. Both prove the same optimum but may return different
	// minimum covers, so the backend is part of the cache identity.
	Backend string `json:"backend,omitempty"`
}

// PipelineRequest is the body of POST /v1/pipeline.
type PipelineRequest struct {
	// Kiss is the machine in KISS2 format.
	Kiss string `json:"kiss"`
	// Strategy selects the encoder: exact (default), heuristic, anneal
	// or nova.
	Strategy string `json:"strategy,omitempty"`
	// MinimizeStates state-minimizes the machine before synthesis.
	MinimizeStates bool `json:"minimize_states,omitempty"`
	// TimeoutMS and Workers behave exactly as in EncodeRequest.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	Workers   int `json:"workers,omitempty"`
}

// PipelineReport is the per-stage report of one synthesis pipeline run:
// machine sizes, constraint counts, the encoding, the two-level cover, the
// emitted BLIF and the replay verdict.
type PipelineReport = pipeline.Report

// CostBreakdown is the heuristic mode's evaluated metric breakdown.
type CostBreakdown struct {
	Violations int `json:"violations"`
	Cubes      int `json:"cubes"`
	Literals   int `json:"literals"`
}

// EncodeResult is a successful solve answer: the mode-independent result
// plus the service's delivery metadata (Cached, Coalesced, ElapsedMS and
// TraceID), which describe how this one answer was delivered.
type EncodeResult struct {
	Mode     string `json:"mode"`
	Feasible bool   `json:"feasible"`
	Bits     int    `json:"bits"`
	// Codes maps each symbol to its binary code string (empty in
	// feasible mode). encoding/json emits map keys sorted, so the
	// serialized form is deterministic.
	Codes map[string]string `json:"codes,omitempty"`
	// Text is the canonical "sym = code" rendering, byte-identical to
	// what the library's Encoding.String returns.
	Text string `json:"text,omitempty"`
	// Optimal reports whether exact mode proved minimality (false when
	// the budget truncated the covering search to its incumbent).
	Optimal bool `json:"optimal,omitempty"`
	// Cost is the heuristic mode's evaluated metric breakdown.
	Cost *CostBreakdown `json:"cost,omitempty"`
	// Uncovered lists the unsatisfiable initial dichotomies in feasible
	// mode when the verdict is negative.
	Uncovered []string `json:"uncovered,omitempty"`
	// Pipeline is the full per-stage report in pipeline mode.
	Pipeline *PipelineReport `json:"pipeline,omitempty"`

	// Cached reports the result came from the service's result cache
	// without solving.
	Cached bool `json:"cached"`
	// Coalesced reports this request attached to an identical in-flight
	// solve rather than running its own.
	Coalesced bool    `json:"coalesced"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// TraceID names the solve's retained stage trace, fetchable from
	// GET /v1/trace/{id}; a synchronous answer from the cache or from
	// another request's solve carries none.
	TraceID uint64 `json:"trace_id,omitempty"`
}

// Error codes of ErrorBody.Code. The code is the machine-readable
// contract: messages may be reworded, codes may only be added.
const (
	CodeBadRequest         = "bad_request"         // 400: malformed body, unknown fields, invalid knobs
	CodeCredentialRequired = "credential_required" // 401: endpoint needs a tenant credential
	CodeNotFound           = "not_found"           // 404: unknown job or trace id
	CodeMethodNotAllowed   = "method_not_allowed"  // 405
	CodeInfeasible         = "infeasible"          // 422: constraints admit no encoding
	CodeOverloaded         = "overloaded"          // 429: queue or job store full — global backpressure
	CodeQuotaExhausted     = "quota_exhausted"     // 429: this tenant's quota, not the server's capacity
	CodeInternal           = "internal"            // 500: panic, verification failure, replay divergence
	CodeDraining           = "draining"            // 503: shutdown in progress
	CodeCanceled           = "canceled"            // 503: solve aborted by forced shutdown
	CodeTimeout            = "timeout"             // 504: solve budget exceeded
)

// ErrorBody is the service's versioned error shape, shared by every v1
// endpoint: {"error":{"code","message","retry_after_s","conflict"}}.
// Conflict carries the minimal infeasible constraint subset (one
// constraint per line, re-parseable by ParseString) when the solver could
// compute one.
type ErrorBody struct {
	Code        string   `json:"code"`
	Message     string   `json:"message"`
	RetryAfterS int64    `json:"retry_after_s,omitempty"`
	Conflict    []string `json:"conflict,omitempty"`
}

// RemoteError is a non-2xx service answer. It preserves the full error
// body, and Unwrap reconstructs typed infeasibility: errors.Is(err,
// ErrInfeasible) holds and AsInfeasible returns an InfeasibleError whose
// Conflict is re-parsed from the body's conflict lines, exactly as the
// in-process solvers would have reported it.
type RemoteError struct {
	// Status is the HTTP status code.
	Status int
	// Body is the decoded error body; for a malformed error response
	// only Message is set (to the raw body text).
	Body ErrorBody
}

func (e *RemoteError) Error() string {
	if e.Body.Code != "" {
		return fmt.Sprintf("server: %s (%d): %s", e.Body.Code, e.Status, e.Body.Message)
	}
	return fmt.Sprintf("server: status %d: %s", e.Status, e.Body.Message)
}

// Unwrap maps the error code back to the library's sentinel errors.
func (e *RemoteError) Unwrap() error {
	if e.Body.Code != CodeInfeasible {
		return nil
	}
	ie := &InfeasibleError{}
	if len(e.Body.Conflict) > 0 {
		if cs, err := ParseString(strings.Join(e.Body.Conflict, "\n") + "\n"); err == nil {
			ie.Conflict = cs
		}
	}
	return ie
}

// BatchRequest is the body of POST /v1/encode/batch: N independent
// constraint-solve items under one shared budget. The items leave their
// TimeoutMS at 0: the batch owns the budget, so one slow item cannot
// silently extend its siblings'.
type BatchRequest struct {
	Items []EncodeRequest `json:"items"`
	// TimeoutMS is the whole batch's solve budget; 0 means the server
	// default, clamped to the server maximum.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// BatchItemResult is one item's outcome. Exactly one of Result and Error
// is set; Status is the HTTP status the item would have received from
// POST /v1/encode.
type BatchItemResult struct {
	Index  int           `json:"index"`
	Status int           `json:"status"`
	Result *EncodeResult `json:"result,omitempty"`
	Error  *ErrorBody    `json:"error,omitempty"`
}

// Err returns the item's failure as a *RemoteError; nil for a successful
// item. An infeasible item's error unwraps to ErrInfeasible like any
// other service error.
func (it *BatchItemResult) Err() error {
	if it.Error == nil {
		return nil
	}
	return &RemoteError{Status: it.Status, Body: *it.Error}
}

// BatchResult is the batch answer. The batch succeeds whenever it was
// well-formed; per-item failures (including infeasibility) live inside
// Items and never fail their siblings.
type BatchResult struct {
	Items []BatchItemResult `json:"items"`
	// UniqueItems counts the distinct canonical problems the batch
	// dispatched; Deduped counts the items answered by an identical
	// sibling (UniqueItems + Deduped + parse failures = len(Items)).
	UniqueItems int `json:"unique_items"`
	Deduped     int `json:"deduped"`
	// TraceID names the batch's parent trace entry; every item entry
	// links back to it via its parent field.
	TraceID   uint64  `json:"trace_id,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// JobState is a job's lifecycle state; Terminal reports whether it is
// final.
type JobState = jobs.State

// The job lifecycle: queued → running → done/failed/cancelled. A job
// answered from the result cache may go queued → done without running.
const (
	JobQueued    = jobs.Queued
	JobRunning   = jobs.Running
	JobDone      = jobs.Done
	JobFailed    = jobs.Failed
	JobCancelled = jobs.Cancelled
)

// JobRequest is the body of POST /v1/jobs: exactly one of Encode or
// Pipeline names the workload. The workload's TimeoutMS bounds the solve
// itself (clamped by the server), not any HTTP response — that is the
// point of submitting asynchronously.
type JobRequest struct {
	Encode   *EncodeRequest   `json:"encode,omitempty"`
	Pipeline *PipelineRequest `json:"pipeline,omitempty"`
}

// Job is one job's rendered state: the body of the submit (202), poll and
// cancel answers. Result is set only in state "done" and has the shape of
// the synchronous answer; Error only in "failed" and "cancelled", carrying
// the error body the synchronous path would have returned.
type Job struct {
	ID       string        `json:"id"`
	Kind     string        `json:"kind"`
	State    JobState      `json:"state"`
	Created  time.Time     `json:"created"`
	Started  *time.Time    `json:"started,omitempty"`
	Finished *time.Time    `json:"finished,omitempty"`
	Result   *EncodeResult `json:"result,omitempty"`
	Error    *ErrorBody    `json:"error,omitempty"`
}

// Err returns a terminal failure as a *RemoteError; nil while the job is
// active or when it succeeded.
func (j *Job) Err() error {
	if j.Error == nil {
		return nil
	}
	status := http.StatusInternalServerError
	switch j.State {
	case JobCancelled:
		status = http.StatusServiceUnavailable
	case JobFailed:
		if j.Error.Code == CodeTimeout {
			status = http.StatusGatewayTimeout
		}
	}
	return &RemoteError{Status: status, Body: *j.Error}
}

// Encode solves one constraint set synchronously via POST /v1/encode.
func (c *Client) Encode(ctx context.Context, req EncodeRequest) (*EncodeResult, error) {
	var out EncodeResult
	if err := c.do(ctx, http.MethodPost, "/v1/encode", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Pipeline runs the KISS2 synthesis pipeline synchronously via
// POST /v1/pipeline.
func (c *Client) Pipeline(ctx context.Context, req PipelineRequest) (*EncodeResult, error) {
	var out EncodeResult
	if err := c.do(ctx, http.MethodPost, "/v1/pipeline", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// EncodeBatch submits N items via POST /v1/encode/batch. The returned
// error covers batch-level rejection only; inspect each item's Err for
// per-item outcomes.
func (c *Client) EncodeBatch(ctx context.Context, req BatchRequest) (*BatchResult, error) {
	var out BatchResult
	if err := c.do(ctx, http.MethodPost, "/v1/encode/batch", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Submit creates an async job via POST /v1/jobs and returns it in state
// "queued" (the service answers 202).
func (c *Client) Submit(ctx context.Context, req JobRequest) (*Job, error) {
	var out Job
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Poll fetches the job's current state via GET /v1/jobs/{id}.
func (c *Client) Poll(ctx context.Context, id string) (*Job, error) {
	var out Job
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Wait long-polls GET /v1/jobs/{id}?wait=... until the job is terminal
// or ctx is done. It never fails on a terminal job state — a failed job
// is returned as a Job whose Err reports the failure.
func (c *Client) Wait(ctx context.Context, id string) (*Job, error) {
	for {
		var out Job
		if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"?wait=30s", nil, &out); err != nil {
			return nil, err
		}
		if out.State.Terminal() {
			return &out, nil
		}
		if err := ctx.Err(); err != nil {
			return &out, err
		}
	}
}

// Cancel requests cancellation via DELETE /v1/jobs/{id} and returns the
// resulting state: "cancelled" for a job caught while queued, "running"
// for one whose solve is still observing the cancellation (Poll or Wait
// for the terminal state), unchanged for an already-terminal job.
func (c *Client) Cancel(ctx context.Context, id string) (*Job, error) {
	var out Job
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Jobs lists the calling tenant's retained jobs, newest first. The
// listing requires a credential (set APIKey): the service refuses it for
// anonymous callers, whose jobs are reachable only by id.
func (c *Client) Jobs(ctx context.Context) ([]Job, error) {
	var out struct {
		Jobs []Job `json:"jobs"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// do performs one JSON round trip; non-2xx answers become *RemoteError.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("encoding request: %w", err)
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.APIKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.APIKey)
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		var er struct {
			Error ErrorBody `json:"error"`
		}
		if json.Unmarshal(data, &er) != nil || er.Error.Code == "" {
			er.Error.Message = strings.TrimSpace(string(data))
		}
		return &RemoteError{Status: resp.StatusCode, Body: er.Error}
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	return nil
}
