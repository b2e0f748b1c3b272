package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/encodingapi"
	"repro/internal/jobs"
)

// Job kinds accepted by POST /v1/jobs.
const (
	jobKindEncode   = "encode"
	jobKindPipeline = "pipeline"
)

// renderJob renders a store snapshot. A done job's result was stamped with
// its delivery metadata when the runner finished (see runJob).
func (s *Server) renderJob(snap jobs.Snapshot) encodingapi.Job {
	v := encodingapi.Job{
		ID:      snap.ID,
		Kind:    snap.Kind,
		State:   snap.State,
		Created: snap.Created,
	}
	if !snap.Started.IsZero() {
		t := snap.Started
		v.Started = &t
	}
	if !snap.Finished.IsZero() {
		t := snap.Finished
		v.Finished = &t
	}
	if res, ok := snap.Result.(*encodingapi.EncodeResult); ok && snap.State == jobs.Done {
		v.Result = res
	}
	if snap.Err != nil && snap.State != jobs.Done {
		ae := s.asAPIError(snap.Err)
		v.Error = &ae.body
	}
	return v
}

// handleJobs serves the collection endpoint: POST /v1/jobs submits a job,
// GET /v1/jobs lists the calling tenant's jobs (newest first). The
// listing requires a credential — anonymous traffic shares one tenant,
// so listing it would leak job-id capabilities across callers.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	end := s.beginRequest()
	defer end()
	switch r.Method {
	case http.MethodPost:
		if s.isDraining() {
			s.writeError(w, apiErr(http.StatusServiceUnavailable, encodingapi.CodeDraining, "server is shutting down"))
			return
		}
		s.metrics.Requests.Add(1)
		s.submitJob(w, r)
	case http.MethodGet:
		s.metrics.Requests.Add(1)
		tenant := tenantFrom(r)
		if tenant == anonymousTenant {
			// Anonymous clients all share one tenant, so a listing would
			// hand each of them every other anonymous job's id — and a job
			// id is the capability to poll, read and cancel it. Refusing
			// the listing keeps anonymous jobs reachable only by the id
			// returned at submit time.
			s.writeError(w, apiErr(http.StatusUnauthorized, encodingapi.CodeCredentialRequired,
				"job listing requires a credential (Authorization: Bearer or X-API-Key); anonymous jobs are reachable only by id"))
			return
		}
		s.jobs.Sweep() // expired jobs must not resurface in listings
		views := []encodingapi.Job{}
		for _, snap := range s.jobs.List(tenant) {
			views = append(views, s.renderJob(snap))
		}
		writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
	default:
		s.writeError(w, apiErr(http.StatusMethodNotAllowed, encodingapi.CodeMethodNotAllowed, "use POST or GET"))
	}
}

// submitJob validates the workload, admits it against the tenant's job
// quota, registers it and hands it to a runner goroutine. The 202 body is
// the queued job's view; everything solve-related happens asynchronously
// under the job's context, which cancellation (DELETE) and server
// shutdown both cut.
func (s *Server) submitJob(w http.ResponseWriter, r *http.Request) {
	dec := newBodyDecoder(w, r, s.cfg.MaxBodyBytes)
	var body encodingapi.JobRequest
	if err := dec.Decode(&body); err != nil {
		s.writeError(w, apiErr(http.StatusBadRequest, encodingapi.CodeBadRequest, fmt.Sprintf("decoding request: %v", err)))
		return
	}

	var (
		sreq      *solveRequest
		timeoutMS int
		kind      string
		err       error
	)
	switch {
	case body.Encode != nil && body.Pipeline != nil:
		s.writeError(w, apiErr(http.StatusBadRequest, encodingapi.CodeBadRequest, "provide exactly one of encode or pipeline"))
		return
	case body.Encode != nil:
		kind = jobKindEncode
		timeoutMS = body.Encode.TimeoutMS
		sreq, err = s.parseRequest(body.Encode)
	case body.Pipeline != nil:
		kind = jobKindPipeline
		timeoutMS = body.Pipeline.TimeoutMS
		sreq, err = s.parsePipelineRequest(body.Pipeline)
	default:
		s.writeError(w, apiErr(http.StatusBadRequest, encodingapi.CodeBadRequest, "missing workload: provide encode or pipeline"))
		return
	}
	if timeoutMS < 0 {
		err = fmt.Errorf("timeout_ms must be non-negative")
	}
	if err != nil {
		s.writeError(w, apiErr(http.StatusBadRequest, encodingapi.CodeBadRequest, err.Error()))
		return
	}

	tenant := tenantFrom(r)
	if s.cfg.TenantMaxJobs > 0 && s.jobs.Active(tenant) >= s.cfg.TenantMaxJobs {
		s.tenants.noteRejection(tenant)
		s.metrics.QuotaRejections.Add(1)
		s.writeError(w, apiErr(http.StatusTooManyRequests, encodingapi.CodeQuotaExhausted,
			"tenant job quota exhausted, retry later").withRetry(s.cfg.RetryAfter))
		return
	}

	snap, jctx, err := s.jobs.Create(s.baseCtx, tenant, kind)
	if err != nil {
		s.writeError(w, s.asAPIError(err))
		return
	}
	id := snap.ID
	sreq.onStart = func() { s.jobs.Start(id) }
	s.metrics.JobsSubmitted.Add(1)
	// The runner joins the request waitgroup: graceful shutdown drains
	// outstanding jobs exactly like in-flight requests, and the pool and
	// job store close only after every runner has finished.
	s.reqWG.Add(1)
	go s.runJob(id, jctx, s.budget(time.Duration(timeoutMS)*time.Millisecond), sreq, tenant)
	writeJSON(w, http.StatusAccepted, s.renderJob(snap))
}

// runJob executes one job through the shared spine and parks the outcome
// in the store. The solve context is the job context (cut by DELETE and
// by shutdown) bounded by the job's budget; blocking admission means the
// job waits out tenant-quota and pool contention instead of shedding.
func (s *Server) runJob(id string, jctx context.Context, budget time.Duration, sreq *solveRequest, tenant string) {
	defer s.reqWG.Done()
	start := time.Now()
	ctx, cancel := context.WithTimeout(jctx, budget)
	defer cancel()

	res, meta, err := s.execute(ctx, sreq, tenant, 0, true)
	var result any
	if err == nil {
		result = meta.deliver(res, sinceMS(start))
	}
	snap, ok := s.jobs.Finish(id, result, err)
	if !ok {
		// Already terminal: cancelled while queued. The cancel path
		// counted it.
		return
	}
	switch snap.State {
	case jobs.Done:
		s.metrics.JobsDone.Add(1)
	case jobs.Failed:
		s.metrics.JobsFailed.Add(1)
	case jobs.Cancelled:
		s.metrics.JobsCancelled.Add(1)
	}
}

// handleJob serves the item endpoint: GET /v1/jobs/{id} polls (with
// ?wait= long-poll), DELETE /v1/jobs/{id} cancels. Neither is refused
// during drain — finished results must stay fetchable while the server
// shuts down, and cancellation only helps a drain along.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	end := s.beginRequest()
	defer end()
	s.metrics.Requests.Add(1)

	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	// A job id is a capability: an unknown id and another tenant's id
	// are deliberately indistinguishable (both 404) — and so is one
	// evicted by the retention sweep.
	s.jobs.Sweep()
	snap, ok := s.jobs.Get(id)
	if id == "" || strings.Contains(id, "/") || !ok || snap.Tenant != tenantFrom(r) {
		s.writeError(w, apiErr(http.StatusNotFound, encodingapi.CodeNotFound, "job not found"))
		return
	}

	switch r.Method {
	case http.MethodGet:
		s.pollJob(w, r, snap)
	case http.MethodDelete:
		s.cancelJob(w, id)
	default:
		s.writeError(w, apiErr(http.StatusMethodNotAllowed, encodingapi.CodeMethodNotAllowed, "use GET or DELETE"))
	}
}

// pollJob renders the job's current state, long-polling first when the
// request asks for it: ?wait=5s parks until the job finishes or the
// window (capped by Config.MaxJobWait) expires, then reports whatever
// state the job is in — clients distinguish by the state field, not the
// HTTP status.
func (s *Server) pollJob(w http.ResponseWriter, r *http.Request, snap jobs.Snapshot) {
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" && !snap.State.Terminal() {
		d, err := time.ParseDuration(waitStr)
		if err != nil || d < 0 {
			s.writeError(w, apiErr(http.StatusBadRequest, encodingapi.CodeBadRequest,
				"wait must be a non-negative duration (e.g. 5s)"))
			return
		}
		if d > s.cfg.MaxJobWait {
			d = s.cfg.MaxJobWait
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		// A drain must not hang on parked long-polls: wake them and let
		// them answer with the job's current state.
		go func() {
			select {
			case <-s.drained:
				cancel()
			case <-ctx.Done():
			}
		}()
		got, err := s.jobs.Wait(ctx, snap.ID)
		if err != nil {
			s.writeError(w, apiErr(http.StatusNotFound, encodingapi.CodeNotFound, "job not found"))
			return
		}
		snap = got
	}
	writeJSON(w, http.StatusOK, s.renderJob(snap))
}

// cancelJob requests cancellation and renders the resulting state: a
// queued job is terminally cancelled right here; a running job has its
// context cut and reports "running" until the solve observes the
// cancellation (poll for the terminal state); a terminal job is returned
// unchanged — cancellation is idempotent.
func (s *Server) cancelJob(w http.ResponseWriter, id string) {
	snap, changed := s.jobs.Cancel(id)
	if snap.ID == "" {
		// Evicted between the existence check and now.
		s.writeError(w, apiErr(http.StatusNotFound, encodingapi.CodeNotFound, "job not found"))
		return
	}
	if changed && snap.State == jobs.Cancelled {
		// Cancelled while queued: no runner Finish will count it.
		s.metrics.JobsCancelled.Add(1)
	}
	writeJSON(w, http.StatusOK, s.renderJob(snap))
}
