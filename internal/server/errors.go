package server

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/encodingapi"
	"repro/internal/jobs"
)

// errorResponse is the {"error": {...}} envelope around the one versioned
// error body every v1 endpoint renders.
type errorResponse struct {
	Error encodingapi.ErrorBody `json:"error"`
}

// apiError pairs an error body with the HTTP status that delivers it. It
// implements error so the batch and job paths can carry it through
// result channels and render it per-item.
type apiError struct {
	status int
	body   encodingapi.ErrorBody
}

func (e *apiError) Error() string { return e.body.Message }

// apiErr builds a plain apiError.
func apiErr(status int, code, msg string) *apiError {
	return &apiError{status: status, body: encodingapi.ErrorBody{Code: code, Message: msg}}
}

// withRetry attaches a Retry-After hint (rendered both as the header and
// the body's retry_after_s field).
func (e *apiError) withRetry(d time.Duration) *apiError {
	e.body.RetryAfterS = retryAfterSeconds(d)
	return e
}

// writeError renders e, counts it into the status-class metrics and sets
// Retry-After when the error carries a hint.
func (s *Server) writeError(w http.ResponseWriter, e *apiError) {
	switch {
	case e.status == http.StatusTooManyRequests:
		s.metrics.Overloads.Add(1)
	case e.status == http.StatusServiceUnavailable:
		s.metrics.Rejected.Add(1)
	case e.status == http.StatusGatewayTimeout:
		s.metrics.Timeouts.Add(1)
	case e.status >= 500:
		s.metrics.ServerError.Add(1)
	default:
		s.metrics.ClientError.Add(1)
	}
	if e.body.RetryAfterS > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(e.body.RetryAfterS, 10))
	}
	writeJSON(w, e.status, errorResponse{Error: e.body})
}

// asAPIError maps any solve-path error to its apiError: infeasibility is
// the client's problem (422, with the minimized conflict subset when the
// solver produced one), a full queue or job store is load shedding (429
// with Retry-After), a tenant over quota is 429 with its own code, an
// expired budget is 504, shutdown cancellation is 503, and anything else
// (including recovered panics) is 500. Errors that already are apiErrors
// pass through unchanged, so handlers can pre-shape special cases.
func (s *Server) asAPIError(err error) *apiError {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae
	}
	switch {
	case errors.Is(err, encodingapi.ErrInfeasible):
		e := apiErr(http.StatusUnprocessableEntity, encodingapi.CodeInfeasible, err.Error())
		if ie, ok := encodingapi.AsInfeasible(err); ok && ie.Conflict != nil {
			e.body.Conflict = strings.Split(strings.TrimRight(ie.Conflict.String(), "\n"), "\n")
		}
		return e
	case errors.Is(err, errOverloaded):
		return apiErr(http.StatusTooManyRequests, encodingapi.CodeOverloaded,
			"server overloaded, retry later").withRetry(s.cfg.RetryAfter)
	case errors.Is(err, errTenantBusy):
		return apiErr(http.StatusTooManyRequests, encodingapi.CodeQuotaExhausted,
			err.Error()).withRetry(s.cfg.RetryAfter)
	case errors.Is(err, jobs.ErrStoreFull):
		return apiErr(http.StatusTooManyRequests, encodingapi.CodeOverloaded,
			"job store full, retry later").withRetry(s.cfg.RetryAfter)
	case errors.Is(err, errPoolClosed):
		return apiErr(http.StatusServiceUnavailable, encodingapi.CodeDraining, "server is shutting down")
	case errors.Is(err, context.DeadlineExceeded):
		return apiErr(http.StatusGatewayTimeout, encodingapi.CodeTimeout, "solve budget exceeded")
	case errors.Is(err, context.Canceled):
		return apiErr(http.StatusServiceUnavailable, encodingapi.CodeCanceled, "solve canceled by shutdown")
	default:
		return apiErr(http.StatusInternalServerError, encodingapi.CodeInternal, err.Error())
	}
}

// retryAfterSeconds renders a Retry-After duration in whole seconds,
// rounding up and clamping to at least 1: the header's unit is seconds, so
// truncation would turn any sub-second hint into "Retry-After: 0", which
// well-behaved clients read as "retry immediately" — the opposite of load
// shedding.
func retryAfterSeconds(d time.Duration) int64 {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}
