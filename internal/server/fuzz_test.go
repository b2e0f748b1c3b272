package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/encodingapi"
	"repro/internal/core"
	"repro/internal/hypercube"
)

// fuzzRoutes are the POST endpoints FuzzServe drives; the first input byte
// picks one.
var fuzzRoutes = []string{"/v1/encode", "/v1/encode/batch", "/v1/pipeline"}

// fuzzAnswerBound is how long one request may take, shutdown included,
// before FuzzServe calls it a hang. Solves are budgeted far below it.
const fuzzAnswerBound = 10 * time.Second

// FuzzServe sends arbitrary bodies through the real handler of a fresh
// server with a short solve budget. Two outcomes pass: a non-500 status
// with the versioned error body, or a 200 whose exact-mode codes satisfy
// the request's re-parsed constraints. A 500, an error body without a
// code, or no answer within fuzzAnswerBound fails. Batch items are held to
// the same rule one by one.
func FuzzServe(f *testing.F) {
	f.Fuzz(func(t *testing.T, route byte, body []byte) {
		if len(body) > 4096 {
			return
		}
		path := fuzzRoutes[int(route)%len(fuzzRoutes)]
		s := New(Config{
			MaxTimeout: 200 * time.Millisecond,
			Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			s.Close()
		}()
		select {
		case <-done:
		case <-time.After(fuzzAnswerBound):
			t.Fatalf("%s: no answer within %v for body %q", path, fuzzAnswerBound, body)
		}
		checkServeAnswer(t, path, body, rec.Code, rec.Body.Bytes())
	})
}

// checkServeAnswer applies FuzzServe's outcome rule to one response.
func checkServeAnswer(t *testing.T, path string, body []byte, status int, data []byte) {
	t.Helper()
	if status != http.StatusOK {
		var e errorResponse
		if err := json.Unmarshal(data, &e); err != nil || e.Error.Code == "" {
			t.Fatalf("%s: status %d without a versioned error body: %s\nbody: %q", path, status, data, body)
		}
		checkErrorStatus(t, path, status, &e.Error, body)
		return
	}
	// The server decodes the first JSON value of the body; so does this.
	dec := json.NewDecoder(bytes.NewReader(body))
	switch path {
	case "/v1/encode":
		var req encodingapi.EncodeRequest
		var res encodingapi.EncodeResult
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("%s: 200 for a body that does not decode: %v\nbody: %q", path, err, body)
		}
		if err := json.Unmarshal(data, &res); err != nil {
			t.Fatalf("%s: undecodable 200: %v: %s", path, err, data)
		}
		checkExactCodes(t, req.Constraints, &res)
	case "/v1/encode/batch":
		var req encodingapi.BatchRequest
		var res encodingapi.BatchResult
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("%s: 200 for a body that does not decode: %v\nbody: %q", path, err, body)
		}
		if err := json.Unmarshal(data, &res); err != nil || len(res.Items) != len(req.Items) {
			t.Fatalf("%s: %d items answered for %d sent: %s", path, len(res.Items), len(req.Items), data)
		}
		for i, it := range res.Items {
			switch {
			case it.Status == http.StatusOK && it.Result != nil:
				checkExactCodes(t, req.Items[i].Constraints, it.Result)
			case it.Error == nil || it.Error.Code == "":
				t.Fatalf("%s: item %d status %d without a versioned error body: %s", path, i, it.Status, data)
			default:
				checkErrorStatus(t, path, it.Status, it.Error, body)
			}
		}
	}
}

// checkErrorStatus fails on a 500: every input is either solvable, the
// client's fault or too expensive for the budget.
func checkErrorStatus(t *testing.T, path string, status int, e *encodingapi.ErrorBody, body []byte) {
	t.Helper()
	if status == http.StatusInternalServerError {
		t.Fatalf("%s: status %d (%s: %s)\nbody: %q", path, status, e.Code, e.Message, body)
	}
}

// checkExactCodes verifies an exact-mode answer against the constraints it
// was asked for. Other modes promise no constraint satisfaction.
func checkExactCodes(t *testing.T, text string, res *encodingapi.EncodeResult) {
	t.Helper()
	if res.Mode != modeExact {
		return
	}
	cs, err := encodingapi.ParseString(text)
	if err != nil {
		t.Fatalf("exact 200 for constraints that do not re-parse: %v\n%q", err, text)
	}
	codes := make([]hypercube.Code, cs.N())
	for i := range codes {
		s, ok := res.Codes[cs.Syms.Name(i)]
		v, err := strconv.ParseUint("0"+s, 2, 64)
		if !ok || len(s) != res.Bits || err != nil {
			t.Fatalf("exact 200 with a bad code %q for %s (%d bits)\n%q", s, cs.Syms.Name(i), res.Bits, text)
		}
		codes[i] = v
	}
	if v := encodingapi.Verify(cs, core.NewEncoding(cs.Syms, res.Bits, codes)); len(v) != 0 {
		t.Fatalf("exact 200 violates %s: %s\ncodes: %s\nconstraints: %q", v[0].Kind, v[0].Detail, res.Text, text)
	}
}
