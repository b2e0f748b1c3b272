package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/encodingapi"
)

const lionKISS = `.i 2
.o 1
.s 4
.r st0
00 st0 st0 0
01 st0 st1 0
1- st0 st0 0
00 st1 st1 1
01 st1 st1 1
1- st1 st2 1
01 st2 st2 1
1- st2 st2 1
00 st2 st3 1
01 st3 st3 1
00 st3 st0 1
1- st3 st2 1
`

// The same machine re-rendered with comments, blank lines and ragged
// whitespace: kiss.Format canonicalizes all of that away, so it must share
// a cache key with lionKISS. (Row order is NOT normalized: state codes are
// assigned by first-mention order, so reordered rows are a genuinely
// different — if equivalent — question.)
const lionNoisyKISS = `# the lion machine, untidily
.i 2
.o 1

.s 4
.r st0
00   st0  st0   0
01 st0 st1 0
1-     st0 st0 0
00 st1 st1 1
01 st1 st1 1
1- st1 st2 1

01 st2 st2 1
1- st2 st2 1
00 st2 st3 1
01 st3 st3 1
00 st3 st0 1
1- st3 st2 1
`

func postPipeline(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/pipeline", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/pipeline: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, data
}

func pipelineBody(t *testing.T, req encodingapi.PipelineRequest) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func decodePipeline(t *testing.T, data []byte) encodingapi.EncodeResult {
	t.Helper()
	var er encodingapi.EncodeResult
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatalf("decoding response %s: %v", data, err)
	}
	return er
}

func TestPipelineEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, strategy := range []string{"exact", "heuristic", "anneal", "nova"} {
		resp, data := postPipeline(t, ts, pipelineBody(t, encodingapi.PipelineRequest{Kiss: lionKISS, Strategy: strategy}))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", strategy, resp.StatusCode, data)
		}
		er := decodePipeline(t, data)
		if er.Mode != modePipeline || er.Pipeline == nil {
			t.Fatalf("%s: bad response: %s", strategy, data)
		}
		rep := er.Pipeline
		if rep.Strategy != strategy || rep.States != 4 || rep.Bits <= 0 {
			t.Fatalf("%s: report %+v", strategy, rep)
		}
		if rep.Replay == nil || !rep.Replay.OK {
			t.Fatalf("%s: replay did not pass: %s", strategy, data)
		}
		if rep.BLIF == "" || !strings.Contains(rep.BLIF, ".latch") {
			t.Fatalf("%s: missing netlist in report", strategy)
		}
		if len(er.Codes) != 4 {
			t.Fatalf("%s: codes %v", strategy, er.Codes)
		}
	}
}

// A canonically identical machine (same rows, noisy formatting) must hit
// the cache; a different strategy must not.
func TestPipelineCacheKeyCanonical(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, data := postPipeline(t, ts, pipelineBody(t, encodingapi.PipelineRequest{Kiss: lionKISS}))
	if er := decodePipeline(t, data); er.Cached {
		t.Fatal("first request was cached")
	}
	_, data = postPipeline(t, ts, pipelineBody(t, encodingapi.PipelineRequest{Kiss: lionNoisyKISS}))
	if er := decodePipeline(t, data); !er.Cached {
		t.Fatalf("reformatted resubmission missed the cache: %s", data)
	}
	_, data = postPipeline(t, ts, pipelineBody(t, encodingapi.PipelineRequest{Kiss: lionKISS, Strategy: "nova"}))
	if er := decodePipeline(t, data); er.Cached {
		t.Fatal("different strategy hit the exact strategy's cache entry")
	}
	// minimize_states changes the answer, so it must be part of the key.
	_, data = postPipeline(t, ts, pipelineBody(t, encodingapi.PipelineRequest{Kiss: lionKISS, MinimizeStates: true}))
	if er := decodePipeline(t, data); er.Cached {
		t.Fatal("minimize_states=true hit the unminimized cache entry")
	}
}

func TestPipelineClientErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
	}{
		{"missing kiss", `{}`},
		{"bad strategy", pipelineBody(t, encodingapi.PipelineRequest{Kiss: lionKISS, Strategy: "bogus"})},
		{"malformed kiss", `{"kiss":".i 1\n.o 1\nnot a row\n"}`},
		{"negative timeout", `{"kiss":"x","timeout_ms":-1}`},
		{"negative workers", pipelineBody(t, encodingapi.PipelineRequest{Kiss: lionKISS, Workers: -1})},
		{"unknown field", `{"kiss":"x","bogus":1}`},
		{"non-deterministic", `{"kiss":"1 a b 1\n1 a c 1\n-- b a 0\n-- c a 0\n"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postPipeline(t, ts, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d: %s", resp.StatusCode, data)
			}
		})
	}
	resp, err := http.Get(ts.URL + "/v1/pipeline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d", resp.StatusCode)
	}
}

// Pipeline solves run through the shared pool and tracing: the response
// carries a trace id whose spans include the pipeline stages.
func TestPipelineTraced(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postPipeline(t, ts, pipelineBody(t, encodingapi.PipelineRequest{Kiss: lionKISS, Strategy: "nova"}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	er := decodePipeline(t, data)
	if er.TraceID == 0 {
		t.Fatalf("no trace id: %s", data)
	}
	tr, err := http.Get(ts.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	body, _ := io.ReadAll(tr.Body)
	if !strings.Contains(string(body), "pipeline.encode") {
		t.Fatalf("trace list lacks pipeline stages: %s", body)
	}
}
