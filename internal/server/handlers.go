package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"repro/encodingapi"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/fsm"
	"repro/internal/heuristic"
	"repro/internal/hypercube"
	"repro/internal/kiss"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// Request modes.
const (
	modeFeasible  = "feasible"
	modeExact     = "exact"
	modeHeuristic = "heuristic"
	modePipeline  = "pipeline"
	modeBatch     = "batch" // trace-entry mode for the batch parent span
	// modeExactComponent tags the key of one connected component's solve
	// inside a decomposed exact request. It never appears on the wire and
	// no request runs under it; it keeps component keys (the component's
	// canonical sub-hash) apart from whole-request keys, so a
	// one-component plan cannot wait on its own request's flight.
	modeExactComponent = "exact/component"
)

// encodeRequest is the JSON body of POST /v1/encode and of one batch item.
type encodeRequest struct {
	// Constraints is the textual constraint language (same grammar as the
	// encode CLI input files).
	Constraints string `json:"constraints"`
	// Mode selects the problem: "feasible" (P-1), "exact" (P-2, default)
	// or "heuristic" (P-3).
	Mode string `json:"mode"`
	// Bits is the code length for heuristic mode (required there,
	// rejected elsewhere).
	Bits int `json:"bits"`
	// Metric is the heuristic cost metric: "violations" (default),
	// "cubes" or "literals".
	Metric string `json:"metric"`
	// PrimeLimit caps maximal-compatible generation in exact mode;
	// 0 means the engine default.
	PrimeLimit int `json:"prime_limit"`
	// TimeoutMS is the solve budget in milliseconds; 0 means the server
	// default, and values above the server maximum are clamped. Batch
	// items must leave it 0 (the batch carries one shared budget).
	TimeoutMS int `json:"timeout_ms"`
	// Workers sets the engine worker count (0 = all CPUs). Results are
	// identical for any value whenever the search completes, and only
	// such results are cached, so this never affects caching.
	Workers int `json:"workers"`
	// Decompose requests connected-component decomposition in exact
	// mode: disconnected sub-problems solve independently, hit the cache
	// per component, and reassemble. Both answers satisfy the constraints,
	// but their codes may differ and the assembled width can exceed the
	// monolithic minimum, so the resolved choice (this field or the server
	// default, for decomposable sets) is part of the cache identity.
	Decompose bool `json:"decompose"`
	// Backend selects the exact-mode covering engine: "bb"
	// (branch-and-bound) or "sat" (CNF/DPLL); empty means the server
	// default. Both prove the same optimum but may return different
	// minimum covers, so the backend is part of the cache identity.
	Backend string `json:"backend,omitempty"`
}

// pipelineRequest is the JSON body of POST /v1/pipeline.
type pipelineRequest struct {
	// Kiss is the machine in KISS2 format.
	Kiss string `json:"kiss"`
	// Strategy selects the encoder: exact (default), heuristic, anneal
	// or nova.
	Strategy string `json:"strategy"`
	// MinimizeStates state-minimizes the machine before synthesis.
	MinimizeStates bool `json:"minimize_states"`
	// TimeoutMS and Workers behave exactly as in encodeRequest.
	TimeoutMS int `json:"timeout_ms"`
	Workers   int `json:"workers"`
}

// requestKey canonically identifies a solve. Constraint-solve requests
// contribute the set's order-invariant 128-bit content hash
// (CanonicalHashSet); pipeline requests hash the machine's canonical KISS2
// rendering instead: a client resubmitting the same problem in a different
// textual arrangement is asking the same question and must hit the cache
// or coalesce, not burn a second solve. The remaining fields are the knobs
// that can change the answer. Workers and timeout are deliberately absent:
// a search that completes returns the same result for any worker count
// (one a budget cut short may not), and only successful,
// budget-independent results are ever cached or coalesced into. A component solve's key is
// its sub-hash under modeExactComponent (see solveComponent).
type requestKey struct {
	set        core.Hash128
	mode       string
	bits       int
	metric     string
	primeLimit int
	strategy   string
	minimize   bool
	backend    core.Backend
	decompose  bool
}

// solveRequest is a validated, parsed request ready for the pool.
type solveRequest struct {
	mode       string
	cs         *encodingapi.Set
	bits       int
	metric     encodingapi.Metric
	metricName string
	primeLimit int
	workers    int
	// decompose makes the request's solve component-wise
	// (solveDecomposed). parseRequest resolves it once: exact mode, asked
	// for by the request or the server default, and a decomposable set.
	decompose bool
	// backend is the resolved exact-mode covering engine.
	backend core.Backend

	// Pipeline mode only.
	machine  *fsm.FSM
	kissHash core.Hash128
	strategy pipeline.Strategy
	minimize bool

	// onStart, when non-nil, fires when a pool worker actually begins
	// this request's solve (async jobs hook their queued → running
	// transition here). It never fires for cache hits or coalesced
	// followers — their solve ran elsewhere or not at all.
	onStart func()
}

func (r *solveRequest) key() requestKey {
	k := requestKey{
		set:        r.kissHash,
		mode:       r.mode,
		bits:       r.bits,
		metric:     r.metricName,
		primeLimit: r.primeLimit,
		strategy:   string(r.strategy),
		minimize:   r.minimize,
		backend:    r.backend,
		decompose:  r.decompose,
	}
	if r.mode != modePipeline {
		k.set = encodingapi.CanonicalHashSet(r.cs)
	}
	return k
}

// costBreakdown mirrors encodingapi.Cost for the JSON response.
type costBreakdown struct {
	Violations int `json:"violations"`
	Cubes      int `json:"cubes"`
	Literals   int `json:"literals"`
}

// solveResult is the mode-independent solve outcome: the cacheable part of
// an encode response.
type solveResult struct {
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
	Cost *costBreakdown `json:"cost,omitempty"`
	// Uncovered lists the unsatisfiable initial dichotomies in feasible
	// mode when the verdict is negative.
	Uncovered []string `json:"uncovered,omitempty"`
	// Pipeline is the full per-stage report in pipeline mode.
	Pipeline *pipeline.Report `json:"pipeline,omitempty"`
}

// encodeResponse is solveResult plus per-request delivery metadata. The
// result is embedded by value: encoding/json refuses to allocate an
// embedded pointer to an unexported type when decoding, and clients (and
// the tests) decode this shape.
type encodeResponse struct {
	solveResult
	// Cached reports the result came from the LRU without solving.
	Cached bool `json:"cached"`
	// Coalesced reports this request attached to an identical in-flight
	// solve rather than running its own.
	Coalesced bool    `json:"coalesced"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// TraceID names the solve's retained stage trace, fetchable from
	// GET /v1/trace/{id}; 0 for cache hits and coalesced followers,
	// which ran no solve of their own.
	TraceID uint64 `json:"trace_id,omitempty"`
}

// newBodyDecoder wraps a request body in the size guard and strict-field
// decoder every POST endpoint shares.
func newBodyDecoder(w http.ResponseWriter, r *http.Request, maxBytes int64) *json.Decoder {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes))
	dec.DisallowUnknownFields()
	return dec
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// parseRequest validates the decoded body into a solveRequest. Errors are
// client errors (400).
func (s *Server) parseRequest(req *encodeRequest) (*solveRequest, error) {
	mode := req.Mode
	if mode == "" {
		mode = modeExact
	}
	switch mode {
	case modeFeasible, modeExact, modeHeuristic:
	default:
		return nil, fmt.Errorf("unknown mode %q (want %q, %q or %q)", req.Mode, modeFeasible, modeExact, modeHeuristic)
	}
	if req.Constraints == "" {
		return nil, errors.New("missing constraints")
	}
	cs, err := encodingapi.ParseString(req.Constraints)
	if err != nil {
		return nil, fmt.Errorf("parsing constraints: %w", err)
	}
	sr := &solveRequest{
		mode:       mode,
		cs:         cs,
		primeLimit: req.PrimeLimit,
		workers:    req.Workers,
	}
	if sr.primeLimit < 0 {
		return nil, errors.New("prime_limit must be non-negative")
	}
	if sr.workers < 0 {
		return nil, errors.New("workers must be non-negative")
	}
	if sr.workers > runtime.GOMAXPROCS(0) {
		sr.workers = runtime.GOMAXPROCS(0)
	}
	if mode == modeHeuristic {
		if req.Bits <= 0 {
			return nil, errors.New("heuristic mode requires bits > 0")
		}
		if lo := hypercube.MinBits(cs.N()); req.Bits < lo || req.Bits > heuristic.MaxBits {
			return nil, fmt.Errorf("bits %d out of range: %d symbols need %d to %d bits", req.Bits, cs.N(), lo, heuristic.MaxBits)
		}
		sr.bits = req.Bits
		name := req.Metric
		if name == "" {
			name = "violations"
		}
		m, ok := encodingapi.ParseMetric(name)
		if !ok {
			return nil, fmt.Errorf("unknown metric %q (want violations, cubes or literals)", req.Metric)
		}
		sr.metric = m
		sr.metricName = name
	} else {
		if req.Bits != 0 {
			return nil, fmt.Errorf("bits is only valid in heuristic mode")
		}
		if req.Metric != "" {
			return nil, fmt.Errorf("metric is only valid in heuristic mode")
		}
	}
	if req.Decompose && mode != modeExact {
		return nil, fmt.Errorf("decompose is only valid in exact mode")
	}
	sr.decompose = mode == modeExact && (req.Decompose || s.cfg.Decompose) && decomp.Decomposable(cs)
	if req.Backend != "" && mode != modeExact {
		return nil, fmt.Errorf("backend is only valid in exact mode")
	}
	if mode == modeExact {
		name := req.Backend
		if name == "" {
			name = s.cfg.Backend
		}
		backend, ok := encodingapi.ParseBackend(name)
		if !ok {
			return nil, fmt.Errorf("unknown backend %q (want bb or sat)", name)
		}
		sr.backend = backend
	}
	return sr, nil
}

// parsePipelineRequest validates the decoded body of POST /v1/pipeline.
// The machine is parsed and structurally validated here so malformed input
// is a client error (400), and the request key hashes the machine's
// canonical KISS2 rendering (kiss.Format after parsing), making it
// invariant under comments and whitespace. Transition order is NOT
// normalized: state codes are assigned by first-mention index, so a
// reordered table is an equivalent but distinct question whose answer may
// legitimately differ.
func (s *Server) parsePipelineRequest(req *pipelineRequest) (*solveRequest, error) {
	if req.Kiss == "" {
		return nil, errors.New("missing kiss machine")
	}
	strategyName := req.Strategy
	if strategyName == "" {
		strategyName = string(pipeline.Exact)
	}
	strat, ok := pipeline.ParseStrategy(strategyName)
	if !ok {
		return nil, fmt.Errorf("unknown strategy %q (want %s)", req.Strategy, pipeline.StrategyList())
	}
	m, err := kiss.ParseString(req.Kiss)
	if err != nil {
		return nil, fmt.Errorf("parsing kiss: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if !m.Deterministic() {
		return nil, errors.New("machine is non-deterministic")
	}
	sr := &solveRequest{
		mode:     modePipeline,
		machine:  m,
		kissHash: core.HashBytes([]byte(kiss.Format(m))),
		strategy: strat,
		minimize: req.MinimizeStates,
		workers:  req.Workers,
	}
	if sr.workers < 0 {
		return nil, errors.New("workers must be non-negative")
	}
	if sr.workers > runtime.GOMAXPROCS(0) {
		sr.workers = runtime.GOMAXPROCS(0)
	}
	return sr, nil
}

// solveLibrary runs req against the real engines; it is the default solveFn
// and the single place where the service calls into the encoding library.
func (s *Server) solveLibrary(ctx context.Context, req *solveRequest) (*solveResult, error) {
	switch req.mode {
	case modeFeasible:
		f := encodingapi.CheckFeasible(req.cs)
		res := &solveResult{Mode: modeFeasible, Feasible: f.Feasible}
		for _, d := range f.Uncovered {
			res.Uncovered = append(res.Uncovered, d.Format(req.cs.Syms))
		}
		return res, nil

	case modeExact:
		opts := encodingapi.ExactOptions{
			Prime:       encodingapi.PrimeOptions{Limit: req.primeLimit},
			Parallelism: encodingapi.Parallelism{Workers: req.workers},
			Backend:     req.backend,
		}
		r, err := encodingapi.ExactEncode(ctx, req.cs, opts)
		if err != nil {
			return nil, err
		}
		if v := encodingapi.Verify(req.cs, r.Encoding); len(v) != 0 {
			return nil, fmt.Errorf("internal error: encoding failed verification: %s: %s", v[0].Kind, v[0].Detail)
		}
		res := &solveResult{Mode: modeExact, Feasible: true, Optimal: r.Optimal}
		fillEncoding(res, r.Encoding)
		return res, nil

	case modeHeuristic:
		r, err := encodingapi.HeuristicEncode(ctx, req.cs, encodingapi.HeuristicOptions{
			Bits:        req.bits,
			Metric:      req.metric,
			Parallelism: encodingapi.Parallelism{Workers: req.workers},
		})
		if err != nil {
			return nil, err
		}
		res := &solveResult{
			Mode:     modeHeuristic,
			Feasible: true,
			Cost: &costBreakdown{
				Violations: r.Cost.Violations,
				Cubes:      r.Cost.Cubes,
				Literals:   r.Cost.Literals,
			},
		}
		fillEncoding(res, r.Encoding)
		return res, nil

	case modePipeline:
		rep, err := pipeline.Run(ctx, req.machine, pipeline.Options{
			Strategy:       req.strategy,
			MinimizeStates: req.minimize,
			Parallelism:    par.Parallelism{Workers: req.workers},
		})
		if err != nil {
			return nil, err
		}
		// A replay divergence is a synthesis bug, not a client error: fail
		// the request (500) rather than return a netlist known to be wrong.
		if rep.Replay != nil && !rep.Replay.OK {
			return nil, fmt.Errorf("internal error: netlist replay failed: %s", rep.Replay.Error)
		}
		return &solveResult{
			Mode:     modePipeline,
			Feasible: true,
			Bits:     rep.Bits,
			Codes:    rep.Codes,
			Optimal:  rep.Optimal,
			Pipeline: rep,
		}, nil
	}
	return nil, fmt.Errorf("internal error: unknown mode %q", req.mode)
}

func fillEncoding(res *solveResult, enc *encodingapi.Encoding) {
	res.Bits = enc.Bits
	res.Text = enc.String()
	res.Codes = make(map[string]string, enc.Syms.Len())
	for i := 0; i < enc.Syms.Len(); i++ {
		res.Codes[enc.Syms.Name(i)] = enc.CodeString(i)
	}
}

// cacheable reports whether res may enter the LRU: only complete,
// budget-independent answers qualify. An exact result truncated to its
// incumbent (Optimal=false) depends on the timeout that cut it short, so a
// later request with a larger budget must not be served the stale
// truncation; the same applies to a pipeline report whose exact encode
// stage was truncated.
func cacheable(res *solveResult) bool {
	switch {
	case res == nil:
		return false
	case res.Mode == modeExact:
		return res.Optimal
	case res.Mode == modePipeline:
		return res.Pipeline != nil &&
			(res.Pipeline.Strategy != string(pipeline.Exact) || res.Pipeline.Optimal)
	}
	return true
}

func (s *Server) handleEncode(w http.ResponseWriter, r *http.Request) {
	s.serveSolve(w, r, func(dec *json.Decoder) (*solveRequest, int, error) {
		var body encodeRequest
		if err := dec.Decode(&body); err != nil {
			return nil, 0, fmt.Errorf("decoding request: %w", err)
		}
		if body.TimeoutMS < 0 {
			return nil, 0, errors.New("timeout_ms must be non-negative")
		}
		sreq, err := s.parseRequest(&body)
		return sreq, body.TimeoutMS, err
	})
}

func (s *Server) handlePipeline(w http.ResponseWriter, r *http.Request) {
	s.serveSolve(w, r, func(dec *json.Decoder) (*solveRequest, int, error) {
		var body pipelineRequest
		if err := dec.Decode(&body); err != nil {
			return nil, 0, fmt.Errorf("decoding request: %w", err)
		}
		if body.TimeoutMS < 0 {
			return nil, 0, errors.New("timeout_ms must be non-negative")
		}
		sreq, err := s.parsePipelineRequest(&body)
		return sreq, body.TimeoutMS, err
	})
}

// beginRequest performs the per-request bookkeeping every endpoint shares
// (in-flight gauge, end-to-end latency, the shutdown drain's waitgroup)
// and returns the matching teardown. The waitgroup is joined before the
// pool and job store close, which is what makes submitWait and the job
// runners shutdown-safe.
func (s *Server) beginRequest() (end func()) {
	s.reqWG.Add(1)
	s.metrics.InFlight.Add(1)
	start := time.Now()
	return func() {
		s.metrics.observeLatency(time.Since(start))
		s.metrics.InFlight.Add(-1)
		s.reqWG.Done()
	}
}

// intake runs the shared front-door checks (method, drain) and counts the
// accepted request; it reports false when the request was already
// answered.
func (s *Server) intake(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		s.writeError(w, apiErr(http.StatusMethodNotAllowed, codeMethodNotAllowed, "use "+method))
		return false
	}
	if s.isDraining() {
		s.writeError(w, apiErr(http.StatusServiceUnavailable, codeDraining, "server is shutting down"))
		return false
	}
	s.metrics.Requests.Add(1)
	return true
}

// execMeta is the delivery metadata of one spine execution: how the
// answer was produced, for the response fields and trace correlation.
type execMeta struct {
	cached    bool
	coalesced bool
	traceID   uint64
}

// execute is the one solve spine shared by the sync endpoints, batch
// items and async jobs: cache → admit (per-tenant quota) → coalesce
// (singleflight) → solve → publish trace → cache the result. The context
// carries the solve budget and must be derived from the server's base
// context. Only the function the singleflight leader runs depends on the
// request: runSolve through the bounded pool, or solveDecomposed, whose
// components reach the pool one by one.
//
// wait selects the admission flavor: the sync path sheds immediately on
// an exhausted tenant quota or a full pool queue, while batch items and
// async jobs block for their turn — absorbing contention is what the
// batch/async surface is for. parent, when non-zero, links the solve's
// trace entry to an enclosing batch span.
func (s *Server) execute(ctx context.Context, sreq *solveRequest, tenant string, parent uint64, wait bool) (*solveResult, execMeta, error) {
	var meta execMeta
	key := sreq.key()

	if res, ok := s.cache.Get(key); ok {
		s.metrics.CacheHits.Add(1)
		meta.cached = true
		return res, meta, nil
	}
	s.metrics.CacheMisses.Add(1)

	// Tenant admission guards the expensive stages only: a cache hit
	// above costs nothing and bypasses the quota. A coalesced follower
	// still holds a slot while waiting — concurrent identical requests
	// from one tenant count against its share even though they run one
	// solve.
	var release func()
	var err error
	if wait {
		release, err = s.tenants.acquire(ctx, tenant)
	} else {
		release, err = s.tenants.tryAcquire(tenant)
	}
	if err != nil {
		if errors.Is(err, errTenantBusy) {
			s.metrics.QuotaRejections.Add(1)
		}
		return nil, meta, err
	}
	defer release()

	// The solve is traced per leader: the recorder belongs to this
	// execution, so a follower's recorder simply stays empty (its solve
	// ran elsewhere).
	start := time.Now()
	rec := trace.New()
	ctx = trace.NewContext(ctx, rec)

	solve := func() (*solveResult, error) { return s.runSolve(ctx, sreq, wait) }
	if sreq.decompose {
		solve = func() (*solveResult, error) { return s.solveDecomposed(ctx, sreq, wait) }
	}
	res, err, leader := s.flights.do(ctx, key, func() { s.metrics.Coalesced.Add(1) }, solve)
	meta.coalesced = !leader
	if leader {
		meta.traceID = s.publishTrace(sreq, rec, start, time.Since(start), parent, err)
	}
	if err != nil {
		return nil, meta, err
	}
	if leader && cacheable(res) {
		s.cache.Add(key, res)
	}
	return res, meta, nil
}

// serveSolve is the synchronous request path behind POST /v1/encode and
// POST /v1/pipeline: intake checks, body decoding via parse, then the
// shared execute spine with the common error mapping.
func (s *Server) serveSolve(w http.ResponseWriter, r *http.Request, parse func(*json.Decoder) (*solveRequest, int, error)) {
	end := s.beginRequest()
	defer end()
	start := time.Now()
	if !s.intake(w, r, http.MethodPost) {
		return
	}

	dec := newBodyDecoder(w, r, s.cfg.MaxBodyBytes)
	sreq, timeoutMS, err := parse(dec)
	if err != nil {
		s.writeError(w, apiErr(http.StatusBadRequest, codeBadRequest, err.Error()))
		return
	}

	// The solve runs under the server's base context, not the client
	// connection: a leader's disconnect must not abort a solve that
	// coalesced followers are waiting on. The client connection is only
	// consulted while a follower waits (inside flightGroup.do's select).
	budget := s.budget(time.Duration(timeoutMS) * time.Millisecond)
	ctx, cancel := context.WithTimeout(s.baseCtx, budget)
	defer cancel()

	res, meta, err := s.execute(ctx, sreq, tenantFrom(r), 0, false)
	if err != nil {
		s.writeError(w, s.asAPIError(err))
		return
	}
	s.metrics.OK.Add(1)
	writeJSON(w, http.StatusOK, encodeResponse{
		solveResult: *res,
		Cached:      meta.cached,
		Coalesced:   meta.coalesced,
		ElapsedMS:   float64(time.Since(start).Microseconds()) / 1000,
		TraceID:     meta.traceID,
	})
}

// publishTrace retains one finished solve's trace, counts and logs it when
// slow, and returns the trace id for the response. parent links the entry
// to an enclosing batch span (0 for standalone solves).
func (s *Server) publishTrace(req *solveRequest, rec *trace.Recorder, start time.Time, elapsed time.Duration, parent uint64, solveErr error) uint64 {
	t := rec.Snapshot()
	e := &traceEntry{
		Mode:      req.mode,
		Parent:    parent,
		Start:     start,
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
		Spans:     summarizeSpans(t),
	}
	if sp, ok := t.Find("server.queue"); ok {
		e.QueueMS = float64(sp.Dur.Microseconds()) / 1000
	}
	if solveErr != nil {
		e.Error = solveErr.Error()
	}
	e.Slow = s.cfg.SlowSolveThreshold > 0 && elapsed >= s.cfg.SlowSolveThreshold
	id := s.traces.add(e)
	if e.Slow {
		s.metrics.SlowSolves.Add(1)
		s.cfg.Logger.Warn("slow solve",
			"trace_id", id,
			"mode", req.mode,
			"elapsed_ms", e.ElapsedMS,
			"queue_wait_ms", e.QueueMS,
			"stages", stageLine(t),
			"error", e.Error,
		)
	}
	return id
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
