package server

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/encodingapi"
	"repro/internal/trace"
)

// traceEntry is one retained solve trace: the stage spans recorded by the
// engines plus the delivery metadata an operator needs to correlate it with
// logs and stats.
type traceEntry struct {
	ID   uint64 `json:"id"`
	Mode string `json:"mode"`
	// Parent links a batch item's entry to its batch's parent entry, so
	// slow-solve triage can walk from a batch span to the item that
	// burned the time; 0 for standalone solves and the parents
	// themselves.
	Parent uint64 `json:"parent,omitempty"`
	// Origin explains an entry with no spans of its own: "cache" (the
	// item hit the LRU), "coalesced" (it attached to an in-flight
	// solve), "duplicate" (an identical sibling in the same batch ran
	// the solve) or "error" (the item failed before solving). Empty for
	// entries that ran a solve.
	Origin string `json:"origin,omitempty"`
	// Items is the item count of a batch parent entry; 0 otherwise.
	Items     int           `json:"items,omitempty"`
	Start     time.Time     `json:"start"`
	ElapsedMS float64       `json:"elapsed_ms"`
	QueueMS   float64       `json:"queue_wait_ms"`
	Slow      bool          `json:"slow"`
	Error     string        `json:"error,omitempty"`
	Spans     []spanSummary `json:"spans"`
}

// spanSummary is the JSON rendering of one trace.SpanRecord.
type spanSummary struct {
	Name string `json:"name"`
	// StartUS/DurUS are microseconds relative to the recorder's epoch.
	StartUS int64            `json:"start_us"`
	DurUS   int64            `json:"dur_us"`
	Attrs   map[string]int64 `json:"attrs,omitempty"`
}

func summarizeSpans(t trace.Trace) []spanSummary {
	out := make([]spanSummary, 0, len(t.Spans))
	for _, sp := range t.Spans {
		s := spanSummary{
			Name:    sp.Name,
			StartUS: sp.Start.Microseconds(),
			DurUS:   sp.Dur.Microseconds(),
		}
		if len(sp.Attrs) > 0 {
			s.Attrs = make(map[string]int64, len(sp.Attrs))
			for _, a := range sp.Attrs {
				s.Attrs[a.Key] = a.Value
			}
		}
		out = append(out, s)
	}
	return out
}

// stageLine renders "name=dur name=dur ..." for log lines: compact enough
// for one structured field, detailed enough to name the slow stage.
func stageLine(t trace.Trace) string {
	var b strings.Builder
	for i, sp := range t.Spans {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(sp.Name)
		b.WriteByte('=')
		b.WriteString(sp.Dur.Round(10 * time.Microsecond).String())
	}
	return b.String()
}

// traceRing retains the last N solve traces under a single mutex: entries
// are written once per solve (not per request — cache hits and coalesced
// followers don't produce traces), so contention is bounded by solver
// throughput, not request throughput.
type traceRing struct {
	mu   sync.Mutex
	next uint64
	buf  []*traceEntry // ring; buf[(next-1) % len] is the newest
	n    int           // entries written, ≤ len(buf)
}

// newTraceRing returns a ring retaining size entries; size ≤ 0 disables
// retention (add still assigns ids so responses and logs stay correlated).
func newTraceRing(size int) *traceRing {
	r := &traceRing{}
	if size > 0 {
		r.buf = make([]*traceEntry, size)
	}
	return r
}

// add assigns the entry its id and retains it, evicting the oldest.
func (r *traceRing) add(e *traceEntry) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	e.ID = r.next
	if len(r.buf) > 0 {
		r.buf[(r.next-1)%uint64(len(r.buf))] = e
		if r.n < len(r.buf) {
			r.n++
		}
	}
	return e.ID
}

// complete finalizes a still-retained entry's scalar fields after the
// fact — a batch parent is published before its items run (the items need
// its id) and only learns its elapsed time when the batch finishes. The
// mutation happens under the ring lock, and readers copy entries out, so
// late completion never races a concurrent list.
func (r *traceRing) complete(id uint64, mutate func(*traceEntry)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) == 0 || id == 0 || id > r.next {
		return
	}
	e := r.buf[(id-1)%uint64(len(r.buf))]
	if e == nil || e.ID != id {
		return // evicted
	}
	mutate(e)
}

// get returns a copy of the entry with the given id if it is still
// retained. Copies are shallow — Spans is shared — which is safe because
// spans are immutable once published; only scalar fields may be mutated
// later (see complete).
func (r *traceRing) get(id uint64) (traceEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) == 0 || id == 0 || id > r.next {
		return traceEntry{}, false
	}
	e := r.buf[(id-1)%uint64(len(r.buf))]
	if e == nil || e.ID != id {
		return traceEntry{}, false // evicted
	}
	return *e, true
}

// list returns copies of the retained entries, newest first.
func (r *traceRing) list() []traceEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]traceEntry, 0, r.n)
	for i := 0; i < r.n; i++ {
		e := r.buf[(r.next-1-uint64(i))%uint64(len(r.buf))]
		if e != nil {
			out = append(out, *e)
		}
	}
	return out
}

// handleTraceList serves GET /v1/trace: the retained solve traces, newest
// first.
func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, apiErr(http.StatusMethodNotAllowed, encodingapi.CodeMethodNotAllowed, "use GET"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"traces": s.traces.list()})
}

// handleTraceGet serves GET /v1/trace/{id}: one retained solve trace.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, apiErr(http.StatusMethodNotAllowed, encodingapi.CodeMethodNotAllowed, "use GET"))
		return
	}
	idStr := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
	id, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil || id == 0 {
		s.writeError(w, apiErr(http.StatusBadRequest, encodingapi.CodeBadRequest, "trace id must be a positive integer"))
		return
	}
	e, ok := s.traces.get(id)
	if !ok {
		s.writeError(w, apiErr(http.StatusNotFound, encodingapi.CodeNotFound, "trace not found (never existed, evicted, or retention disabled)"))
		return
	}
	writeJSON(w, http.StatusOK, e)
}
