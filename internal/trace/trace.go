// Package trace is the solve-trace observability layer: a lightweight,
// allocation-conscious span recorder threaded through the solver pipeline
// via context.Context.
//
// A Span is one pipeline stage — prime generation, covering-matrix
// construction, the branch-and-bound covering search, a heuristic restart
// batch — with a start offset, a duration and a handful of integer
// attributes (candidate counts, search nodes, cache hits, restarts). The
// solver packages start spans against whatever Recorder the context
// carries; when the context carries none, every operation is a nil-receiver
// no-op that performs zero heap allocations, so untraced hot paths keep the
// allocation discipline the kernel benchmarks pin.
//
// Typical use:
//
//	ctx, rec := trace.Start(ctx)
//	res, err := core.ExactEncodeCtx(ctx, cs, opts)
//	fmt.Print(rec.Snapshot().Table())
//
// Inside a solver stage:
//
//	sp := trace.StartSpan(ctx, "prime.generate")
//	... work ...
//	sp.Set("seeds", len(seeds)).Set("primes", len(out))
//	sp.End()
package trace

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Attr is one integer annotation on a span. Attributes are deliberately
// integers only: stage observations in this codebase are counts and flags,
// and a fixed-size numeric attribute never forces a hot path to build
// strings.
type Attr struct {
	Key   string `json:"key"`
	Value int64  `json:"value"`
}

// maxAttrs bounds the attributes stored inline in a span handle. Stages
// record a handful of counters (sat.cover, the widest, records nine);
// overflow attributes are dropped rather than allocated.
const maxAttrs = 12

// Span is an in-progress stage measurement. Obtain one from
// Recorder.StartSpan or the package-level StartSpan; a nil Span (from a nil
// or absent Recorder) is valid and every method on it is a no-op.
type Span struct {
	rec   *Recorder
	name  string
	began time.Time
	attrs [maxAttrs]Attr
	n     int
}

// Set attaches an integer attribute and returns the span for chaining.
// No-op on a nil span; attributes beyond the inline capacity are dropped.
func (s *Span) Set(key string, v int) *Span { return s.Set64(key, int64(v)) }

// Set64 is Set for values already widened to int64.
func (s *Span) Set64(key string, v int64) *Span {
	if s == nil || s.n >= maxAttrs {
		return s
	}
	s.attrs[s.n] = Attr{Key: key, Value: v}
	s.n++
	return s
}

// SetBool attaches a 0/1 attribute.
func (s *Span) SetBool(key string, v bool) *Span {
	var b int64
	if v {
		b = 1
	}
	return s.Set64(key, b)
}

// End stops the span and commits it to its recorder. No-op on a nil span.
// A span must be ended at most once.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.rec.commit(s)
}

// SpanRecord is one committed span: the immutable, JSON-friendly form
// stored by the recorder and exposed through Trace.
type SpanRecord struct {
	// Name identifies the stage, dotted by package: "prime.generate",
	// "cover.solve", "heuristic.restarts".
	Name string `json:"name"`
	// Start is the span's start offset from the recorder's epoch.
	Start time.Duration `json:"start_ns"`
	// Dur is the span's wall-clock duration.
	Dur time.Duration `json:"dur_ns"`
	// Attrs are the stage's integer annotations in insertion order.
	Attrs []Attr `json:"attrs,omitempty"`
}

// Attr returns the value of the named attribute and whether it is present.
func (r SpanRecord) Attr(key string) (int64, bool) {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return 0, false
}

// Recorder collects the spans of one solve. It is safe for concurrent use:
// parallel stages may commit spans from multiple goroutines. The zero value
// is not used; create recorders with New. A nil *Recorder is a valid "off"
// recorder: StartSpan on it returns a nil span and nothing is allocated.
type Recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []SpanRecord
}

// New returns an empty recorder whose epoch is now.
func New() *Recorder { return &Recorder{epoch: time.Now()} }

// StartSpan begins a stage span. On a nil recorder it returns a nil span,
// costing nothing.
func (r *Recorder) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	return &Span{rec: r, name: name, began: time.Now()}
}

// commit finalizes sp into the recorder.
func (r *Recorder) commit(sp *Span) {
	now := time.Now()
	rec := SpanRecord{
		Name:  sp.name,
		Start: sp.began.Sub(r.epoch),
		Dur:   now.Sub(sp.began),
	}
	if sp.n > 0 {
		rec.Attrs = append([]Attr(nil), sp.attrs[:sp.n]...)
	}
	r.mu.Lock()
	r.spans = append(r.spans, rec)
	r.mu.Unlock()
}

// Snapshot returns the committed spans so far, ordered by commit time.
// The snapshot is independent of later recording.
func (r *Recorder) Snapshot() Trace {
	if r == nil {
		return Trace{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return Trace{Spans: append([]SpanRecord(nil), r.spans...)}
}

// ctxKey is the context key type for the recorder; unexported so only this
// package can attach one.
type ctxKey struct{}

// NewContext returns ctx carrying r. Attaching a nil recorder returns ctx
// unchanged, so "tracing off" contexts stay value-free.
func NewContext(ctx context.Context, r *Recorder) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, r)
}

// FromContext returns the recorder ctx carries, or nil. The nil result is
// directly usable: StartSpan on it is a free no-op.
func FromContext(ctx context.Context) *Recorder {
	r, _ := ctx.Value(ctxKey{}).(*Recorder)
	return r
}

// Start attaches a fresh recorder to ctx and returns both: the one-call
// entry point for callers that want a traced solve.
func Start(ctx context.Context) (context.Context, *Recorder) {
	r := New()
	return NewContext(ctx, r), r
}

// StartSpan begins a span against the context's recorder; a context with no
// recorder yields a nil span and costs only the context lookup.
func StartSpan(ctx context.Context, name string) *Span {
	return FromContext(ctx).StartSpan(name)
}

// Trace is an immutable snapshot of one solve's spans: the report attached
// to library results, returned by the server's /v1/trace endpoint and
// rendered by the CLIs' -trace flag.
type Trace struct {
	Spans []SpanRecord `json:"spans"`
}

// Empty reports whether the trace recorded nothing.
func (t Trace) Empty() bool { return len(t.Spans) == 0 }

// Find returns the first span with the given name, and whether one exists.
func (t Trace) Find(name string) (SpanRecord, bool) {
	for _, s := range t.Spans {
		if s.Name == name {
			return s, true
		}
	}
	return SpanRecord{}, false
}

// Total returns the wall-clock extent of the trace: from the earliest span
// start to the latest span end. Zero for an empty trace.
func (t Trace) Total() time.Duration {
	if len(t.Spans) == 0 {
		return 0
	}
	lo, hi := t.Spans[0].Start, t.Spans[0].Start+t.Spans[0].Dur
	for _, s := range t.Spans[1:] {
		if s.Start < lo {
			lo = s.Start
		}
		if end := s.Start + s.Dur; end > hi {
			hi = end
		}
	}
	return hi - lo
}

// WriteTable renders the per-stage time/count table the CLIs print:
// one row per span in start order with duration, share of the trace's
// wall-clock extent, and attributes.
func (t Trace) WriteTable(w io.Writer) {
	if t.Empty() {
		fmt.Fprintln(w, "trace: no spans recorded")
		return
	}
	total := t.Total()
	nameW := len("stage")
	for _, s := range t.Spans {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	fmt.Fprintf(w, "%-*s  %12s  %6s  %s\n", nameW, "stage", "time", "share", "attrs")
	for _, s := range t.Spans {
		share := 0.0
		if total > 0 {
			share = 100 * float64(s.Dur) / float64(total)
		}
		var attrs strings.Builder
		for i, a := range s.Attrs {
			if i > 0 {
				attrs.WriteByte(' ')
			}
			fmt.Fprintf(&attrs, "%s=%d", a.Key, a.Value)
		}
		fmt.Fprintf(w, "%-*s  %12s  %5.1f%%  %s\n", nameW, s.Name, fmtDur(s.Dur), share, attrs.String())
	}
	fmt.Fprintf(w, "%-*s  %12s\n", nameW, "total", fmtDur(total))
}

// Table is WriteTable into a string.
func (t Trace) Table() string {
	var b strings.Builder
	t.WriteTable(&b)
	return b.String()
}

// fmtDur rounds a duration to a stable, column-friendly precision.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(100 * time.Nanosecond).String()
	}
}
