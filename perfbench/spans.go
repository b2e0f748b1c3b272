package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one interval the benchmark recorded around a call into a layer:
// a name, a start and end relative to the tracer's epoch, and the span that
// caused it (0 for a root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps the spans of one run in memory. A nil *tracer is the
// untraced mode: every method is a no-op returning span id 0, so the
// measured code paths are the same in both modes.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span under parent and returns its id.
func (t *tracer) start(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes the span id; closing a closed span does nothing.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	if t.spans[id-1].End < 0 {
		t.spans[id-1].End = now
	}
	t.mu.Unlock()
}

// add records a finished span whose interval was measured elsewhere, such
// as a server-side stage reported back in a response.
func (t *tracer) add(parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch),
	})
	return len(t.spans)
}

// flat is a span reported without a parent link: the program's own stage
// spans are a flat list, so nesting is recovered from their intervals.
type flat struct {
	Name       string
	Start, End time.Time
}

// addFlat records flat spans under parent, nesting each inside the latest
// earlier span whose interval contains its start.
func (t *tracer) addFlat(parent int, fs []flat) {
	if t == nil || len(fs) == 0 {
		return
	}
	fs = append([]flat(nil), fs...)
	sort.SliceStable(fs, func(i, j int) bool {
		if !fs[i].Start.Equal(fs[j].Start) {
			return fs[i].Start.Before(fs[j].Start)
		}
		return fs[i].End.After(fs[j].End) // the enclosing span first
	})
	type open struct {
		id  int
		end time.Time
	}
	var stack []open
	for _, f := range fs {
		for len(stack) > 0 && !f.Start.Before(stack[len(stack)-1].end) {
			stack = stack[:len(stack)-1]
		}
		p := parent
		if len(stack) > 0 {
			p = stack[len(stack)-1].id
		}
		stack = append(stack, open{id: t.add(p, f.Name, f.Start, f.End), end: f.End})
	}
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children (concurrent
// batch items) are counted once, and a child reaching outside its parent
// only counts inside it.
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered time.Duration
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, c := range cs {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - cur
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		covered += curEnd - cur
		out[s.ID] = s.dur() - covered
	}
	return out
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// writeSpans writes the spans as JSON lines to path, creating its
// directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// layerSeconds turns one traced pass into layer values: the self time of
// each span name in seconds, under "<name>_s", plus the pass's counts.
func layerSeconds(spans []span, counts map[string]float64) map[string]float64 {
	m := make(map[string]float64)
	for name, d := range selfByName(spans) {
		m[name+"_s"] = d.Seconds()
	}
	for k, v := range counts {
		m[k] = v
	}
	return m
}

// rootShares sums the duration and the self time of the root spans: the
// self time of a root is the part of the operation no layer span covers.
func rootShares(spans []span) (self, dur time.Duration) {
	st := selfTimes(spans)
	for _, s := range spans {
		if s.Parent == 0 {
			self += st[s.ID]
			dur += s.dur()
		}
	}
	return self, dur
}

// outsideParents sums the part of each span that lies outside its parent's
// interval: time a layer reports that its caller's span cannot hold, which
// selfTimes drops and no layer is credited with.
func outsideParents(spans []span) time.Duration {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var out time.Duration
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		inside := max(min(s.End, p.End)-max(s.Start, p.Start), 0)
		out += s.dur() - inside
	}
	return out
}

// finishLayers sets each layer value to its median over the traced passes
// (a pass without the value counts 0), the tracing overhead from the
// untraced and traced pass times, and the unattributed share of the traced
// operations, which must stay within maxUnattributedPct.
func finishLayers(out *outcome, passes []map[string]float64, untraced, traced []float64, unattributed, total time.Duration) {
	keys := map[string]bool{}
	for _, p := range passes {
		for k := range p {
			keys[k] = true
		}
	}
	for k := range keys {
		vs := make([]float64, len(passes))
		for i, p := range passes {
			vs[i] = p[k]
		}
		out.layers[k] = median(vs)
	}
	if u := median(untraced); u > 0 {
		out.layers["trace.overhead_pct"] = 100 * (median(traced)/u - 1)
	}
	if total > 0 {
		pct := 100 * float64(unattributed) / float64(total)
		out.layers["trace.unattributed_pct"] = pct
		if pct > maxUnattributedPct {
			out.wrong = append(out.wrong, fmt.Sprintf(
				"layer self-times leave %.1f%% of the traced operation time unattributed (tolerance %.0f%%)", pct, maxUnattributedPct))
		}
	}
}
