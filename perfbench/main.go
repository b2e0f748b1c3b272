// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time, checks every output, and prints its metrics
// by name with their units; the last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload exact --seed 1 --seconds 40 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that reports the per-layer metrics. The
// workloads, metrics and seeds are described in perfbench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// rng returns the generator a workload draws its inputs from: the same
// seed always yields the same inputs.
func (c runConfig) rng() *rand.Rand { return rand.New(rand.NewSource(c.seed)) }

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	// wrong lists outputs that failed their checks; any entry makes the
	// run incorrect.
	wrong []string
	// e2e and layers hold the end-to-end and per-layer metric values.
	e2e, layers map[string]float64
	// determ holds values that must repeat exactly on every run of one
	// commit with the same workload and seed.
	determ map[string]float64
	// notes are extra report lines (sample counts, percentiles used).
	notes []string
	spans []span
}

func newOutcome() *outcome {
	return &outcome{
		e2e:    map[string]float64{},
		layers: map[string]float64{},
		determ: map[string]float64{},
	}
}

// fail records a wrong output; the operation counts as failed.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.wrong) < 20 {
		o.wrong = append(o.wrong, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"serve": runServe,
	"exact": runExact,
	"synth": runSynth,
}

// setupRepeats is how many times a run repeats its set-up; setup_s is the
// median, so one slow set-up does not move it.
const setupRepeats = 7

// timeSetup runs fn setupRepeats times, each from a collected heap, and
// returns the median duration.
func timeSetup(fn func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}

// passes runs pass(traced) at least once, and again while another pass as
// long as the last one still ends within the run's time. In the traced run
// passes alternate untraced and traced, starting untraced, and both kinds
// run at least once, so the two can be compared.
func passes(cfg runConfig, pass func(traced bool) error) error {
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; ; i++ {
		traced := cfg.trace && i%2 == 1
		t0 := time.Now()
		if err := pass(traced); err != nil {
			return err
		}
		if (!cfg.trace || i >= 1) && time.Now().Add(time.Since(t0)).After(deadline) {
			return nil
		}
	}
}

func main() {
	workload := flag.String("workload", "", "workload to run: serve, exact or synth")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Float64("seconds", 40, "how long the run measures")
	traceMode := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload serve|exact|synth --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := checkRoot(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *traceMode == 1}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if err := guardDeterminism(*workload, cfg, out); err != nil {
		out.wrong = append(out.wrong, err.Error())
	}
	if cfg.trace {
		path := filepath.Join(stateDir(), fmt.Sprintf("spans-%s-%d.jsonl", *workload, *seed))
		if err := writeSpans(path, out.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		out.note("spans: %d written to %s", len(out.spans), path)
	}
	res, err := report(os.Stdout, *workload, cfg, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// checkRoot makes sure the working directory is the repository root: the
// workloads read the corpus from it.
func checkRoot() error {
	for _, p := range []string{"go.mod", "testdata/corpus/manifest.json"} {
		if _, err := os.Stat(p); err != nil {
			return errors.New("run from the repository root (" + p + " not found)")
		}
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the human-readable lines and returns the result object.
// The traced run reports every per-layer metric (0 for a layer the
// workload does not cross); the untraced run reports every end-to-end
// metric, each of which every workload measures.
func report(w io.Writer, workload string, cfg runConfig, out *outcome) (result, error) {
	res := result{
		Correct:   len(out.wrong) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted < 1 {
		return res, errors.New("no operation was attempted")
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v %s\n", workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace, machineStamp())
	defs, values := endToEnd, out.e2e
	if cfg.trace {
		defs, values = perLayer, out.layers
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !cfg.trace {
			return res, fmt.Errorf("workload %s did not measure %s", workload, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "  %-28s %14.6g %-6s (%s is better)\n", d.name, v, d.unit, d.better)
	}
	for _, n := range out.notes {
		fmt.Fprintln(w, "  note:", n)
	}
	keys := make([]string, 0, len(out.determ))
	for k := range out.determ {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var det []string
	for _, k := range keys {
		det = append(det, fmt.Sprintf("%s=%g", k, out.determ[k]))
	}
	fmt.Fprintln(w, "  deterministic:", strings.Join(det, " "))
	for _, msg := range out.wrong {
		fmt.Fprintln(w, "  WRONG:", msg)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	return res, nil
}

// passStats accumulates the per-pass figures of a workload whose pass is
// a fixed list of sequential operations.
type passStats struct {
	walls, p50s, tails []float64
	tailPct            float64
	// opLat holds the operation latencies of each untraced pass, in
	// operation order.
	opLat [][]float64
	// ref is sampled after each untraced operation.
	ref refClock
	// Traced passes: their operation time, the unattributed and total
	// root span time, and the layer values of each.
	tracedWalls               []float64
	unattributed, tracedTotal time.Duration
	layerPasses               []map[string]float64
}

// untraced records one untraced pass's operation latencies in ms.
func (p *passStats) untraced(lat []float64) {
	p.walls = append(p.walls, sum(lat)/1000)
	p.p50s = append(p.p50s, median(lat))
	t, pct := tail(lat)
	p.tails, p.tailPct = append(p.tails, t), pct
	p.opLat = append(p.opLat, lat)
}

// opMedians returns each operation's median latency over the untraced
// passes in which all n operations completed.
func (p *passStats) opMedians(n int) []float64 {
	meds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		var xs []float64
		for _, lat := range p.opLat {
			if len(lat) == n {
				xs = append(xs, lat[i])
			}
		}
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return meds
}

// traced records one traced pass: the operation latencies in ms, its
// spans and its layer counts. Counts must repeat on every traced pass.
func (p *passStats) traced(out *outcome, lat []float64, spans []span, counts map[string]float64) {
	if len(p.layerPasses) > 0 {
		for k, v := range counts {
			if prev := p.layerPasses[0][k]; prev != v {
				out.fail("traced pass counted %s=%g, the first traced pass %g", k, v, prev)
			}
		}
	}
	p.layerPasses = append(p.layerPasses, layerSeconds(spans, counts))
	self, dur := rootShares(spans)
	p.unattributed += self
	p.tracedTotal += dur
	p.tracedWalls = append(p.tracedWalls, sum(lat)/1000)
}

// finish sets the end-to-end timing metrics from the untraced passes and,
// in the traced run, the layer metrics. wall_s and geomean_ms are taken
// over each operation's median time, at the reference speed (refspeed.go):
// the same operation's time swings by a fifth and more from one second to
// the next on a shared host, and the median of each operation sheds those
// swings better than the median of whole passes does.
func (p *passStats) finish(out *outcome, cfg runConfig, opsPerPass int) {
	meds := p.opMedians(opsPerPass)
	s := p.ref.scale()
	out.e2e["wall_s"] = sum(meds) / 1000 * s
	out.e2e["geomean_ms"] = geomean(meds) * s
	out.note("measured wall_s %.4f s, geomean_ms %.4f ms; reference work %.4f ms (median of %d), scale %.4f",
		sum(meds)/1000, geomean(meds), median(p.ref.ms), len(p.ref.ms), s)
	out.layers["latency.p50_ms"] = median(p.p50s)
	out.layers["latency.tail_ms"] = median(p.tails)
	out.note("%d untraced passes of %d operations; latency.tail_ms is p%.0f of a pass", len(p.walls), opsPerPass, p.tailPct)
	out.note("untraced pass walls (s): %.3f", p.walls)
	if cfg.trace {
		finishLayers(out, p.layerPasses, p.walls, p.tracedWalls, p.unattributed, p.tracedTotal)
		out.note("%d traced passes", len(p.tracedWalls))
	}
}
