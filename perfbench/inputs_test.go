package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/constraint"
	"repro/internal/core"
)

// The workloads read the corpus relative to the repository root, where
// the benchmark runs.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func serveRequests(t *testing.T, seed int64) []serveRequest {
	t.Helper()
	in, err := buildServeInputs(runConfig{seed: seed, seconds: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return append(in.closed, in.open...)
}

func TestServeRequestBytesRepeatPerSeed(t *testing.T) {
	a, b := serveRequests(t, 42), serveRequests(t, 42)
	if len(a) != len(b) {
		t.Fatalf("seed 42 drew %d and then %d requests", len(a), len(b))
	}
	for i := range a {
		if a[i].path != b[i].path || !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("request %d differs between two draws from seed 42", i)
		}
	}
	c := serveRequests(t, 43)
	same := 0
	for i := range c {
		if bytes.Equal(a[i].body, c[i].body) {
			same++
		}
	}
	if same == len(c) {
		t.Fatal("seeds 42 and 43 drew the same requests")
	}
	kinds := map[string]int{}
	for _, r := range a {
		kinds[r.kind]++
	}
	for _, k := range serveCycle {
		if kinds[k] == 0 {
			t.Errorf("the stream holds no %s request", k)
		}
	}
}

func TestPermutedProblemHashesTheSame(t *testing.T) {
	g, err := newServeGen(7)
	if err != nil {
		t.Fatal(err)
	}
	p := g.fresh("exact", 0)
	q := permute(g.rng, p.text)
	a, err := constraint.ParseString(p.text)
	if err != nil {
		t.Fatal(err)
	}
	b, err := constraint.ParseString(q)
	if err != nil {
		t.Fatal(err)
	}
	if q == p.text || core.CanonicalHashSet(a) != core.CanonicalHashSet(b) {
		t.Fatalf("permuted text must differ and hash the same:\n%s\n%s", p.text, q)
	}
}

func TestPassInputsRepeatPerSeed(t *testing.T) {
	names := func(seed int64) (exact, synth []string) {
		cfg := runConfig{seed: seed}
		eops, err := buildExactOps(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sops, err := buildSynthOps(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range eops {
			exact = append(exact, op.name)
		}
		for _, op := range sops {
			synth = append(synth, op.name)
		}
		return exact, synth
	}
	e1, s1 := names(5)
	e2, s2 := names(5)
	e3, _ := names(6)
	if !slices.Equal(e1, e2) || !slices.Equal(s1, s2) {
		t.Fatal("the same seed ordered the operations differently")
	}
	if slices.Equal(e1, e3) {
		t.Fatal("seeds 5 and 6 ordered the exact solves the same way")
	}
}

// TestTracedExactRunsTheTimedEngines checks that the traced rebuild hands
// prime generation and covering the one worker the timed solve gives them:
// with the default, prime generation would take its parallel engine.
func TestTracedExactRunsTheTimedEngines(t *testing.T) {
	for _, op := range []exactOp{{name: "bb"}, {name: "sat", sat: true}} {
		p, c := op.stageOptions()
		if p.Parallelism.Workers != 1 || c.Parallelism.Workers != 1 {
			t.Errorf("%s: prime workers %d, cover workers %d; the timed solve uses 1",
				op.name, p.Parallelism.Workers, c.Parallelism.Workers)
		}
		if !op.sat && p.Limit != exactPrimeLimit {
			t.Errorf("%s: prime limit %d, want %d", op.name, p.Limit, exactPrimeLimit)
		}
	}
}

// TestBenchmarkJSONListsTheMetrics keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the code %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not in the code", w.Name)
		}
	}
}
