package bench

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/mv"
	"repro/internal/pipeline"
)

func TestSplice(t *testing.T) {
	doc := "intro\n<!-- paperbench:begin a -->\nstale\n<!-- paperbench:end a -->\ntail\n"
	out, err := Splice(doc, map[string]string{"a": "fresh\n"})
	if err != nil {
		t.Fatal(err)
	}
	want := "intro\n<!-- paperbench:begin a -->\nfresh\n<!-- paperbench:end a -->\ntail\n"
	if out != want {
		t.Fatalf("got:\n%s\nwant:\n%s", out, want)
	}
	// Idempotent: splicing the already-fresh document is a no-op.
	again, err := Splice(out, map[string]string{"a": "fresh\n"})
	if err != nil || again != out {
		t.Fatalf("not idempotent: %v\n%s", err, again)
	}
}

func TestSpliceErrors(t *testing.T) {
	if _, err := Splice("no markers", map[string]string{"a": "x\n"}); err == nil {
		t.Fatal("accepted a document without the block")
	}
	doc := "<!-- paperbench:end a -->\n<!-- paperbench:begin a -->\n"
	if _, err := Splice(doc, map[string]string{"a": "x\n"}); err == nil {
		t.Fatal("accepted reversed markers")
	}
	orphan := "<!-- paperbench:begin a -->\n<!-- paperbench:end a -->\n<!-- paperbench:begin zzz -->\n<!-- paperbench:end zzz -->\n"
	if _, err := Splice(orphan, map[string]string{"a": "x\n"}); err == nil {
		t.Fatal("accepted a document with a block the generator does not produce")
	}
}

// A tiny matrix run: two machines, one strategy, and every table renderer.
func TestMatrixAndTables(t *testing.T) {
	machines, err := corpus.Load("../../testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	machines = machines[:2]
	strategies := []pipeline.Strategy{pipeline.Nova}
	results, err := RunMatrix(context.Background(), machines, MatrixOptions{Strategies: strategies, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Machine.Name != machines[0].Name {
		t.Fatalf("results out of order: %+v", results)
	}
	blocks := corpusBlocks(machines, results, strategies)
	for _, name := range []string{"corpus", "encoding", "cubes", "literals", "replay"} {
		tbl, ok := blocks[name]
		if !ok {
			t.Fatalf("missing block %q", name)
		}
		for _, m := range machines {
			if !strings.Contains(tbl, "| "+m.Name+" |") {
				t.Fatalf("block %q has no row for %s:\n%s", name, m.Name, tbl)
			}
		}
	}
	if !strings.Contains(blocks["cubes"], "**total**") {
		t.Fatal("cubes table has no totals row")
	}
	if strings.Contains(blocks["replay"], "FAIL") {
		t.Fatalf("replay table reports a failure:\n%s", blocks["replay"])
	}
}

// RunMatrix results must not depend on the worker count (the tables are
// committed; a scheduling dependence would break byte-identical
// regeneration), and neither may its error: under a canceled context
// every cell fails, and the first cell's failure is the one reported.
func TestMatrixWorkerInvariance(t *testing.T) {
	machines, err := corpus.Load("../../testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	machines = machines[:3]
	strategies := []pipeline.Strategy{pipeline.Heuristic, pipeline.Nova}
	r1, err := RunMatrix(context.Background(), machines, MatrixOptions{Strategies: strategies, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := RunMatrix(context.Background(), machines, MatrixOptions{Strategies: strategies, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	b1 := corpusBlocks(machines, r1, strategies)
	b8 := corpusBlocks(machines, r8, strategies)
	for name := range b1 {
		if b1[name] != b8[name] {
			t.Fatalf("block %q differs between 1 and 8 workers:\n%s\n----\n%s", name, b1[name], b8[name])
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = RunMatrix(ctx, machines, MatrixOptions{Strategies: strategies, Workers: 8})
	want := "bench: " + machines[0].Name + "/" + string(strategies[0]) + ": "
	if err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("canceled matrix: error %v, want one starting %q", err, want)
	}
}

// TestSATBackendMatchesExactColumn cross-checks the encoding table's exact
// column against the CNF/SAT covering backend: solving each corpus
// machine's extracted constraint set with Backend: sat must prove the same
// code length and optimality the exact strategy reports.
func TestSATBackendMatchesExactColumn(t *testing.T) {
	machines, err := corpus.Load("../../testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	results, err := RunMatrix(ctx, machines, MatrixOptions{Strategies: []pipeline.Strategy{pipeline.Exact}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		exact := r.Reports[pipeline.Exact]
		cs := mv.GenerateConstraints(r.Machine.FSM, mv.OutputOptions{})
		res, err := core.ExactEncodeCtx(ctx, cs, core.ExactOptions{Backend: core.BackendSAT})
		if err != nil {
			t.Fatalf("%s: sat backend: %v", r.Machine.Name, err)
		}
		if res.Encoding.Bits != exact.Bits || res.Optimal != exact.Optimal {
			t.Errorf("%s: sat backend %d bits (optimal=%v), exact column %d bits (optimal=%v)",
				r.Machine.Name, res.Encoding.Bits, res.Optimal, exact.Bits, exact.Optimal)
		}
	}
}

// Blocks must refuse to render from a failed run: a corpus cell whose
// replay failed or did not run, or a table row with an error.
func TestFailuresRefuseBrokenRuns(t *testing.T) {
	ok := func() Result {
		r := Result{Machine: corpus.Machine{Entry: corpus.Entry{Name: "m"}}, Reports: map[pipeline.Strategy]*pipeline.Report{}}
		for _, s := range pipeline.Strategies {
			r.Reports[s] = &pipeline.Report{Replay: &pipeline.ReplayResult{OK: true}}
		}
		return r
	}
	if err := failures([]Result{ok()}, []Table1Row{{Name: "a"}}, []Table2Row{{Name: "b"}}, []Table3Row{{Name: "c"}}); err != nil {
		t.Fatalf("clean runs refused: %v", err)
	}
	failed, skipped := ok(), ok()
	failed.Reports[pipeline.Nova].Replay = &pipeline.ReplayResult{Error: "diverged"}
	skipped.Reports[pipeline.Exact].Replay = nil
	err := failures([]Result{failed, skipped},
		[]Table1Row{{Name: "a", Err: "boom"}}, []Table2Row{{Name: "b", Err: "nope"}}, []Table3Row{{Name: "c", Err: "sa: x"}})
	if err == nil {
		t.Fatal("failed runs accepted")
	}
	for _, want := range []string{"m/nova: netlist replay failed: diverged", "m/exact: pipeline skipped the replay check",
		"table 1 a: boom", "table 2 b: nope", "table 3 c: sa: x"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
}
