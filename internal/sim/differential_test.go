package sim_test

import (
	"context"
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/blif"
	"repro/internal/corpus"
	"repro/internal/fsm"
	"repro/internal/kiss"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// synthesized is one corpus machine's netlist under one strategy.
type synthesized struct {
	name string
	m    *fsm.FSM
	blif string
}

const corpusDir = "../../testdata/corpus"

var (
	corpusOnce sync.Once
	corpusNets []synthesized
	corpusErr  error
)

// corpusNetlists synthesizes every corpus machine under the four
// strategies the pipeline replays. It runs once per test binary.
func corpusNetlists(tb testing.TB) []synthesized {
	tb.Helper()
	corpusOnce.Do(func() {
		machines, err := corpus.Load(corpusDir)
		if err != nil {
			corpusErr = err
			return
		}
		for _, mach := range machines {
			for _, s := range []pipeline.Strategy{pipeline.Exact, pipeline.Heuristic, pipeline.Anneal, pipeline.Nova} {
				n, err := synthesize(mach, s)
				if err != nil {
					corpusErr = err
					return
				}
				corpusNets = append(corpusNets, n)
			}
		}
	})
	if corpusErr != nil {
		tb.Fatal(corpusErr)
	}
	return corpusNets
}

// synthesize runs the pipeline and returns its emitted netlist.
func synthesize(mach corpus.Machine, s pipeline.Strategy) (synthesized, error) {
	name := mach.Name + "/" + string(s)
	rep, err := pipeline.Run(context.Background(), mach.FSM, pipeline.Options{Strategy: s})
	if err != nil {
		return synthesized{}, fmt.Errorf("%s: %w", name, err)
	}
	return synthesized{name, mach.FSM, rep.BLIF}, nil
}

// replaySeeds are the pipeline's replay seed and one more.
var replaySeeds = []int64{1, 7}

// verdict replays text against m with both evaluators and fails the test
// unless their verdicts match byte for byte under every seed. It returns
// the verdict under the first seed ("" when the replay passes).
func verdict(t *testing.T, label string, m *fsm.FSM, text string) string {
	t.Helper()
	nl, err := blif.ParseString(text)
	if err != nil {
		t.Fatalf("%s: %v\n%s", label, err, text)
	}
	var first string
	for i, seed := range replaySeeds {
		got := errString(sim.ReplayNetlist(m, nl, pipeline.DefaultVerifySequences, pipeline.DefaultVerifyLength, seed))
		want := errString(refReplayNetlist(m, nl, pipeline.DefaultVerifySequences, pipeline.DefaultVerifyLength, seed))
		if got != want {
			t.Errorf("%s seed %d: ReplayNetlist says %q, reference says %q\n%s", label, seed, got, want, text)
		}
		if i == 0 {
			first = got
		}
	}
	return first
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// netlistMutations are the corruptions the differential replay applies to
// every corpus netlist. Each returns the mutated text, or false when the
// netlist has nothing to mutate.
var netlistMutations = []struct {
	name   string
	mutate func(text string) (string, bool)
}{
	{"flip cube literal", flipCubeLiteral},
	{"flip latch init", flipLatchInit},
	{"empty output table", emptyOutputTable},
	{"table drives undeclared in0", driveUndeclaredInput},
}

// TestReplayMatchesReference is the compiled simulator's differential
// check: for every corpus machine × {exact, heuristic, anneal, nova}, and
// for each mutation of those netlists, ReplayNetlist must return exactly
// the reference replay's error, or nil when it does.
func TestReplayMatchesReference(t *testing.T) {
	nets := corpusNetlists(t)
	diverged := map[string]int{}
	for _, n := range nets {
		if v := verdict(t, n.name, n.m, n.blif); v != "" {
			t.Errorf("%s: synthesized netlist fails replay: %s", n.name, v)
		}
		for _, mu := range netlistMutations {
			text, ok := mu.mutate(n.blif)
			if !ok {
				continue
			}
			if verdict(t, n.name+" ("+mu.name+")", n.m, text) != "" {
				diverged[mu.name]++
			}
		}
	}
	// The override pins the walk's in0 over the table driving it, so that
	// mutation must replay clean; the others must reach the divergence
	// path on some netlist, or the comparison never checks an error.
	for _, mu := range netlistMutations {
		switch {
		case mu.name == "table drives undeclared in0" && diverged[mu.name] != 0:
			t.Errorf("%s: %d netlists diverged; the walk's value must win over the driver", mu.name, diverged[mu.name])
		case mu.name != "table drives undeclared in0" && diverged[mu.name] == 0:
			t.Errorf("%s: no corpus netlist diverged", mu.name)
		}
	}
}

// TestReplayEdgesMatchReference pins verdicts on machine and netlist
// shapes the corpus does not produce, each against the reference and an
// expected outcome.
func TestReplayEdgesMatchReference(t *testing.T) {
	cases := []struct {
		name, kiss, blif string
		want             string // substring of the verdict; "" means it passes
	}{
		// Overlapping transitions that agree on next state and asserted
		// outputs: the first one in table order supplies the mask, so
		// out1, '-' there, is not compared although the second says 0.
		{"first match masks", ".i 1\n.o 2\n- a a 1-\n1 a a 10\n",
			".model m\n.inputs in0\n.outputs out0 out1\n.names in0 out0\n- 1\n.names in0 out1\n1 1\n.end\n", ""},
		{"non-deterministic", ".i 1\n.o 1\n- a a 1\n1 a b 1\n",
			".model m\n.inputs in0\n.outputs out0\n.latch ns0 st0 0\n.names in0 out0\n- 1\n.names in0 st0 ns0\n1- 1\n.end\n",
			"state a is non-deterministic on input 1"},
		// State b has no transitions: every walk ends after one step.
		{"dead end", ".i 1\n.o 1\n- a b 1\n",
			".model m\n.inputs in0\n.outputs out0\n.latch ns0 st0 0\n.names in0 st0 ns0\n-0 1\n.names in0 st0 out0\n-0 1\n.end\n", ""},
		// out1 has a driver but is not a primary output: it reads 0.
		{"undeclared output", ".i 1\n.o 2\n- a a 11\n",
			".model m\n.inputs in0\n.outputs out0\n.names in0 out0\n- 1\n.names in0 out1\n- 1\n.end\n",
			"sequence 0 step 0 (state a, input 1): netlist outputs 01, machine 11"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := kiss.ParseString(tc.kiss)
			if err != nil {
				t.Fatal(err)
			}
			got := verdict(t, tc.name, m, tc.blif)
			if tc.want == "" && got != "" || !strings.Contains(got, tc.want) {
				t.Fatalf("verdict %q, want one containing %q", got, tc.want)
			}
		})
	}
}

var cubeRow = regexp.MustCompile(`(?m)^[-01]*[01][-01]* 1$`)

// flipCubeLiteral flips the first specified literal of the first cube row.
func flipCubeLiteral(text string) (string, bool) {
	loc := cubeRow.FindStringIndex(text)
	if loc == nil {
		return text, false
	}
	row := []byte(text[loc[0]:loc[1]])
	i := strings.IndexAny(string(row), "01")
	row[i] ^= '0' ^ '1'
	return text[:loc[0]] + string(row) + text[loc[1]:], true
}

var latchLine = regexp.MustCompile(`(?m)^\.latch (\S+) (\S+) ([01])$`)

// flipLatchInit flips the initial value of the first latch.
func flipLatchInit(text string) (string, bool) {
	loc := latchLine.FindStringSubmatchIndex(text)
	if loc == nil {
		return text, false
	}
	init := byte('0')
	if text[loc[6]] == '0' {
		init = '1'
	}
	return text[:loc[6]] + string(init) + text[loc[7]:], true
}

// emptyOutputTable deletes every row of the first out<o> table with rows,
// making that output the constant 0.
func emptyOutputTable(text string) (string, bool) {
	lines := strings.Split(text, "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, ".names ") || !strings.Contains(line, " out") {
			continue
		}
		j := i + 1
		for j < len(lines) && !strings.HasPrefix(lines[j], ".") {
			j++
		}
		if j == i+1 {
			continue
		}
		return strings.Join(append(lines[:i+1:i+1], lines[j:]...), "\n"), true
	}
	return text, false
}

// driveUndeclaredInput removes in0 from .inputs and drives it from a
// constant-0 table instead. The walk still sets in0, and its value must
// win over the table, so the netlist replays exactly like the original.
func driveUndeclaredInput(text string) (string, bool) {
	lines := strings.Split(text, "\n")
	for i, line := range lines {
		fields := strings.Fields(line)
		if len(fields) < 2 || fields[0] != ".inputs" || fields[1] != "in0" {
			continue
		}
		lines[i] = strings.Join(append([]string{".inputs"}, fields[2:]...), " ")
		out := strings.Join(lines, "\n")
		return strings.Replace(out, "\n.end", "\n.names in0\n.end", 1), true
	}
	return text, false
}

// TestStepMatchesReference drives hand-written netlists that the corpus
// never emits through NetlistSim.Step and the reference side by side:
// tables wider than one mask word, constant-0 tables, outputs that are
// latches or primary inputs, and overrides of a table-driven signal.
func TestStepMatchesReference(t *testing.T) {
	var names []string
	for i := 0; i < 70; i++ {
		names = append(names, fmt.Sprintf("x%d", i))
	}
	// y = x64·x69 + x1·¬x66 + ¬x0: literals on both sides of the 64-input
	// mask word boundary; z reads a 10-input window straddling it.
	wide := fmt.Sprintf(".model wide\n.inputs %s\n.outputs y z\n.names %s y\n%s 1\n%s 1\n%s 1\n.names %s z\n1---1----- 1\n.end\n",
		strings.Join(names, " "), strings.Join(names, " "),
		cube(70, "64=1", "69=1"), cube(70, "1=1", "66=0"), cube(70, "0=0"),
		strings.Join(names[60:], " "))

	cases := []struct {
		name, text string
		signals    []string // what each step drives at random
	}{
		{"wide", wide, names},
		{"constant 0", ".model c\n.inputs a\n.outputs y z\n.names y\n.names a z\n.end\n", []string{"a"}},
		{"latch and input outputs", `.model l
.inputs a b
.outputs q a
.latch d q 1
.names a b q d
11- 1
--0 1
.end
`, []string{"a", "b"}},
		{"override table output", `.model o
.inputs a
.outputs y
.latch n s 0
.names s t
0 1
.names a t y
11 1
.names y n
1 1
.end
`, []string{"a", "t"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nl, err := blif.ParseString(tc.text)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.NewNetlistSim(nl)
			if err != nil {
				t.Fatal(err)
			}
			want, err := newRefNetlistSim(nl)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			for step := 0; step < 200; step++ {
				in := map[string]bool{}
				for _, s := range tc.signals {
					if rng.Intn(3) != 0 { // leave some absent: they read 0
						in[s] = rng.Intn(2) == 1
					}
				}
				g, w := got.Step(in), want.step(in)
				if fmt.Sprint(g) != fmt.Sprint(w) {
					t.Fatalf("step %d on %v: Step %v, reference %v", step, in, g, w)
				}
			}
		})
	}
}

// cube renders a cube over width inputs with the given "position=literal"
// entries and every other input a don't-care.
func cube(width int, lits ...string) string {
	row := []byte(strings.Repeat("-", width))
	for _, l := range lits {
		var pos int
		var lit byte
		fmt.Sscanf(l, "%d=%c", &pos, &lit)
		row[pos] = lit
	}
	return string(row)
}

// BenchmarkReplayNetlistKernel is the replay verifier alone on the largest
// corpus machine: the pipeline's default 16 walks of 64 steps over the
// annealed syn12 netlist, compile included. It is the per-layer number
// under the pipeline runs' replay stage.
func BenchmarkReplayNetlistKernel(b *testing.B) {
	machines, err := corpus.Load(corpusDir)
	if err != nil {
		b.Fatal(err)
	}
	mach, ok := corpus.Find(machines, "syn12")
	if !ok {
		b.Fatal("corpus has no syn12")
	}
	n, err := synthesize(mach, pipeline.Anneal)
	if err != nil {
		b.Fatal(err)
	}
	nl, err := blif.ParseString(n.blif)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.ReplayNetlist(n.m, nl, pipeline.DefaultVerifySequences, pipeline.DefaultVerifyLength, 1); err != nil {
			b.Fatal(err)
		}
	}
}
