package cost_test

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/cost"
	"repro/internal/fsm"
	"repro/internal/hypercube"
	"repro/internal/kiss"
	"repro/internal/mv"
)

// table3Input is the Table-3 constraint set of a built-in benchmark: the
// input constraints with encoding don't-cares, as bench.RunTable3 builds
// them.
func table3Input(t testing.TB, name string) *constraint.Set {
	m, err := fsm.GenerateByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return mv.InputConstraintsDC(m)
}

// corpusInput is the face-constraint set the pipeline's encoders receive
// for a corpus machine: the faces of its minimized symbolic cover.
func corpusInput(t testing.TB, name string) *constraint.Set {
	f, err := os.Open("../../testdata/corpus/" + name + ".kiss2")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := kiss.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	sc := mv.Cover(m)
	sc.Minimize()
	cs := constraint.NewSet(m.States)
	sc.FaceConstraints(cs)
	return cs
}

// replayTrajectory walks a fixed annealing-style trajectory — pairwise
// swaps and moves to unused codes drawn from a seeded source — at the
// minimum code length, scoring every step with one evaluator. Each step's
// Result must equal the direct evaluation; the step results are returned
// as "violations.cubes.literals" tokens together with the final counters.
func replayTrajectory(t *testing.T, cs *constraint.Set, steps int) (string, int, int) {
	n := cs.N()
	bits := hypercube.MinBits(n)
	codes := make([]hypercube.Code, n)
	used := make([]bool, 1<<uint(bits))
	for i := range codes {
		codes[i] = hypercube.Code(i)
		used[i] = true
	}
	rng := rand.New(rand.NewSource(16))
	ev := cost.NewEvaluator(cs)
	a := cost.FullAssignment(bits, codes)
	var out []string
	for step := 0; step < steps; step++ {
		if rng.Intn(2) == 0 && len(used) > n {
			s, c := rng.Intn(n), rng.Intn(len(used))
			for used[c] {
				c = (c + 1) % len(used)
			}
			used[codes[s]], used[c] = false, true
			codes[s] = hypercube.Code(c)
		} else {
			x, y := rng.Intn(n), rng.Intn(n-1)
			if y >= x {
				y++
			}
			codes[x], codes[y] = codes[y], codes[x]
		}
		r := ev.Evaluate(a)
		if d := cost.Evaluate(cs, a); d != r {
			t.Fatalf("step %d: evaluator %+v, direct %+v", step, r, d)
		}
		out = append(out, fmt.Sprintf("%d.%d.%d", r.Violations, r.Cubes, r.Literals))
	}
	return strings.Join(out, " "), ev.Hits, ev.Misses
}

// TestTrajectoryPinned replays fixed trajectories on the Table-3 dk16 input
// and the corpus syn12 input and holds every step's costs, and the
// evaluator's final hit and miss counts, to values recorded before the
// face costs were computed over minterm masks. Any change of
// representation must reproduce them exactly.
func TestTrajectoryPinned(t *testing.T) {
	cases := []struct {
		name         string
		cs           *constraint.Set
		results      string
		hits, misses int
	}{
		{"dk16", table3Input(t, "dk16"), dk16Trajectory, dk16Hits, dk16Misses},
		{"syn12", corpusInput(t, "syn12"), syn12Trajectory, syn12Hits, syn12Misses},
	}
	for _, tc := range cases {
		got, hits, misses := replayTrajectory(t, tc.cs, 60)
		if got != tc.results {
			t.Errorf("%s: step costs\n got %s\nwant %s", tc.name, got, tc.results)
		}
		if hits != tc.hits || misses != tc.misses {
			t.Errorf("%s: hits/misses %d/%d, want %d/%d", tc.name, hits, misses, tc.hits, tc.misses)
		}
	}
}

// Recorded from the cube-cover implementation (espresso.Minimize on the
// complemented don't-care set, memo keyed by sorted code lists).
const (
	dk16Trajectory = "17.44.179 18.47.197 18.46.192 15.43.176 17.47.196 18.47.198 18.47.196 18.47.198 19.48.203 19.49.206 " +
		"20.50.208 21.50.210 22.51.218 21.50.209 21.50.218 21.50.218 22.52.229 21.51.223 21.51.214 21.50.215 " +
		"20.49.209 19.47.197 19.48.204 19.48.204 18.48.199 18.48.203 18.50.209 19.51.214 16.48.199 16.47.196 " +
		"17.47.194 17.46.188 20.48.201 20.48.198 20.51.211 20.51.210 21.52.214 19.50.205 20.51.211 22.53.220 " +
		"22.53.220 20.50.204 20.51.210 20.52.214 20.52.214 20.52.215 20.49.196 20.48.193 20.48.197 22.50.206 " +
		"22.51.218 22.51.222 22.53.231 22.55.243 22.56.248 23.58.253 22.58.246 23.59.251 23.58.253 23.59.252"
	dk16Hits, dk16Misses = 407, 973

	syn12Trajectory = "11.27.82 11.27.82 10.26.81 10.27.79 10.27.79 10.28.84 11.29.85 12.30.90 12.30.90 12.30.93 " +
		"12.30.89 10.29.87 10.29.88 10.29.85 8.27.79 9.28.81 7.22.61 8.22.62 7.21.62 6.21.62 " +
		"7.26.78 6.20.54 7.20.54 8.22.61 8.22.60 9.23.64 9.23.62 8.22.59 8.22.58 7.21.55 " +
		"8.25.68 9.25.73 9.23.68 8.22.66 8.22.65 8.22.65 9.24.69 9.24.69 9.23.64 9.26.75 " +
		"11.29.85 11.28.79 10.28.79 9.23.64 8.22.60 8.22.58 6.19.50 10.26.79 10.26.81 10.27.83 " +
		"10.27.77 10.26.78 10.24.70 10.26.78 10.30.89 9.28.80 9.25.69 10.27.77 10.27.80 11.28.84"
	syn12Hits, syn12Misses = 199, 581
)
