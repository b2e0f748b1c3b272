package mv

import (
	"context"
	"testing"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/espresso"
	"repro/internal/fsm"
	"repro/internal/kiss"
)

// twoGroupMachine has two pairs of states with identical behavior, so MV
// minimization must merge each pair into one multi-state literal.
const twoGroupMachine = `
.i 1
.o 1
0 a hub 1
1 a a   0
0 b hub 1
1 b b   0
0 c alt 0
1 c hub 1
0 d alt 0
1 d hub 1
`

func TestMinimizeMergesGroups(t *testing.T) {
	m, err := kiss.ParseString(twoGroupMachine)
	if err != nil {
		t.Fatal(err)
	}
	cs := InputConstraints(m)
	// States a,b behave identically on input 0 (both to hub/1); c,d are
	// identical everywhere. Expect face constraints containing {a,b} and
	// {c,d}.
	foundAB, foundCD := false, false
	a, _ := m.States.Lookup("a")
	b, _ := m.States.Lookup("b")
	c, _ := m.States.Lookup("c")
	d, _ := m.States.Lookup("d")
	for _, f := range cs.Faces {
		if f.Members.Has(a) && f.Members.Has(b) {
			foundAB = true
		}
		if f.Members.Has(c) && f.Members.Has(d) {
			foundCD = true
		}
	}
	if !foundAB || !foundCD {
		t.Fatalf("expected face constraints grouping {a,b} and {c,d}, got:\n%s", cs)
	}
}

func TestFaceConstraintsAreProper(t *testing.T) {
	for _, name := range []string{"bbsse", "dk512", "master"} {
		m, _ := fsm.GenerateByName(name)
		cs := InputConstraints(m)
		if err := cs.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n := m.NumStates()
		for _, f := range cs.Faces {
			if f.Members.Len() < 2 || f.Members.Len() >= n {
				t.Fatalf("%s: improper face constraint of size %d", name, f.Members.Len())
			}
		}
		// Constraints must be deduplicated.
		seen := map[string]bool{}
		for _, f := range cs.Faces {
			k := f.Members.Key()
			if seen[k] {
				t.Fatalf("%s: duplicate face constraint", name)
			}
			seen[k] = true
		}
	}
}

// TestCoverPreservesBehavior: after minimization, every original
// transition's (input, state) point must still be asserted with the same
// (next state, output) by some MV cube, and no cube may contradict the
// machine.
func TestCoverPreservesBehavior(t *testing.T) {
	for _, name := range []string{"dk512", "master", "exlinp"} {
		m, _ := fsm.GenerateByName(name)
		sc := Cover(m)
		sc.Minimize()
		// Soundness: every cube's (in × states) region agrees with the
		// machine (conflictFree is the defining check).
		for _, c := range sc.Cubes {
			if !sc.conflictFree(c.In, c.States, c.To, c.Out) {
				t.Fatalf("%s: minimized cube contradicts the machine", name)
			}
		}
		// Completeness: every original transition is covered by some cube
		// asserting its pair.
		for ti, tr := range m.Trans {
			covered := false
			for _, c := range sc.Cubes {
				if c.To == tr.To && c.Out == tr.Out && c.States.Has(tr.From) &&
					c.In.Contains(m.InCube(ti)) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("%s: transition %d lost by minimization", name, ti)
			}
		}
	}
}

func TestMinimizeShrinks(t *testing.T) {
	for _, name := range []string{"dk16", "keyb"} {
		m, _ := fsm.GenerateByName(name)
		sc := Cover(m)
		before := len(sc.Cubes)
		sc.Minimize()
		if len(sc.Cubes) > before {
			t.Fatalf("%s: minimization grew the cover %d -> %d", name, before, len(sc.Cubes))
		}
	}
}

func TestGenerateConstraintsFeasible(t *testing.T) {
	for _, name := range []string{"dk512", "master", "bbsse"} {
		m, _ := fsm.GenerateByName(name)
		cs := GenerateConstraints(m, OutputOptions{})
		if err := cs.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !core.CheckFeasible(cs).Feasible {
			t.Fatalf("%s: generated constraints must be feasible by construction", name)
		}
		// Dominance relation must be acyclic and irreflexive.
		if dominanceCyclic(cs, m.NumStates()) {
			t.Fatalf("%s: dominance constraints form a cycle", name)
		}
	}
}

// dominanceCyclic detects cycles in the Big→Small dominance digraph.
func dominanceCyclic(cs *constraint.Set, n int) bool {
	adj := make([][]int, n)
	for _, d := range cs.Dominances {
		if d.Big == d.Small {
			return true
		}
		adj[d.Big] = append(adj[d.Big], d.Small)
	}
	state := make([]int, n) // 0 unvisited, 1 in stack, 2 done
	var dfs func(v int) bool
	dfs = func(v int) bool {
		state[v] = 1
		for _, u := range adj[v] {
			if state[u] == 1 || (state[u] == 0 && dfs(u)) {
				return true
			}
		}
		state[v] = 2
		return false
	}
	for v := 0; v < n; v++ {
		if state[v] == 0 && dfs(v) {
			return true
		}
	}
	return false
}

func TestDontCareFaces(t *testing.T) {
	for _, name := range []string{"dk512", "master"} {
		m, _ := fsm.GenerateByName(name)
		cs := InputConstraintsDC(m)
		if err := cs.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, f := range cs.Faces {
			if f.Members.Intersects(f.DontCare) {
				t.Fatalf("%s: members and don't-cares overlap", name)
			}
		}
	}
}

func TestExpandLiterals(t *testing.T) {
	m, err := kiss.ParseString(`
.i 1
.o 1
- a hub 1
- b hub 1
- c alt 0
`)
	if err != nil {
		t.Fatal(err)
	}
	sc := Cover(m)
	sc.Minimize()
	// a and b are indistinguishable: some cube's literal must hold both.
	a, _ := m.States.Lookup("a")
	b, _ := m.States.Lookup("b")
	found := false
	for _, c := range sc.Cubes {
		if c.States.Has(a) && c.States.Has(b) {
			found = true
		}
	}
	if !found {
		t.Fatalf("literal expansion failed to group identical states: %+v", sc.Cubes)
	}
	// The merged cube's input region is the whole space.
	for _, c := range sc.Cubes {
		if c.States.Has(a) && c.States.Has(b) && c.In != espresso.Universe(m.NumInputs) {
			t.Fatalf("grouped cube should span the full input space, got %s", c.In.String(m.NumInputs))
		}
	}
}

// TestSymbolicInputConstraints checks the combinational front end: opcodes
// asserting the same control signals on overlapping input regions group
// into face constraints.
func TestSymbolicInputConstraints(t *testing.T) {
	rows := []SymRow{
		// add and sub share the ALU-enable signature on every input.
		{In: "-", Value: "add", Out: "10"},
		{In: "-", Value: "sub", Out: "10"},
		// load and store share memory-enable.
		{In: "-", Value: "load", Out: "01"},
		{In: "-", Value: "store", Out: "01"},
		// jump is alone.
		{In: "-", Value: "jump", Out: "00"},
	}
	cs, err := SymbolicInputConstraints(1, 2, rows)
	if err != nil {
		t.Fatal(err)
	}
	find := func(a, b string) bool {
		ia, _ := cs.Syms.Lookup(a)
		ib, _ := cs.Syms.Lookup(b)
		for _, f := range cs.Faces {
			if f.Members.Has(ia) && f.Members.Has(ib) {
				return true
			}
		}
		return false
	}
	if !find("add", "sub") || !find("load", "store") {
		t.Fatalf("expected {add,sub} and {load,store} faces, got:\n%s", cs)
	}
	// The resulting constraints must be encodable, and the encoding must
	// verify.
	res, err := core.ExactEncodeCtx(context.Background(), cs, core.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v := core.Verify(cs, res.Encoding); len(v) != 0 {
		t.Fatalf("%v", v)
	}
}

func TestSymbolicInputConstraintsErrors(t *testing.T) {
	if _, err := SymbolicInputConstraints(2, 1, []SymRow{{In: "0", Value: "x", Out: "1"}}); err == nil {
		t.Fatal("input-width mismatch must fail")
	}
	if _, err := SymbolicInputConstraints(1, 2, []SymRow{{In: "0", Value: "x", Out: "1"}}); err == nil {
		t.Fatal("output-width mismatch must fail")
	}
}

// BenchmarkOutputConstraintsKernel admits output constraints on kirkman's
// minimized cover under its Table-1 budget: one P-1 state grown over every
// dominance and disjunctive candidate.
func BenchmarkOutputConstraintsKernel(b *testing.B) {
	m, err := fsm.GenerateByName("kirkman")
	if err != nil {
		b.Fatal(err)
	}
	sc := Cover(m)
	sc.Minimize()
	faces := constraint.NewSet(m.States)
	sc.FaceConstraints(faces)
	opts := OutputOptions{MaxDominance: 40, MaxDisjunctive: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.OutputConstraints(faces.Clone(), opts)
	}
}
