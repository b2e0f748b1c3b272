// Package mv implements the multiple-valued symbolic-minimization front
// end of the encoding flow: it compresses a symbolic state transition
// table into multi-valued cubes (ESPRESSO-MV-style group merging over the
// state literal) and extracts the encoding constraints — face-embedding
// constraints from the merged state literals, and dominance / disjunctive
// output constraints in the manner of DeMicheli's symbolic minimization
// extended with "good disjunctive effects", as used for the paper's
// Table 1.
//
// # Contract
//
// Input is a validated, deterministic fsm.FSM (callers run Validate and
// Deterministic first; nothing here re-checks). Cover builds the initial
// one-cube-per-transition cover; Minimize merges cubes sharing (input
// part, next state, compatible outputs) and never changes the represented
// behavior — the encoded PLA lowered from the minimized cover implements
// the same machine, which internal/pipeline's replay verifier checks end
// to end. Constraint extraction is split so callers can choose their
// problem: FaceConstraints emits only input (face-embedding) constraints;
// OutputConstraints adds the dominance/disjunctive relations: dominance
// candidates whose cube-merge gain is positive, in gain order, then
// disjunctive candidates in parent order, each admitted only when the
// grown set stays satisfiable under the polynomial P-1 check
// (OutputOptions caps how many of each are admitted). GenerateConstraints
// is the standard composition of both. All of it is deterministic: the
// same machine always yields the same cover, the same constraint set, in
// the same order.
package mv

import (
	"sort"

	"repro/internal/bitset"
	"repro/internal/constraint"
	"repro/internal/espresso"
	"repro/internal/fsm"
)

// Cube is a multi-valued cube of the symbolic cover: a binary input part, a
// state literal (set of present states), and the asserted (next state,
// output pattern) pair.
type Cube struct {
	In     espresso.Cube
	States bitset.Set
	To     int
	Out    string
}

// SymbolicCover is a multi-valued cover of a state transition table.
type SymbolicCover struct {
	M     *fsm.FSM
	Cubes []Cube
}

// Cover builds the initial symbolic cover: one MV cube per transition.
func Cover(m *fsm.FSM) *SymbolicCover {
	sc := &SymbolicCover{M: m}
	for i, t := range m.Trans {
		sc.Cubes = append(sc.Cubes, Cube{
			In:     m.InCube(i),
			States: bitset.Of(t.From),
			To:     t.To,
			Out:    t.Out,
		})
	}
	return sc
}

// Minimize performs multi-valued minimization by iterated group merging:
//
//  1. cubes with identical input part and identical asserted (next state,
//     output) merge by unioning their state literals — the merge that
//     produces face-embedding constraints;
//  2. cubes with identical state literal and asserted pair merge by input
//     supercube when the supercube introduces no conflict with the rest of
//     the table (unspecified input space is don't-care).
//
// The result is a compressed cover whose multi-state literals are exactly
// the paper's input constraints.
func (sc *SymbolicCover) Minimize() {
	for {
		if !sc.mergeSameInput() && !sc.mergeSameLiteral() {
			break
		}
	}
	sc.expandLiterals()
	for sc.mergeSameInput() || sc.mergeSameLiteral() {
	}
	sc.removeContained()
}

// expandLiterals raises each cube's state literal to every state whose
// behavior over the cube's input region coincides with the asserted
// (next state, output) pair — the multi-valued literal expansion of
// ESPRESSO-MV that creates the face-embedding constraints.
func (sc *SymbolicCover) expandLiterals() {
	n := sc.M.NumStates()
	for i := range sc.Cubes {
		c := &sc.Cubes[i]
		for s := 0; s < n; s++ {
			if c.States.Has(s) {
				continue
			}
			if sc.stateMapsRegion(s, c.In, c.To, c.Out) {
				c.States.Add(s)
			}
		}
	}
}

// stateMapsRegion reports whether every defined transition of state s
// intersecting the input region asserts exactly (to, out).
func (sc *SymbolicCover) stateMapsRegion(s int, in espresso.Cube, to int, out string) bool {
	n := sc.M.NumInputs
	hit := false
	for ti, t := range sc.M.Trans {
		if t.From != s {
			continue
		}
		if !in.Intersects(n, sc.M.InCube(ti)) {
			continue
		}
		hit = true
		if t.To != to || t.Out != out {
			return false
		}
	}
	return hit
}

func (sc *SymbolicCover) mergeSameInput() bool {
	type key struct {
		in  espresso.Cube
		to  int
		out string
	}
	idx := map[key]int{}
	var out []Cube
	merged := false
	for _, c := range sc.Cubes {
		k := key{c.In, c.To, c.Out}
		if i, ok := idx[k]; ok {
			out[i].States.UnionWith(c.States)
			merged = true
		} else {
			idx[k] = len(out)
			out = append(out, c)
		}
	}
	sc.Cubes = out
	return merged
}

func (sc *SymbolicCover) mergeSameLiteral() bool {
	merged := false
	for i := 0; i < len(sc.Cubes); i++ {
		for j := i + 1; j < len(sc.Cubes); j++ {
			a, b := sc.Cubes[i], sc.Cubes[j]
			if a.To != b.To || a.Out != b.Out || !a.States.Equal(b.States) {
				continue
			}
			super := a.In.Supercube(b.In)
			if sc.conflictFree(super, a.States, a.To, a.Out) {
				sc.Cubes[i].In = super
				sc.Cubes = append(sc.Cubes[:j], sc.Cubes[j+1:]...)
				merged = true
				j--
			}
		}
	}
	return merged
}

// conflictFree reports whether asserting (to, out) over in × states agrees
// with every defined transition of the machine.
func (sc *SymbolicCover) conflictFree(in espresso.Cube, states bitset.Set, to int, out string) bool {
	n := sc.M.NumInputs
	ok := true
	states.ForEach(func(s int) bool {
		for ti, t := range sc.M.Trans {
			if t.From != s {
				continue
			}
			if t.To == to && t.Out == out {
				continue
			}
			if in.Intersects(n, sc.M.InCube(ti)) {
				ok = false
				return false
			}
		}
		return true
	})
	return ok
}

// removeContained drops cubes whose (input × states) space is contained in
// another cube asserting the same pair.
func (sc *SymbolicCover) removeContained() {
	var kept []Cube
outer:
	for i, c := range sc.Cubes {
		for j, d := range sc.Cubes {
			if i == j || c.To != d.To || c.Out != d.Out {
				continue
			}
			if d.In.Contains(c.In) && c.States.SubsetOf(d.States) {
				if c.In == d.In && c.States.Equal(d.States) && j > i {
					continue
				}
				continue outer
			}
		}
		kept = append(kept, c)
	}
	sc.Cubes = kept
}

// FaceConstraints extracts the face-embedding constraints: the distinct
// multi-state literals of the minimized cover (proper, non-singleton
// subsets of the state set).
func (sc *SymbolicCover) FaceConstraints(cs *constraint.Set) {
	n := sc.M.NumStates()
	seen := map[string]bool{}
	var faces []bitset.Set
	for _, c := range sc.Cubes {
		k := c.States.Key()
		if c.States.Len() < 2 || c.States.Len() >= n || seen[k] {
			continue
		}
		seen[k] = true
		faces = append(faces, c.States.Clone())
	}
	// Deterministic order: by size then lexicographic key.
	sort.Slice(faces, func(i, j int) bool {
		if faces[i].Len() != faces[j].Len() {
			return faces[i].Len() < faces[j].Len()
		}
		return faces[i].Key() < faces[j].Key()
	})
	for _, f := range faces {
		cs.AddFaceSet(f, bitset.Set{})
	}
}

// FaceConstraintsDC extracts face constraints together with encoding
// don't-cares (Section 8.1): for each minimized cube, states outside the
// literal whose behavior over the cube's input region *partially* agrees
// with the asserted pair (some intersecting transitions assert it, some do
// not) are free to share the face or not — the analogue of the
// reduced/expanded-implicant freedom MIS-MV derives.
func (sc *SymbolicCover) FaceConstraintsDC(cs *constraint.Set) {
	n := sc.M.NumStates()
	seen := map[string]bool{}
	type faceDC struct{ members, dc bitset.Set }
	var faces []faceDC
	for _, c := range sc.Cubes {
		if c.States.Len() < 2 || c.States.Len() >= n {
			continue
		}
		var dc bitset.Set
		for s := 0; s < n; s++ {
			if c.States.Has(s) {
				continue
			}
			if sc.statePartiallyMapsRegion(s, c.In, c.To, c.Out) {
				dc.Add(s)
			}
		}
		k := c.States.Key() + "|" + dc.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		faces = append(faces, faceDC{c.States.Clone(), dc})
	}
	sort.Slice(faces, func(i, j int) bool {
		if faces[i].members.Len() != faces[j].members.Len() {
			return faces[i].members.Len() < faces[j].members.Len()
		}
		ki, kj := faces[i].members.Key(), faces[j].members.Key()
		if ki != kj {
			return ki < kj
		}
		return faces[i].dc.Key() < faces[j].dc.Key()
	})
	for _, f := range faces {
		cs.AddFaceSet(f.members, f.dc)
	}
}

// statePartiallyMapsRegion reports whether state s agrees with (to, out) on
// part but not all of its behavior over the region.
func (sc *SymbolicCover) statePartiallyMapsRegion(s int, in espresso.Cube, to int, out string) bool {
	n := sc.M.NumInputs
	agree, disagree := false, false
	for ti, t := range sc.M.Trans {
		if t.From != s || !in.Intersects(n, sc.M.InCube(ti)) {
			continue
		}
		if t.To == to && t.Out == out {
			agree = true
		} else {
			disagree = true
		}
	}
	return agree && disagree
}

// InputConstraints runs the full input-constraint generation pipeline for a
// machine: symbolic cover → MV minimization → face extraction. The symbol
// table of the returned set is the machine's state table.
func InputConstraints(m *fsm.FSM) *constraint.Set {
	sc := Cover(m)
	sc.Minimize()
	cs := constraint.NewSet(m.States)
	sc.FaceConstraints(cs)
	return cs
}

// InputConstraintsDC is InputConstraints with encoding don't-cares, the
// constraint flavor the multi-level flow of Table 3 consumes.
func InputConstraintsDC(m *fsm.FSM) *constraint.Set {
	sc := Cover(m)
	sc.Minimize()
	cs := constraint.NewSet(m.States)
	sc.FaceConstraintsDC(cs)
	return cs
}
