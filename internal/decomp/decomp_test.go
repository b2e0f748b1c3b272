package decomp

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/hypercube"
)

func mustParse(t *testing.T, text string) *constraint.Set {
	t.Helper()
	cs, err := constraint.ParseString(text)
	if err != nil {
		t.Fatalf("ParseString(%q): %v", text, err)
	}
	return cs
}

func solve(t *testing.T, cs *constraint.Set) *core.ExactResult {
	t.Helper()
	res, err := ExactEncodeCtx(context.Background(), cs, core.ExactOptions{})
	if err != nil {
		t.Fatalf("ExactEncodeCtx: %v", err)
	}
	return res
}

func TestSplitComponents(t *testing.T) {
	cs := mustParse(t, "face a b\ndom c > d\n")
	cs.Syms.Intern("e") // free symbol: no constraint mentions it
	plan, err := Split(cs)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Components) != 3 {
		t.Fatalf("components = %d, want 3", len(plan.Components))
	}
	wantSyms := [][]string{{"a", "b"}, {"c", "d"}, {"e"}}
	for i, c := range plan.Components {
		var names []string
		for _, g := range c.GlobalOf {
			names = append(names, cs.Syms.Name(g))
		}
		if strings.Join(names, " ") != strings.Join(wantSyms[i], " ") {
			t.Errorf("component %d symbols = %v, want %v", i, names, wantSyms[i])
		}
	}
	if got := len(plan.Components[0].Set.Faces); got != 1 {
		t.Errorf("component 0 faces = %d, want 1", got)
	}
	if got := len(plan.Components[1].Set.Dominances); got != 1 {
		t.Errorf("component 1 dominances = %d, want 1", got)
	}
	if Count(cs) != 3 {
		t.Errorf("Count = %d, want 3", Count(cs))
	}
}

// TestPermutedSubHashes is the PR 4 cache-key regression guard at component
// granularity: permuting constraints across and within components — and
// adding redundant duplicates — must not change any component's sub-hash.
func TestPermutedSubHashes(t *testing.T) {
	a := mustParse(t, "face a b c\ndom x > y\nface a b\n")
	// Permuted symbol-introduction order, permuted constraints, plus a
	// duplicated face that simplification must remove before hashing.
	b := mustParse(t, "dom x > y\nface a b\nface a b c\nface a b\n")

	pa, err := Split(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := Split(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(pa.Components) != 2 || len(pb.Components) != 2 {
		t.Fatalf("components = %d, %d, want 2, 2", len(pa.Components), len(pb.Components))
	}
	hashes := func(p *Plan) map[core.Hash128]bool {
		m := map[core.Hash128]bool{}
		for _, c := range p.Components {
			m[c.Hash] = true
		}
		return m
	}
	ha, hb := hashes(pa), hashes(pb)
	for h := range ha {
		if !hb[h] {
			t.Fatalf("sub-hash %v present in plan a but not in permuted plan b", h)
		}
	}
	if len(ha) != len(hb) {
		t.Fatalf("distinct sub-hashes: %d vs %d", len(ha), len(hb))
	}
}

// TestFreeSymbolSingletons pins the free-symbol bugfix: symbols mentioned by
// no constraint form singleton components and still receive unique codes at
// the monolithic bit-width.
func TestFreeSymbolSingletons(t *testing.T) {
	cs := mustParse(t, "face a b\n")
	for _, s := range []string{"f1", "f2", "f3"} {
		cs.Syms.Intern(s)
	}
	res := solve(t, cs)

	mono, err := core.ExactEncodeCtx(context.Background(), cs, core.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Encoding.Bits != mono.Encoding.Bits {
		t.Errorf("decomposed bits = %d, monolithic = %d", res.Encoding.Bits, mono.Encoding.Bits)
	}
	if v := core.Verify(cs, res.Encoding); len(v) != 0 {
		t.Errorf("Verify violations: %v", v)
	}
	seen := map[hypercube.Code]bool{}
	for i, c := range res.Encoding.Codes {
		if seen[c] {
			t.Errorf("duplicate code %b for symbol %s", c, cs.Syms.Name(i))
		}
		seen[c] = true
	}
}

// TestImpliedEqualityInfeasible: constraints that force two codes equal
// contradict uniqueness. The component's own solve rejects them through
// P-1, and the conflict reaches the caller over the source symbol table.
func TestImpliedEqualityInfeasible(t *testing.T) {
	cases := []struct {
		name, text string
	}{
		{"dominance cycle", "dom x > y\ndom y > x\n"},
		{"single child after dedupe", "disj a = b | b\n"},
		{"cycle through a disjunctive", "face p q\ndom a > b\ndisj b = a | c\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cs := mustParse(t, tc.text)
			_, err := ExactEncodeCtx(context.Background(), cs, core.ExactOptions{})
			var ie *core.InfeasibleError
			if !errors.As(err, &ie) {
				t.Fatalf("error is %T (%v), want *core.InfeasibleError", err, err)
			}
			if !errors.Is(err, core.ErrInfeasible) {
				t.Errorf("error does not unwrap to ErrInfeasible: %v", err)
			}
			if ie.Conflict == nil {
				t.Fatal("no minimized conflict")
			}
			if ie.Conflict.Syms != cs.Syms {
				t.Error("conflict is not stated over the source symbol table")
			}
		})
	}
}

// TestGlobalizedConflict pins the satellite-1 bugfix through the solver
// path: the set's *second* component is infeasible (code(a2) = code(b2) |
// code(c2) forces a2 into span(b2, c2), which the face forbids), and the
// conflict crossing the package boundary must name the original symbols,
// not component-local indices.
func TestGlobalizedConflict(t *testing.T) {
	cs := mustParse(t, "face p q\ndisj a2 = b2 | c2\nface b2 c2\n")
	_, err := ExactEncodeCtx(context.Background(), cs, core.ExactOptions{})
	if err == nil {
		t.Fatal("want infeasible, got success")
	}
	var ie *core.InfeasibleError
	if !errors.As(err, &ie) {
		t.Fatalf("error is %T, want *core.InfeasibleError", err)
	}
	if ie.Conflict == nil {
		t.Fatal("no minimized conflict")
	}
	if ie.Conflict.Syms != cs.Syms {
		t.Error("conflict is not stated over the source symbol table")
	}
	text := ie.Conflict.String()
	for _, want := range []string{"b2", "c2"} {
		if !strings.Contains(text, want) {
			t.Errorf("conflict %q does not mention original symbol %q", text, want)
		}
	}
	if strings.Contains(text, "p") || strings.Contains(text, "q") {
		t.Errorf("conflict %q drags in the feasible first component", text)
	}
	for _, d := range ie.Uncovered {
		d.L.ForEach(func(e int) bool {
			if e >= cs.N() {
				t.Errorf("uncovered dichotomy references out-of-range global index %d", e)
			}
			return true
		})
	}
}

func TestAssembleLayout(t *testing.T) {
	// Sizes 5 + 2: subcube alignment consumes 8 + 2 = 10 codepoints → 4
	// bits, above MinBits(7) = 3, so the result must not claim optimality.
	cs := mustParse(t, "face a b c d e\nface f g\n")
	res := solve(t, cs)
	if res.Encoding.Bits != 4 {
		t.Errorf("bits = %d, want 4 (aligned-subcube layout)", res.Encoding.Bits)
	}
	if res.Optimal {
		t.Error("Optimal = true despite padded layout width above the global minimum")
	}
	if v := core.Verify(cs, res.Encoding); len(v) != 0 {
		t.Errorf("Verify violations: %v", v)
	}

	// Power-of-two component sizes tile exactly: 4 + 4 symbols → 3 bits =
	// MinBits(8), matching the monolithic minimum, so optimality holds.
	cs2 := mustParse(t, "face a b\nface a c\nface c d\nface e f\nface e g\nface g h\n")
	res2 := solve(t, cs2)
	if res2.Encoding.Bits != 3 {
		t.Errorf("bits = %d, want 3", res2.Encoding.Bits)
	}
	if !res2.Optimal {
		t.Error("Optimal = false on an exactly-tiling decomposition")
	}
	if v := core.Verify(cs2, res2.Encoding); len(v) != 0 {
		t.Errorf("Verify violations: %v", v)
	}
}

func TestChainAndNonFaceFallback(t *testing.T) {
	chain := mustParse(t, "chain a b c\n")
	res := solve(t, chain)
	if v := core.Verify(chain, res.Encoding); len(v) != 0 {
		t.Errorf("chain fallback Verify violations: %v", v)
	}
	nonface := mustParse(t, "face a b\nnonface a c\n")
	res2 := solve(t, nonface)
	if v := core.Verify(nonface, res2.Encoding); len(v) != 0 {
		t.Errorf("non-face fallback Verify violations: %v", v)
	}
	if Decomposable(chain) || Decomposable(nonface) {
		t.Error("chain/non-face sets must report non-decomposable")
	}
}

func TestResultFromCodesRoundTrip(t *testing.T) {
	cs := mustParse(t, "face a b\ndom c > d\n")
	plan, err := Split(cs)
	if err != nil {
		t.Fatal(err)
	}
	for _, comp := range plan.Components {
		res, err := core.ExactEncodeCtx(context.Background(), comp.Set, core.ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		codes := map[string]string{}
		for i := 0; i < comp.Set.Syms.Len(); i++ {
			codes[comp.Set.Syms.Name(i)] = res.Encoding.CodeString(i)
		}
		back, err := comp.ResultFromCodes(res.Encoding.Bits, codes, res.Optimal)
		if err != nil {
			t.Fatal(err)
		}
		for i := range back.Encoding.Codes {
			if back.Encoding.Codes[i] != res.Encoding.Codes[i] {
				t.Errorf("component %d symbol %d: rebuilt %b, want %b",
					comp.Index, i, back.Encoding.Codes[i], res.Encoding.Codes[i])
			}
		}
		if back.Optimal != res.Optimal || back.Encoding.Bits != res.Encoding.Bits {
			t.Errorf("component %d metadata mismatch", comp.Index)
		}
	}

	comp := plan.Components[0]
	if _, err := comp.ResultFromCodes(1, map[string]string{"a": "0"}, true); err == nil {
		t.Error("missing symbol accepted")
	}
	if _, err := comp.ResultFromCodes(1, map[string]string{"a": "0", "b": "x"}, true); err == nil {
		t.Error("malformed code accepted")
	}
	if _, err := comp.ResultFromCodes(2, map[string]string{"a": "0", "b": "1"}, true); err == nil {
		t.Error("width mismatch accepted")
	}
}

func TestSimplifyDedupe(t *testing.T) {
	cs := mustParse(t, "face a b\nface a b\ndom a > b\ndom a > b\ndist2 a b\ndist2 b a\n")
	simplify(cs)
	if len(cs.Faces) != 1 || len(cs.Dominances) != 1 || len(cs.Distance2s) != 1 {
		t.Errorf("after simplify: faces=%d dominances=%d dist2=%d, want 1 each",
			len(cs.Faces), len(cs.Dominances), len(cs.Distance2s))
	}

	// Face subsumption: equal members, don't-care superset is weaker.
	sub := mustParse(t, "face a b [ c ]\nface a b\n")
	simplify(sub)
	if len(sub.Faces) != 1 {
		t.Fatalf("faces = %d, want 1 after subsumption", len(sub.Faces))
	}
	if !sub.Faces[0].DontCare.IsEmpty() {
		t.Error("kept the weaker (don't-care-superset) face")
	}
}

// TestSimplifyKeysWholeIndices: dedupe keys must tell apart symbol
// indices that agree in their low 16 bits. s0 = s1 | s2 and
// s65536 = s65537 | s65538 (and their extended-disjunctive twins) are
// distinct constraints, and dropping either one loses a solution
// constraint.
func TestSimplifyKeysWholeIndices(t *testing.T) {
	const n = 1<<16 + 3
	cs := constraint.NewSet(nil)
	for i := 0; i < n; i++ {
		cs.Syms.Intern(fmt.Sprintf("s%d", i))
	}
	const hi = 1 << 16
	cs.Disjunctives = []constraint.Disjunctive{
		{Parent: 0, Children: []int{1, 2}},
		{Parent: hi, Children: []int{hi + 1, hi + 2}},
	}
	cs.ExtDisjunctives = []constraint.ExtDisjunctive{
		{Parent: 0, Conjunctions: [][]int{{1, 2}, {2}}},
		{Parent: hi, Conjunctions: [][]int{{hi + 1, hi + 2}, {hi + 2}}},
	}
	simplify(cs)
	if len(cs.Disjunctives) != 2 || len(cs.ExtDisjunctives) != 2 {
		t.Fatalf("after simplify: %d disjunctives and %d extended disjunctives, want 2 each",
			len(cs.Disjunctives), len(cs.ExtDisjunctives))
	}
}

func TestDecomposedMatchesMonolithicBits(t *testing.T) {
	cs := mustParse(t, "face a b\nface c d\n")
	dec := solve(t, cs)
	mono, err := core.ExactEncodeCtx(context.Background(), cs, core.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Encoding.Bits != mono.Encoding.Bits {
		t.Errorf("decomposed bits = %d, monolithic = %d", dec.Encoding.Bits, mono.Encoding.Bits)
	}
	if !dec.Optimal {
		t.Error("Optimal = false on an exactly-tiling decomposition")
	}
}
