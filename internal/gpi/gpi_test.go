package gpi

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/hypercube"
)

// twoBitFunction: a 2-input symbolic function with shareable structure.
//
//	00 -> x, 01 -> y, 10 -> y, 11 -> z
func twoBitFunction() *Function {
	f := NewFunction(2)
	f.Add(0b00, "x")
	f.Add(0b01, "y")
	f.Add(0b10, "y")
	f.Add(0b11, "z")
	return f
}

func TestGenerateBasics(t *testing.T) {
	f := twoBitFunction()
	gpis, err := Generate(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(gpis) == 0 {
		t.Fatal("no GPIs generated")
	}
	// Every minterm must be its own GPI or covered by a prime one; and
	// every GPI's tag must equal the symbols of the care minterms in its
	// cube.
	for _, g := range gpis {
		for _, m := range f.Minterms {
			if g.Cube.ContainsMinterm(f.NumInputs, m.Point) && !g.Tag.Has(m.Symbol) {
				t.Fatalf("GPI %s covers minterm %b but misses its symbol", g.String(f), m.Point)
			}
		}
		g.Tag.ForEach(func(s int) bool {
			found := false
			for _, m := range f.Minterms {
				if m.Symbol == s && g.Cube.ContainsMinterm(f.NumInputs, m.Point) {
					found = true
				}
			}
			if !found {
				t.Fatalf("GPI %s tags symbol %s it does not cover", g.String(f), f.Syms.Name(s))
			}
			return true
		})
	}
	// The universal cube tagged {x,y,z} must be among the GPIs.
	foundUniverse := false
	for _, g := range gpis {
		if g.Cube.Literals(f.NumInputs) == 0 && g.Tag.Len() == 3 {
			foundUniverse = true
		}
	}
	if !foundUniverse {
		t.Fatalf("expected the universe GPI, got %v", gpis)
	}
}

func TestGenerateNoDominated(t *testing.T) {
	f := twoBitFunction()
	gpis, err := Generate(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range gpis {
		for j, h := range gpis {
			if i == j {
				continue
			}
			if h.Cube.Contains(g.Cube) && h.Tag.SubsetOf(g.Tag) &&
				!(h.Cube == g.Cube && h.Tag.Equal(g.Tag)) {
				t.Fatalf("GPI %s dominated by %s", g.String(f), h.String(f))
			}
		}
	}
}

// TestMinimumCoverCanBeUnencodable demonstrates the paper's critique of
// [9]: the minimum-cardinality GPI cover of this function is the single
// universe GPI, whose induced constraints collapse all codes and are
// therefore unsatisfiable — encodability must be checked during selection.
func TestMinimumCoverCanBeUnencodable(t *testing.T) {
	f := twoBitFunction()
	gpis, err := Generate(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := SelectCover(f, gpis, cover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs := Constraints(f, gpis, sel)
	if core.CheckFeasible(cs).Feasible {
		t.Skip("minimum cover happened to be encodable on this run")
	}
	// The encodability-aware selection must succeed where the raw minimum
	// fails.
	sel2, cs2, err := SelectEncodableCover(f, gpis, cover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !core.CheckFeasible(cs2).Feasible {
		t.Fatalf("SelectEncodableCover returned infeasible constraints:\n%s", cs2)
	}
	if len(sel2) == 0 {
		t.Fatal("empty selection")
	}
}

func TestSelectAndConstraints(t *testing.T) {
	f := twoBitFunction()
	gpis, err := Generate(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	sel, cs, err := SelectEncodableCover(f, gpis, cover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) == 0 {
		t.Fatal("empty selection")
	}
	if err := cs.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := core.ExactEncodeCtx(context.Background(), cs, core.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v := core.Verify(cs, res.Encoding); len(v) != 0 {
		t.Fatalf("%v", v)
	}
	// The headline guarantee: with the found codes, the selected GPIs
	// reproduce the function exactly (cardinality preservation of [9]).
	if err := VerifyCover(f, gpis, sel, res.Encoding.Codes); err != nil {
		t.Fatalf("selected GPI cover does not implement the function: %v\n%s", err, res.Encoding)
	}
}

func TestEndToEndLargerFunction(t *testing.T) {
	f := NewFunction(3)
	// Symbols sharing structure across the cube.
	assign := map[uint64]string{
		0b000: "a", 0b001: "a", 0b010: "b", 0b011: "c",
		0b100: "d", 0b101: "d", 0b110: "b",
		// 0b111 left as don't care
	}
	for p, s := range assign {
		f.Add(p, s)
	}
	gpis, err := Generate(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	sel, cs, err := SelectEncodableCover(f, gpis, cover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.ExactEncodeCtx(context.Background(), cs, core.ExactOptions{})
	if err != nil {
		t.Fatalf("encode: %v\nconstraints:\n%s", err, cs)
	}
	if err := VerifyCover(f, gpis, sel, res.Encoding.Codes); err != nil {
		t.Fatalf("%v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	f := NewFunction(2)
	f.Add(0b100, "x") // out of range
	if _, err := Generate(f, 0); err == nil {
		t.Fatal("out-of-range point must fail")
	}
	g := NewFunction(2)
	g.Add(0b01, "x")
	g.Add(0b01, "y") // contradiction
	if _, err := Generate(g, 0); err == nil {
		t.Fatal("contradictory minterms must fail")
	}
}

func TestImplicantLimit(t *testing.T) {
	f := NewFunction(4)
	for p := uint64(0); p < 16; p++ {
		f.Add(p, string(rune('a'+int(p%5))))
	}
	if _, err := Generate(f, 5); err == nil {
		t.Fatal("tiny limit must trip")
	}
}

func TestVerifyCoverDetectsBadCodes(t *testing.T) {
	f := twoBitFunction()
	gpis, err := Generate(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := SelectCover(f, gpis, cover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// All-zero codes collapse every symbol; the cover cannot reproduce a
	// function with more than one symbol.
	bad := make([]hypercube.Code, f.Syms.Len())
	if err := VerifyCover(f, gpis, sel, bad); err == nil {
		t.Skip("degenerate function: all-zero codes accidentally work")
	}
}

func TestGPIString(t *testing.T) {
	f := twoBitFunction()
	gpis, err := Generate(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, g := range gpis {
		s := g.String(f)
		if s == "--(x,y,z)" {
			found = true
		}
		if s == "" {
			t.Fatal("empty rendering")
		}
	}
	if !found {
		t.Fatal("universe GPI should render as --(x,y,z)")
	}
}

func TestHelpers(t *testing.T) {
	if got := dedupeInts([]int{3, 1, 3, 2, 1}); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("dedupeInts = %v", got)
	}
	if !lessIntSlice([]int{1, 2}, []int{1, 3}) || lessIntSlice([]int{1, 3}, []int{1, 2}) {
		t.Fatal("lessIntSlice ordering wrong")
	}
	if !lessIntSlice([]int{1}, []int{1, 0}) {
		t.Fatal("prefix must order first")
	}
	if joinComma([]string{"a", "b"}) != "a,b" || joinComma(nil) != "" {
		t.Fatal("joinComma wrong")
	}
}

// TestConstraintsSuppressTrivial: a minterm covered by a singleton-tag GPI
// gets no constraint even when other multi-tag GPIs also cover it.
func TestConstraintsSuppressTrivial(t *testing.T) {
	f := twoBitFunction()
	gpis, err := Generate(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Select everything: every minterm has a singleton-tag cover, so no
	// constraints should be emitted at all.
	sel := make([]int, len(gpis))
	for i := range sel {
		sel[i] = i
	}
	cs := Constraints(f, gpis, sel)
	if len(cs.ExtDisjunctives) != 0 || len(cs.Dominances) != 0 {
		t.Fatalf("trivially-covered minterms must emit nothing:\n%s", cs)
	}
}

// TestDominanceLowering: a selection where one minterm's only non-trivial
// cover is a single two-symbol-tag GPI lowers to a dominance constraint.
func TestDominanceLowering(t *testing.T) {
	f := NewFunction(1)
	f.Add(0, "p")
	f.Add(1, "q")
	gpis, err := Generate(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	// GPIs: 0(p), 1(q), -(p,q). Select {0(p), -(p,q)}: minterm 1 (q) is
	// covered only by -(p,q) → constraint p > q.
	var sel []int
	for gi, g := range gpis {
		if g.Tag.Len() == 2 || (g.Tag.Len() == 1 && g.Cube.ContainsMinterm(1, 0)) {
			sel = append(sel, gi)
		}
	}
	cs := Constraints(f, gpis, sel)
	if len(cs.Dominances) != 1 {
		t.Fatalf("want one dominance constraint, got:\n%s", cs)
	}
	p, _ := f.Syms.Lookup("p")
	q, _ := f.Syms.Lookup("q")
	if cs.Dominances[0].Big != p || cs.Dominances[0].Small != q {
		t.Fatalf("want p > q, got %+v", cs.Dominances[0])
	}
}

// TestMergedGPITagCoversSupercube pins the "gpi-cover-verify" invariant on
// a function found by the differential harness (difftest, gpi family,
// seed 2). The supercube of two distance-1 cubes can cover care minterms
// outside both constituents (0-- with 1-0 spans ---), so a merged GPI's
// tag must be recomputed from the minterms its cube covers, not unioned
// from the constituents. With unioned tags, Constraints dropped the extra
// assertions and the selected cover asserted 11 where the function wants
// 10.
func TestMergedGPITagCoversSupercube(t *testing.T) {
	f := NewFunction(3)
	f.Add(0b011, "o0")
	f.Add(0b000, "o1")
	f.Add(0b110, "o2")
	f.Add(0b010, "o1")
	f.Add(0b111, "o0")
	f.Add(0b001, "o2")
	gpis, err := Generate(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Tag completeness: every GPI's tag must carry the symbol of every
	// care minterm its cube covers.
	for _, g := range gpis {
		for _, m := range f.Minterms {
			if g.Cube.ContainsMinterm(f.NumInputs, m.Point) && !g.Tag.Has(m.Symbol) {
				t.Fatalf("GPI %s covers minterm %03b but misses symbol %s",
					g.String(f), m.Point, f.Syms.Name(m.Symbol))
			}
		}
	}
	// End-to-end: the selected cover under an exact encoding of the
	// induced constraints must implement the function.
	sel, cs, err := SelectEncodableCover(f, gpis, cover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.ExactEncodeCtx(context.Background(), cs, core.ExactOptions{})
	if err != nil {
		t.Fatalf("exact encode of the induced constraints: %v\n%s", err, cs)
	}
	if err := VerifyCover(f, gpis, sel, res.Encoding.Codes); err != nil {
		t.Fatalf("selected cover does not implement the function: %v", err)
	}
}
