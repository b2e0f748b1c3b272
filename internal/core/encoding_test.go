package core

import (
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/dichotomy"
	"repro/internal/hypercube"
	"repro/internal/sym"
)

func table(names ...string) *sym.Table {
	t, _ := sym.FromNames(names)
	return t
}

func TestFromColumnsCompletion(t *testing.T) {
	// Column 0: a in L, b in R, c unassigned → c completes to the right
	// block (bit 1), per the Theorem-6.1 proof.
	tab := table("a", "b", "c")
	cols := []dichotomy.D{dichotomy.Of([]int{0}, []int{1})}
	enc := FromColumns(tab, cols)
	if enc.Bits != 1 {
		t.Fatalf("bits = %d", enc.Bits)
	}
	if enc.Codes[0] != 0 || enc.Codes[1] != 1 || enc.Codes[2] != 1 {
		t.Fatalf("codes = %v; unassigned symbols must complete to 1", enc.Codes)
	}
}

func TestFromColumnsBitOrder(t *testing.T) {
	tab := table("a", "b")
	cols := []dichotomy.D{
		dichotomy.Of([]int{0, 1}, nil), // column 0: both 0
		dichotomy.Of([]int{1}, []int{0}),
	}
	enc := FromColumns(tab, cols)
	// Column j is bit j (LSB first): a = 10b (bit1 from column 1), b = 00.
	if enc.Codes[0] != 0b10 || enc.Codes[1] != 0 {
		t.Fatalf("codes = %v", enc.Codes)
	}
	if enc.CodeString(0) != "10" {
		t.Fatalf("CodeString renders MSB first, got %q", enc.CodeString(0))
	}
}

func TestEncodingAccessors(t *testing.T) {
	tab := table("x", "y")
	enc := NewEncoding(tab, 3, []hypercube.Code{0b101, 0b010})
	if c, ok := enc.Code("x"); !ok || c != 0b101 {
		t.Fatalf("Code(x) = %v %v", c, ok)
	}
	if _, ok := enc.Code("zzz"); ok {
		t.Fatal("unknown symbol must miss")
	}
	s := enc.String()
	if !strings.Contains(s, "x = 101") || !strings.Contains(s, "y = 010") {
		t.Fatalf("String() = %q", s)
	}
	zero := NewEncoding(tab, 0, make([]hypercube.Code, 2))
	if zero.CodeString(0) != "" {
		t.Fatal("zero-width codes render empty")
	}
}

// TestEncodingStringBytes pins String's exact bytes: one "name = code"
// line per symbol, codes MSB first, zero-width codes empty.
func TestEncodingStringBytes(t *testing.T) {
	tab := table("x", "yy")
	if got := NewEncoding(tab, 3, []hypercube.Code{0b101, 0b010}).String(); got != "x = 101\nyy = 010\n" {
		t.Fatalf("String() = %q", got)
	}
	if got := NewEncoding(tab, 0, make([]hypercube.Code, 2)).String(); got != "x = \nyy = \n" {
		t.Fatalf("zero-width String() = %q", got)
	}
}

func TestVerifyArityMismatch(t *testing.T) {
	cs := constraint.MustParse("symbols a b\nface a b\n")
	enc := NewEncoding(cs.Syms, 1, []hypercube.Code{0})
	v := Verify(cs, enc)
	if len(v) != 1 || v[0].Kind != "arity" {
		t.Fatalf("want arity violation, got %v", v)
	}
}

func TestVerifyEveryKind(t *testing.T) {
	cs := constraint.MustParse(`
		symbols a b c d
		face a b
		dom a > b
		disj a = b | c
		extdisj (b & c) >= d
		dist2 a d
		nonface a b c
		chain d c
	`)
	// All-distinct codes chosen to violate everything at once.
	enc := NewEncoding(cs.Syms, 2, []hypercube.Code{0b00, 0b11, 0b01, 0b10})
	kinds := map[string]bool{}
	for _, v := range Verify(cs, enc) {
		kinds[v.Kind] = true
	}
	for _, want := range []string{"face", "dominance", "disjunctive", "ext-disjunctive", "distance-2", "chain"} {
		if !kinds[want] {
			t.Errorf("expected a %s violation, got %v", want, kinds)
		}
	}
	// face a,b spans everything → non-face (a,b,c) is satisfied, so it
	// must NOT appear.
	if kinds["non-face"] {
		t.Error("non-face is satisfied by this encoding")
	}
}

func TestSatisfiedFaces(t *testing.T) {
	cs := constraint.MustParse(`
		symbols a b c d
		face a b
		face a c
	`)
	enc := NewEncoding(cs.Syms, 2, []hypercube.Code{0b00, 0b01, 0b11, 0b10})
	sat := SatisfiedFaces(cs, enc)
	// (a,b): span 0-; c=11 out, d=10 out → satisfied.
	// (a,c): a=00,c=11 span everything → b,d intrude → violated.
	if !sat[0] || sat[1] {
		t.Fatalf("sat = %v", sat)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Kind: "face", Detail: "boom"}
	if v.String() != "face: boom" {
		t.Fatalf("got %q", v.String())
	}
}

func TestBinateTableRender(t *testing.T) {
	cs := constraint.MustParse(`
		symbols a b c
		face a b
		dom b > c
	`)
	tab, err := BuildBinateTable(cs)
	if err != nil {
		t.Fatal(err)
	}
	out := tab.Render()
	if !strings.Contains(out, "c1") || !strings.Contains(out, "1") || !strings.Contains(out, "0") {
		t.Fatalf("render missing structure:\n%s", out)
	}
}
