package constraint

import (
	"bufio"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitset"
)

func TestParseRoundTrip(t *testing.T) {
	text := `
		symbols a b c d e f g
		face a b c
		face a b [ c d ] e
		dom a > b
		disj a = b | c
		extdisj ( b & c ) | ( d & e ) >= a
		dist2 a f
		nonface a b e
		chain a b c
	`
	cs, err := ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Faces) != 2 || len(cs.Dominances) != 1 || len(cs.Disjunctives) != 1 ||
		len(cs.ExtDisjunctives) != 1 || len(cs.Distance2s) != 1 || len(cs.NonFaces) != 1 ||
		len(cs.Chains) != 1 {
		t.Fatalf("wrong counts: %+v", cs)
	}
	// Re-parse the String rendering: must yield the identical structure.
	cs2, err := ParseString(cs.String())
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, cs.String())
	}
	if cs2.String() != cs.String() {
		t.Fatalf("round trip unstable:\n%s\nvs\n%s", cs.String(), cs2.String())
	}
}

func TestParseCommaSyntax(t *testing.T) {
	cs, err := ParseString("face a,b,c\ndom a > b\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Faces) != 1 || cs.Faces[0].Members.Len() != 3 {
		t.Fatal("comma-separated face failed")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"face a\n",                 // one member
		"dom a b\n",                // missing >
		"disj a b | c\n",           // missing =
		"disj a = b |\n",           // dangling |
		"extdisj (a & b) >=\n",     // missing parent
		"dist2 a\n",                // one symbol
		"chain a\n",                // one symbol
		"frobnicate a b\n",         // unknown keyword
		"face a [ b\n",             // unterminated bracket
		"face a ] b\n",             // unmatched bracket
		"dom a > a\n",              // reflexive dominance
		"disj a = a\n",             // parent as child
		"chain a b a\n",            // repeated symbol
		"extdisj ( ) | (a) >= b\n", // empty conjunction
	}
	for _, text := range bad {
		if _, err := ParseString(text); err == nil {
			t.Errorf("expected error for %q", text)
		}
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	cs, err := ParseString("# header\n\nface a b # trailing\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Faces) != 1 {
		t.Fatal("comment handling broken")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse must panic on bad input")
		}
	}()
	MustParse("face a\n")
}

func TestRestrict(t *testing.T) {
	cs := MustParse(`
		symbols a b c d e
		face a b c
		face a d
		dom a > b
		dom a > e
		disj a = b | c
		disj a = d | e
		dist2 a e
		nonface a b c
		chain a b c d
	`)
	keep := bitset.Set{}
	for _, n := range []string{"a", "b", "c"} {
		i, _ := cs.Syms.Lookup(n)
		keep.Add(i)
	}
	r := cs.Restrict(keep)
	if len(r.Faces) != 1 {
		t.Fatalf("restricted faces = %d, want 1 (face a d shrinks below 2 members)", len(r.Faces))
	}
	if len(r.Dominances) != 1 {
		t.Fatalf("restricted dominances = %d, want 1", len(r.Dominances))
	}
	if len(r.Disjunctives) != 1 {
		t.Fatalf("restricted disjunctives = %d, want 1", len(r.Disjunctives))
	}
	if len(r.Distance2s) != 0 {
		t.Fatal("dist2 with a removed endpoint must drop")
	}
	if len(r.NonFaces) != 1 {
		t.Fatal("nonface a b c must survive")
	}
	if len(r.Chains) != 1 || len(r.Chains[0].Seq) != 3 {
		t.Fatalf("chain must be cut to a-b-c, got %+v", r.Chains)
	}
}

func TestChainCutIntoRuns(t *testing.T) {
	cs := MustParse(`
		symbols a b c d e
		chain a b c d e
	`)
	keep := bitset.Set{}
	for _, n := range []string{"a", "b", "d", "e"} {
		i, _ := cs.Syms.Lookup(n)
		keep.Add(i)
	}
	r := cs.Restrict(keep)
	if len(r.Chains) != 2 {
		t.Fatalf("removing c must cut the chain in two, got %d", len(r.Chains))
	}
}

func TestClone(t *testing.T) {
	cs := MustParse(`
		symbols a b c
		face a b
		dom a > b
		disj a = b | c
	`)
	c := cs.Clone()
	c.AddDominance("b", "c")
	if len(cs.Dominances) != 1 {
		t.Fatal("Clone must be deep for constraint slices")
	}
	c.Faces[0].Members.Add(2)
	if cs.Faces[0].Members.Has(2) {
		t.Fatal("Clone must deep-copy face bitsets")
	}
}

func TestValidateCatchesBadIndices(t *testing.T) {
	cs := NewSet(nil)
	cs.Syms.Intern("a")
	cs.Dominances = append(cs.Dominances, Dominance{Big: 0, Small: 7})
	if err := cs.Validate(); err == nil {
		t.Fatal("out-of-range index must fail validation")
	}
}

func TestFaceString(t *testing.T) {
	cs := MustParse("face a b [ c ] d\n")
	got := cs.FaceString(cs.Faces[0])
	if !strings.Contains(got, "[c]") || !strings.Contains(got, "a,b") {
		t.Fatalf("FaceString = %q", got)
	}
}

func TestHasOutputAndExtensionConstraints(t *testing.T) {
	cs := MustParse("face a b\n")
	if cs.HasOutputConstraints() || cs.HasExtensionConstraints() {
		t.Fatal("pure face set has neither")
	}
	cs.AddDominance("a", "b")
	if !cs.HasOutputConstraints() {
		t.Fatal("dominance is an output constraint")
	}
	cs.AddDistance2("a", "b")
	if !cs.HasExtensionConstraints() {
		t.Fatal("dist2 is an extension constraint")
	}
}

// TestPaperNotation parses the notations the paper itself uses:
// "(a,b,c)" faces, bare "a > b" dominances and "a = b | d" disjunctives.
func TestPaperNotation(t *testing.T) {
	cs, err := ParseString(`
		(b,c)
		(c,d)
		(b,a)
		(a,d)
		b > c
		a > c
		a = b | d
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Faces) != 4 || len(cs.Dominances) != 2 || len(cs.Disjunctives) != 1 {
		t.Fatalf("counts wrong:\n%s", cs)
	}
	if _, err := ParseString("(a,b\n"); err == nil {
		t.Fatal("unterminated paren must fail")
	}
}

// TestTokenize pins the tokenizer: punctuation splits from names whether
// glued or spaced, commas and tabs separate, and ">=" stays one token.
func TestTokenize(t *testing.T) {
	cases := []struct {
		line string
		want []string
	}{
		{"face a b [ c ] d", []string{"face", "a", "b", "[", "c", "]", "d"}},
		{"face a,b\t[c]d", []string{"face", "a", "b", "[", "c", "]", "d"}},
		{"(a,b,c)", []string{"(", "a", "b", "c", ")"}},
		{"extdisj (b&c)|(d & e)>=a", []string{"extdisj", "(", "b", "&", "c", ")", "|", "(", "d", "&", "e", ")", ">=", "a"}},
		{"a=b|c", []string{"a", "=", "b", "|", "c"}},
		{"dom a>b", []string{"dom", "a", ">", "b"}},
		{"x>", []string{"x", ">"}},
		{"  ", nil},
	}
	for _, tc := range cases {
		if got := tokenize(nil, tc.line); !slices.Equal(got, tc.want) {
			t.Errorf("tokenize(%q) = %q, want %q", tc.line, got, tc.want)
		}
	}
}

// TestParseLines: CRLF line ends parse as LF ones, errors name their line,
// and a line may be up to 4 MB long but not longer.
func TestParseLines(t *testing.T) {
	lf := "symbols a b c\nface a b\n# note\nface b c [ a ]\n"
	want := MustParse(lf).String()
	if got, err := ParseString(strings.ReplaceAll(lf, "\n", "\r\n")); err != nil || got.String() != want {
		t.Fatalf("CRLF text parses to %v, %v; want\n%s", got, err, want)
	}
	if _, err := ParseString("face a b\r\n\r\nface c\r\n"); err == nil || err.Error() != "constraint: line 3: face wants at least two required members" {
		t.Fatalf("error %v, want line 3's", err)
	}
	long := "#" + strings.Repeat("x", maxLine-2) + "\n" + lf
	if got, err := ParseString(long); err != nil || got.String() != want {
		t.Fatalf("a %d-byte comment line: %v", maxLine-1, err)
	}
	if _, err := ParseString("#" + strings.Repeat("x", maxLine) + "\n" + lf); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("a %d-byte line: error %v, want %v", maxLine+1, err, bufio.ErrTooLong)
	}
}
