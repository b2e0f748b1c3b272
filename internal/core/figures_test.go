package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/constraint"
)

// TestSection1Example reproduces the introductory example: constraints
// (b,c), (c,d), (b,a), (a,d), b > c, a > c, a = b ∨ d admit a 2-bit
// encoding (the paper exhibits a=11, b=01, c=00, d=10).
func TestSection1Example(t *testing.T) {
	cs := constraint.MustParse(`
		symbols a b c d
		face b c
		face c d
		face b a
		face a d
		dom b > c
		dom a > c
		disj a = b | d
	`)
	res, err := ExactEncodeCtx(context.Background(), cs, ExactOptions{})
	if err != nil {
		t.Fatalf("ExactEncode: %v", err)
	}
	if res.Encoding.Bits != 2 {
		t.Fatalf("want 2 bits, got %d\n%s", res.Encoding.Bits, res.Encoding)
	}
	if v := Verify(cs, res.Encoding); len(v) != 0 {
		t.Fatalf("verification failed: %v\n%s", v, res.Encoding)
	}
}

// TestFigure1Abstraction builds the Section-4 binate table for the example
// (a,b), b>c, b=a∨c and checks that its solution is a valid minimal
// encoding.
func TestFigure1Abstraction(t *testing.T) {
	cs := constraint.MustParse(`
		symbols a b c
		face a b
		dom b > c
		disj b = a | c
	`)
	tab, err := BuildBinateTable(cs)
	if err != nil {
		t.Fatalf("BuildBinateTable: %v", err)
	}
	if len(tab.Columns) != 6 {
		t.Fatalf("want 6 columns (001..110), got %d", len(tab.Columns))
	}
	// The face row (ab;c) must be covered exactly by the columns where a,b
	// agree and c differs: patterns 100 (c=1) and 011 (a=b=1, c=0).
	// Patterns are bit s = symbol s's value, symbols a=0,b=1,c=2.
	wantCover := map[uint64]bool{0b100: true, 0b011: true}
	faceRow := tab.Rows[0]
	for j, pat := range tab.Columns {
		got := faceRow[j] == 1
		if got != wantCover[pat] {
			t.Errorf("face row: column pattern %03b cover=%v, want %v", pat, got, wantCover[pat])
		}
	}
	// Dominance b>c forbids columns with b=0, c=1: patterns 100 and 101.
	forbidden := map[uint64]bool{}
	for _, row := range tab.Rows {
		for j, v := range row {
			if v == 0 {
				forbidden[tab.Columns[j]] = true
			}
		}
	}
	if !forbidden[0b100] || !forbidden[0b101] {
		t.Errorf("dominance b>c should forbid patterns 100 and 101, got %v", forbidden)
	}

	pats, err := tab.SolveCtx(context.Background())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if len(pats) != 2 {
		t.Fatalf("want a 2-column solution, got %d", len(pats))
	}
	enc := tab.EncodingFromPatterns(pats)
	if v := Verify(cs, enc); len(v) != 0 {
		t.Fatalf("binate solution does not verify: %v\n%s", v, enc)
	}
}

// TestFigure3InputEncoding reproduces the input-encoding example: four face
// constraints over s0..s4 whose minimum prime cover uses 4 columns.
func TestFigure3InputEncoding(t *testing.T) {
	cs := constraint.MustParse(`
		symbols s0 s1 s2 s3 s4
		face s0 s2 s4
		face s0 s1 s4
		face s1 s2 s3
		face s1 s3 s4
	`)
	res, err := ExactEncodeCtx(context.Background(), cs, ExactOptions{})
	if err != nil {
		t.Fatalf("ExactEncode: %v", err)
	}
	if res.Encoding.Bits != 4 {
		t.Fatalf("want 4 bits per the paper's minimum cover, got %d\n%s", res.Encoding.Bits, res.Encoding)
	}
	if v := Verify(cs, res.Encoding); len(v) != 0 {
		t.Fatalf("verification failed: %v\n%s", v, res.Encoding)
	}
	// Cross-check against exhaustive column enumeration.
	ex, err := ExactEncodeCtx(context.Background(), cs, ExactOptions{Exhaustive: true})
	if err != nil {
		t.Fatalf("exhaustive: %v", err)
	}
	if ex.Encoding.Bits != res.Encoding.Bits {
		t.Fatalf("prime pipeline found %d bits, exhaustive %d", res.Encoding.Bits, ex.Encoding.Bits)
	}
}

// TestFigure4Infeasible reproduces the feasibility-check example: the mixed
// constraint set of Figure 4 has no encoding (the algorithm of Devadas &
// Newton wrongly reports it satisfiable). The two dichotomies separating
// {s1,s5} from s0 are exactly the uncovered ones.
func TestFigure4Infeasible(t *testing.T) {
	cs := figure4Constraints()
	f := CheckFeasible(cs)
	if f.Feasible {
		t.Fatalf("Figure 4 constraints must be infeasible")
	}
	for _, u := range f.Uncovered {
		sep := u.Separates(mustIdx(t, cs, "s0"), mustIdx(t, cs, "s1")) &&
			u.Separates(mustIdx(t, cs, "s0"), mustIdx(t, cs, "s5"))
		if !sep {
			t.Errorf("unexpected uncovered dichotomy %s", u.Format(cs.Syms))
		}
	}
	if len(f.Uncovered) != 2 {
		t.Errorf("paper reports exactly 2 uncovered initial dichotomies, got %d", len(f.Uncovered))
	}
	if _, err := ExactEncodeCtx(context.Background(), cs, ExactOptions{}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("ExactEncode must report infeasibility, got %v", err)
	}
}

func figure4Constraints() *constraint.Set {
	return constraint.MustParse(`
		symbols s0 s1 s2 s3 s4 s5
		face s1 s5
		face s2 s5
		face s4 s5
		dom s0 > s1
		dom s0 > s2
		dom s0 > s3
		dom s0 > s5
		dom s1 > s3
		dom s2 > s3
		dom s4 > s5
		dom s5 > s2
		dom s5 > s3
		disj s0 = s1 | s2
	`)
}

// TestFigure4RaisedDichotomies checks the specific raising the paper's
// walk-through performs: (s1; s2 s5) raises to (s1 s3; s0 s2 s4 s5).
func TestFigure4RaisedDichotomies(t *testing.T) {
	cs := figure4Constraints()
	f := CheckFeasible(cs)
	want := map[string]bool{}
	for _, d := range f.Raised {
		want[d.Format(cs.Syms)] = true
	}
	if !want["(s1 s3; s0 s2 s4 s5)"] {
		t.Errorf("expected raised dichotomy (s1 s3; s0 s2 s4 s5), got %v", keysOf(want))
	}
	if !want["(s2 s3; s0 s1 s4 s5)"] {
		t.Errorf("expected raised dichotomy (s2 s3; s0 s1 s4 s5), got %v", keysOf(want))
	}
}

func keysOf(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestFigure8ExactEncode reproduces the exact mixed-constraint encoding
// example: (s0,s1), s0>s1, s1>s2, s0=s1∨s3 has the unique minimal solution
// shape s0=11, s1=10, s2=00, s3=01 (up to column order).
func TestFigure8ExactEncode(t *testing.T) {
	cs := constraint.MustParse(`
		symbols s0 s1 s2 s3
		face s0 s1
		dom s0 > s1
		dom s1 > s2
		disj s0 = s1 | s3
	`)
	res, err := ExactEncodeCtx(context.Background(), cs, ExactOptions{})
	if err != nil {
		t.Fatalf("ExactEncode: %v", err)
	}
	if res.Encoding.Bits != 2 {
		t.Fatalf("want 2 bits, got %d\n%s", res.Encoding.Bits, res.Encoding)
	}
	if v := Verify(cs, res.Encoding); len(v) != 0 {
		t.Fatalf("verification failed: %v\n%s", v, res.Encoding)
	}
	// The paper's solution is forced up to bit permutation: s0 must be 11,
	// s2 must be 00, and {s1, s3} = {10, 01}.
	get := func(name string) uint64 {
		c, ok := res.Encoding.Code(name)
		if !ok {
			t.Fatalf("missing code for %s", name)
		}
		return c
	}
	if get("s0") != 3 {
		t.Errorf("s0 must be 11, got %s", res.Encoding.CodeString(mustIdx(t, cs, "s0")))
	}
	if get("s2") != 0 {
		t.Errorf("s2 must be 00, got %s", res.Encoding.CodeString(mustIdx(t, cs, "s2")))
	}
	if get("s1")|get("s3") != 3 || get("s1")&get("s3") != 0 {
		t.Errorf("s1 and s3 must partition the bits: s1=%b s3=%b", get("s1"), get("s3"))
	}
}

// TestSection81DontCares reproduces the Section-8.1 example: with the
// don't-care face constraint (a,b,[c,d],e) three primes suffice, while
// forcing the don't-cares in or out requires four.
func TestSection81DontCares(t *testing.T) {
	base := `
		symbols a b c d e f
		face a b
		face a c
		face a d
	`
	withDC := constraint.MustParse(base + "face a b [ c d ] e\n")
	forcedIn := constraint.MustParse(base + "face a b c d e\n")
	forcedOut := constraint.MustParse(base + "face a b e\n")

	solve := func(cs *constraint.Set) int {
		res, err := ExactEncodeCtx(context.Background(), cs, ExactOptions{})
		if err != nil {
			t.Fatalf("ExactEncode: %v", err)
		}
		if v := Verify(cs, res.Encoding); len(v) != 0 {
			t.Fatalf("verification failed: %v\n%s", v, res.Encoding)
		}
		return res.Encoding.Bits
	}
	if got := solve(withDC); got != 3 {
		t.Errorf("don't-care variant: want 3 bits, got %d", got)
	}
	if got := solve(forcedIn); got != 4 {
		t.Errorf("forced-in variant: want 4 bits, got %d", got)
	}
	if got := solve(forcedOut); got != 4 {
		t.Errorf("forced-out variant: want 4 bits, got %d", got)
	}
}

func mustIdx(t *testing.T, cs *constraint.Set, name string) int {
	t.Helper()
	i, ok := cs.Syms.Lookup(name)
	if !ok {
		t.Fatalf("unknown symbol %s", name)
	}
	return i
}
