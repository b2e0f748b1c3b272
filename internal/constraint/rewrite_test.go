package constraint

import (
	"strings"
	"testing"

	"repro/internal/sym"
)

// allClasses holds one or two constraints of each of the seven classes.
const allClasses = `
	symbols a b c d e f g
	face a b c
	face a b [ c d ] e
	dom a > b
	dom f > g
	disj a = b | c
	extdisj ( b & c ) | ( d & e ) >= a
	dist2 a f
	nonface a b e
	chain a b c
`

// TestMapIntoRoutesByFirstSymbol splits a set over {a,b,c} ∪ {d,e,f} into
// two target sets by each constraint's first symbol, renaming every symbol
// to its index within its group: constraints keep their relative order,
// and a face's don't-care from the other group is dropped.
func TestMapIntoRoutesByFirstSymbol(t *testing.T) {
	cs := MustParse(`
		symbols a b c d e f
		face a b [ d ]
		face e f [ d ]
		face b c
		dom e > f
		dom b > a
		disj a = b | c
		extdisj ( e & f ) >= d
		dist2 c a
		nonface d e f
		chain e d
	`)
	group := func(names ...string) *Set {
		t := sym.NewTable()
		for _, n := range names {
			t.Intern(n)
		}
		return NewSet(t)
	}
	left, right := group("a", "b", "c"), group("d", "e", "f")
	to := []int{0, 1, 2, 0, 1, 2}
	cs.MapInto(to, func(first int) *Set {
		if first < 3 {
			return left
		}
		return right
	})
	wantLeft := "symbols a b c\nface a b\nface b c\ndom b > a\ndisj a = b | c\ndist2 c a\n"
	wantRight := "symbols d e f\nface e f [ d ]\ndom e > f\nextdisj (e & f) >= d\nnonface d e f\nchain e d\n"
	if got := left.Format(); got != wantLeft {
		t.Errorf("left set:\n%s\nwant:\n%s", got, wantLeft)
	}
	if got := right.Format(); got != wantRight {
		t.Errorf("right set:\n%s\nwant:\n%s", got, wantRight)
	}
	if cs.Faces[0].DontCare.Len() != 1 {
		t.Error("MapInto changed its receiver")
	}
}

// TestWithoutDropsOneLine checks Len and Without against Format, which
// prints one line per constraint in Without's flat order after the symbols
// line: dropping constraint i removes exactly line i+1 and leaves the
// receiver whole.
func TestWithoutDropsOneLine(t *testing.T) {
	cs := MustParse(allClasses)
	full := strings.Split(cs.Format(), "\n")
	if cs.Len() != 9 || len(full) != cs.Len()+2 {
		t.Fatalf("Len() = %d over %d Format lines", cs.Len(), len(full))
	}
	for i := 0; i < cs.Len(); i++ {
		want := append(append([]string(nil), full[:i+1]...), full[i+2:]...)
		if got := cs.Without(i).Format(); got != strings.Join(want, "\n") {
			t.Errorf("Without(%d):\n%s\nwant line %q dropped", i, got, full[i+1])
		}
	}
	for _, i := range []int{-1, cs.Len()} {
		if got := cs.Without(i).Format(); got != cs.Format() {
			t.Errorf("Without(%d) dropped a constraint:\n%s", i, got)
		}
	}
	if got := strings.Join(full, "\n"); cs.Format() != got {
		t.Error("Without changed its receiver")
	}
}

// TestCloneAcceptsMalformedSets: Clone and Without copy sets Validate
// rejects, such as an empty chain or an empty face, without panicking.
func TestCloneAcceptsMalformedSets(t *testing.T) {
	cs := MustParse("face a b\n")
	cs.Faces = append(cs.Faces, Face{})
	cs.Chains = append(cs.Chains, Chain{})
	if cs.Validate() == nil {
		t.Fatal("empty face and chain must fail validation")
	}
	if c := cs.Clone(); c.Len() != 3 || len(c.Chains[0].Seq) != 0 {
		t.Fatalf("Clone of a malformed set: %+v", c)
	}
	if c := cs.Without(0); c.Len() != 2 {
		t.Fatalf("Without(0) of a malformed set kept %d constraints", c.Len())
	}
}
