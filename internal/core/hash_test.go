package core

import (
	"fmt"
	"testing"

	"repro/internal/constraint"
)

func TestHashSetDeterministic(t *testing.T) {
	text := `
		face a b c
		face d e [ a ]
		dom a > d
		disj e = a | b
		extdisj (b & c) | (d & e) >= a
		dist2 a e
		nonface a b e
		chain c d e
	`
	a := CanonicalHashSet(constraint.MustParse(text))
	b := CanonicalHashSet(constraint.MustParse(text))
	if a != b {
		t.Fatalf("same text hashed differently: %v vs %v", a, b)
	}
	if a.IsZero() {
		t.Fatalf("hash of a non-trivial set is zero")
	}
}

func TestHashSetCanonicalOverFormatting(t *testing.T) {
	a := CanonicalHashSet(constraint.MustParse("face a b c\ndom a > b\n"))
	b := CanonicalHashSet(constraint.MustParse("# comment\n  face   a,b , c   # trailing\n\n a>b \n"))
	if a != b {
		t.Fatalf("formatting changed the hash: %v vs %v", a, b)
	}
}

func TestHashSetDistinguishes(t *testing.T) {
	variants := []string{
		"face a b c\n",
		"face a b\n",
		"face a b c d\n",
		"face a b [ c ]\n",
		"symbols a b c z\nface a b c\n",
		"face a b c\ndom a > b\n",
		"face a b c\ndom b > a\n",
		"face a b c\ndist2 a b\n",
		"face a b c\nnonface a b c\n",
		"face a b c\nchain a b\n",
		"face a b c\nchain b a\n",
		"disj a = b | c\n",
		"extdisj (b & c) >= a\n",
		"extdisj (b) | (c) >= a\n",
		"dom a > b\ndom c > d\n",
	}
	seen := map[Hash128]string{}
	for _, text := range variants {
		cs, err := constraint.ParseString(text)
		if err != nil {
			t.Fatalf("parse %q: %v", text, err)
		}
		h := CanonicalHashSet(cs)
		if prev, dup := seen[h]; dup {
			t.Fatalf("collision between %q and %q: %v", prev, text, h)
		}
		seen[h] = text
	}
	// Interning order and constraint-list order carry no meaning, so the
	// hash equates these variants with their counterparts above.
	for variant, same := range map[string]string{
		"face a c b\n":           "face a b c\n",
		"dom c > d\ndom a > b\n": "dom a > b\ndom c > d\n",
	} {
		h := CanonicalHashSet(constraint.MustParse(variant))
		if seen[h] != same {
			t.Fatalf("%q hashed to %v, want the hash of %q", variant, h, same)
		}
	}
}

func TestHashSetPaddingInvariant(t *testing.T) {
	// The same face over a 3-symbol universe vs the same members interned
	// into a much larger universe: the symbol section differs, so hashes
	// must differ — but hashing must not panic and must stay stable when
	// bitsets carry padded trailing words.
	small := constraint.MustParse("face a b c\n")
	var big string
	for i := 0; i < 200; i++ {
		big += fmt.Sprintf("sym%03d ", i)
	}
	large := constraint.MustParse("symbols a b c " + big + "\nface a b c\n")
	if CanonicalHashSet(small) == CanonicalHashSet(large) {
		t.Fatalf("different universes hashed identically")
	}
	if CanonicalHashSet(large) != CanonicalHashSet(large) {
		t.Fatalf("large-universe hash unstable")
	}
}

func TestHash128String(t *testing.T) {
	h := Hash128{Hi: 0xabc, Lo: 0x1}
	if got, want := h.String(), "0000000000000abc0000000000000001"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if (Hash128{}).IsZero() != true || h.IsZero() {
		t.Fatalf("IsZero misbehaves")
	}
}
