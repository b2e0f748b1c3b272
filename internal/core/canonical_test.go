package core

import (
	"testing"

	"repro/internal/constraint"
)

// TestCanonicalHashOrderInvariant checks the equivalence CanonicalHashSet
// quotients by: permuting the constraint lists, the unordered members
// inside a constraint, or the order symbols are first mentioned (and hence
// interned) must not change the hash.
func TestCanonicalHashOrderInvariant(t *testing.T) {
	base := `
		face a b c
		face d e [ a ]
		dom a > d
		disj e = a | b
		extdisj (b & c) | (d & e) >= a
		dist2 a e
		nonface a b e
		chain c d e
	`
	permutations := []string{
		// Constraint lists reordered.
		`
		chain c d e
		nonface a b e
		dist2 a e
		extdisj (b & c) | (d & e) >= a
		disj e = a | b
		dom a > d
		face d e [ a ]
		face a b c
		`,
		// Unordered members permuted: face members, disjunctive children,
		// extdisj conjunctions (inner and outer), dist2 pair.
		`
		face c a b
		face e d [ a ]
		dom a > d
		disj e = b | a
		extdisj (e & d) | (c & b) >= a
		dist2 e a
		nonface e b a
		chain c d e
		`,
		// Symbol interning order changed by a symbols preamble.
		"symbols e d c b a\n" + base,
	}
	want := CanonicalHashSet(constraint.MustParse(base))
	for i, text := range permutations {
		if got := CanonicalHashSet(constraint.MustParse(text)); got != want {
			t.Errorf("permutation %d: canonical hash %v != %v", i, got, want)
		}
	}
}

// TestCanonicalHashDistinguishes checks canonicalization doesn't collapse
// semantically different sets: everything order-like that carries meaning
// (dominance direction, chain sequence, conjunction grouping) must still
// separate.
func TestCanonicalHashDistinguishes(t *testing.T) {
	variants := []string{
		"face a b c\n",
		"face a b\n",
		"face a b c d\n",
		"face a b [ c ]\n",
		"symbols a b c z\nface a b c\n",
		"face a b c\ndom a > b\n",
		"face a b c\ndom b > a\n", // dominance direction is semantic
		"face a b c\ndist2 a b\n",
		"face a b c\nnonface a b c\n",
		"face a b c\nchain a b\n",
		"face a b c\nchain b a\n", // chain sequence is semantic
		"disj a = b | c\n",
		"extdisj (b & c) >= a\n",
		"extdisj (b) | (c) >= a\n", // grouping differs: (b∧c) vs (b)∨(c)
		"dom a > b\ndom c > d\n",
		"face a b c\nface a b c\n", // duplication is significant
	}
	seen := map[Hash128]string{}
	for _, text := range variants {
		cs, err := constraint.ParseString(text)
		if err != nil {
			t.Fatalf("parse %q: %v", text, err)
		}
		h := CanonicalHashSet(cs)
		if h.IsZero() {
			t.Fatalf("zero canonical hash for %q", text)
		}
		if prev, dup := seen[h]; dup {
			t.Fatalf("collision between %q and %q: %v", prev, text, h)
		}
		seen[h] = text
	}
}
