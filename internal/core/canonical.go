package core

import "repro/internal/constraint"

// CanonicalHashSet returns the 128-bit content hash of cs.Canonical(): two
// sets hash alike exactly when they denote the same problem, the same
// symbol names and the same constraints up to interning order, list order
// and the order of any semantically unordered members (see
// constraint.Set.Canonical), up to 128-bit collision odds.
//
// This is the hash the request server keys its cache and coalescing layers
// on: a permuted resubmission of a cached problem must hit, not re-solve.
// The solver pipeline itself still consumes the original order (which of
// several equally optimal encodings it returns can depend on it), so two
// permuted-but-equal requests may receive different, equally valid cached
// encodings depending on which arrived first — the cache contract is "a
// correct optimal answer", not "the answer a particular ordering would
// have produced".
func CanonicalHashSet(cs *constraint.Set) Hash128 {
	return CanonicalHash(cs.Canonical())
}

// CanonicalHash returns the hash CanonicalHashSet gives the sets whose
// canonical form is canonical, for a caller that already holds that form
// (constraint.Set.Dedupe returns it).
func CanonicalHash(canonical string) Hash128 {
	// A seed distinct from HashBytes's: a constraint-set key and a
	// byte-string key share the server's maps without aliasing.
	return hashString(0x2ffd72dbd01adfb7, 0xb8e1afed6a267e96, canonical)
}
