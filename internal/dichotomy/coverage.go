package dichotomy

import (
	"math/bits"

	"repro/internal/bitset"
)

// Coverage returns the covering matrix of rows by cols: for each row, the
// ascending indices of the columns that cover it (Covers).
//
// The matrix is built transposed. One pass over the columns records, for
// every symbol s, the columns with s in their left block (inL[s]) and the
// columns with s in their right block (inR[s]). A row (L; R) is covered
// as-is by the columns in inL[s] for every s ∈ L and in inR[s] for every
// s ∈ R, and swapped by those in inR[s] for every s ∈ L and in inL[s] for
// every s ∈ R; its list is the union of the two. An empty block intersects
// nothing and keeps every column, as in Covers, and a symbol that no
// column assigns leaves the row uncovered.
//
// All lists share one backing array. Each is capped at its own length, so
// an append to one row copies it instead of overwriting the next.
func Coverage(rows, cols []D) [][]int {
	nsym := 0
	for _, c := range cols {
		nsym = max(nsym, bound(c.L), bound(c.R))
	}
	slab := bitset.NewSlab(len(cols))
	inL, inR := make([]bitset.Set, nsym), make([]bitset.Set, nsym)
	for s := range inL {
		inL[s], inR[s] = slab.Get(), slab.Get()
	}
	all := slab.Get()
	for ci, c := range cols {
		all.Add(ci)
		c.L.ForEach(func(s int) bool { inL[s].Add(ci); return true })
		c.R.ForEach(func(s int) bool { inR[s].Add(ci); return true })
	}

	// Each row's covering columns as a set first, so that the lists can
	// be laid out in one exactly sized array.
	covered := make([]bitset.Set, len(rows))
	swapped := slab.Get()
	total := 0
	for ri, r := range rows {
		asIs := slab.Get()
		asIs.CopyFrom(all)
		swapped.CopyFrom(all)
		if restrict(&asIs, &swapped, r.L, inL, inR) && restrict(&asIs, &swapped, r.R, inR, inL) {
			asIs.UnionInto(asIs, swapped)
			total += asIs.Len()
		} else {
			asIs.Clear()
		}
		covered[ri] = asIs
	}
	flat := make([]int, 0, total)
	out := make([][]int, len(rows))
	for ri, c := range covered {
		start := len(flat)
		flat = c.AppendTo(flat)
		out[ri] = flat[start:len(flat):len(flat)]
	}
	return out
}

// restrict narrows asIs to the columns that hold every symbol of block in
// their same[s] family and swapped to those that hold it in other[s]. It
// reports false when a symbol of block lies beyond every column, so that
// no column covers the row in either orientation.
func restrict(asIs, swapped *bitset.Set, block bitset.Set, same, other []bitset.Set) bool {
	for wi, wc := 0, block.WordCount(); wi < wc; wi++ {
		for w := block.Word(wi); w != 0; w &= w - 1 {
			s := wi*64 + bits.TrailingZeros64(w)
			if s >= len(same) {
				return false
			}
			asIs.IntersectInto(*asIs, same[s])
			swapped.IntersectInto(*swapped, other[s])
		}
	}
	return true
}

// bound returns one more than the largest element of s, or 0 when s is
// empty.
func bound(s bitset.Set) int {
	for i := s.WordCount() - 1; i >= 0; i-- {
		if w := s.Word(i); w != 0 {
			return i*64 + bits.Len64(w)
		}
	}
	return 0
}
