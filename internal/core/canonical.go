package core

import (
	"slices"
	"sort"

	"repro/internal/bitset"
	"repro/internal/constraint"
)

// CanonicalHashSet returns the 128-bit content hash of a constraint set,
// invariant under two representation choices: the order symbols were
// interned in and the order constraints were written in. Source-text
// formatting (comments, whitespace, token gluing) is gone by parse time,
// and bitset word padding never reaches the hash, which folds members as
// index lists. Two sets that denote the same problem — same symbol names,
// same constraints up to reordering of the constraint lists and of any
// semantically unordered members (disjunctive children, distance-2 pairs,
// extended-disjunctive conjunctions) — hash identically; sets differing in
// any semantic detail do not, up to 128-bit collision odds.
//
// Canonicalization: symbols are ranked by name and every index is remapped
// through that ranking, so "face a b" hashes the same whether a was
// interned before b or after; each constraint list is then sorted under a
// kind-specific total order. Chain sequences and dominance pairs keep
// their internal order (reversing either changes the problem); everything
// else is order-free. Duplicated constraints remain significant — parsing
// the same line twice is a different (if odd) input.
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
	n := cs.N()
	// Rank symbols by name: perm[old] = canonical index.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return cs.Syms.Name(order[a]) < cs.Syms.Name(order[b]) })
	perm := make([]int, n)
	for rank, old := range order {
		perm[old] = rank
	}

	// A seed distinct from HashBytes's: a constraint-set key and a
	// byte-string key share the server's maps without aliasing.
	h := &setHasher{h1: 0x2ffd72dbd01adfb7, h2: 0xb8e1afed6a267e96}

	h.word(tagSymbols)
	h.word(uint64(n))
	for _, old := range order {
		h.str(cs.Syms.Name(old))
	}

	remap := func(s bitset.Set) []int {
		elems := s.Elems()
		for i, e := range elems {
			elems[i] = perm[e]
		}
		sort.Ints(elems)
		return elems
	}
	foldInts := func(xs []int) {
		h.word(uint64(len(xs)))
		for _, x := range xs {
			h.word(uint64(x))
		}
	}

	h.word(tagFace)
	faces := make([][2][]int, len(cs.Faces))
	for i, f := range cs.Faces {
		faces[i] = [2][]int{remap(f.Members), remap(f.DontCare)}
	}
	sort.Slice(faces, func(a, b int) bool {
		if c := slices.Compare(faces[a][0], faces[b][0]); c != 0 {
			return c < 0
		}
		return slices.Compare(faces[a][1], faces[b][1]) < 0
	})
	h.word(uint64(len(faces)))
	for _, f := range faces {
		foldInts(f[0])
		foldInts(f[1])
	}

	h.word(tagDom)
	doms := make([][2]int, len(cs.Dominances))
	for i, d := range cs.Dominances {
		doms[i] = [2]int{perm[d.Big], perm[d.Small]} // Big/Small order is semantic
	}
	sort.Slice(doms, func(a, b int) bool {
		if doms[a][0] != doms[b][0] {
			return doms[a][0] < doms[b][0]
		}
		return doms[a][1] < doms[b][1]
	})
	h.word(uint64(len(doms)))
	for _, d := range doms {
		h.word(uint64(d[0]))
		h.word(uint64(d[1]))
	}

	h.word(tagDisj)
	type disj struct {
		parent   int
		children []int
	}
	disjs := make([]disj, len(cs.Disjunctives))
	for i, d := range cs.Disjunctives {
		children := make([]int, len(d.Children))
		for j, c := range d.Children {
			children[j] = perm[c]
		}
		sort.Ints(children) // an OR is unordered
		disjs[i] = disj{perm[d.Parent], children}
	}
	sort.Slice(disjs, func(a, b int) bool {
		if disjs[a].parent != disjs[b].parent {
			return disjs[a].parent < disjs[b].parent
		}
		return slices.Compare(disjs[a].children, disjs[b].children) < 0
	})
	h.word(uint64(len(disjs)))
	for _, d := range disjs {
		h.word(uint64(d.parent))
		foldInts(d.children)
	}

	h.word(tagExtDisj)
	type extDisj struct {
		parent int
		conjs  [][]int
	}
	exts := make([]extDisj, len(cs.ExtDisjunctives))
	for i, e := range cs.ExtDisjunctives {
		conjs := make([][]int, len(e.Conjunctions))
		for j, conj := range e.Conjunctions {
			c := make([]int, len(conj))
			for k, s := range conj {
				c[k] = perm[s]
			}
			sort.Ints(c) // an AND is unordered
			conjs[j] = c
		}
		// The OR over conjunctions is unordered too.
		sort.Slice(conjs, func(a, b int) bool { return slices.Compare(conjs[a], conjs[b]) < 0 })
		exts[i] = extDisj{perm[e.Parent], conjs}
	}
	sort.Slice(exts, func(a, b int) bool {
		if exts[a].parent != exts[b].parent {
			return exts[a].parent < exts[b].parent
		}
		return slices.CompareFunc(exts[a].conjs, exts[b].conjs, slices.Compare[[]int]) < 0
	})
	h.word(uint64(len(exts)))
	for _, e := range exts {
		h.word(uint64(e.parent))
		h.word(uint64(len(e.conjs)))
		for _, c := range e.conjs {
			foldInts(c)
		}
	}

	h.word(tagDistance)
	dists := make([][2]int, len(cs.Distance2s))
	for i, d := range cs.Distance2s {
		a, b := perm[d.A], perm[d.B]
		if a > b { // distance is symmetric
			a, b = b, a
		}
		dists[i] = [2]int{a, b}
	}
	sort.Slice(dists, func(a, b int) bool {
		if dists[a][0] != dists[b][0] {
			return dists[a][0] < dists[b][0]
		}
		return dists[a][1] < dists[b][1]
	})
	h.word(uint64(len(dists)))
	for _, d := range dists {
		h.word(uint64(d[0]))
		h.word(uint64(d[1]))
	}

	h.word(tagNonFace)
	nfs := make([][]int, len(cs.NonFaces))
	for i, nf := range cs.NonFaces {
		nfs[i] = remap(nf.Members)
	}
	sort.Slice(nfs, func(a, b int) bool { return slices.Compare(nfs[a], nfs[b]) < 0 })
	h.word(uint64(len(nfs)))
	for _, m := range nfs {
		foldInts(m)
	}

	h.word(tagChain)
	chains := make([][]int, len(cs.Chains))
	for i, ch := range cs.Chains {
		seq := make([]int, len(ch.Seq))
		for j, s := range ch.Seq {
			seq[j] = perm[s] // sequence order is semantic: codes are consecutive
		}
		chains[i] = seq
	}
	sort.Slice(chains, func(a, b int) bool { return slices.Compare(chains[a], chains[b]) < 0 })
	h.word(uint64(len(chains)))
	for _, seq := range chains {
		foldInts(seq)
	}

	return Hash128{Hi: bitset.Mix64(h.h1 ^ h.h2), Lo: bitset.Mix64(h.h2 + 0x9e3779b97f4a7c15*h.h1)}
}
