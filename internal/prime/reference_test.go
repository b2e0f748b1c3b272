package prime

import (
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/dichotomy"
)

// This file keeps the full-scan Tomita pivot that bkPivot's early exits
// replaced, unchanged but for its name, together with a plain allocating
// Bron–Kerbosch walker built on it. They are the reference oracles of
// TestPivotMatchesReference: bkPivot must pick refPivot's vertex, and the
// engines must return refCliques's cliques in its order after entering
// exactly its number of recursion nodes.

// refPivot returns the vertex of P ∪ X with the most neighbours in P, or -1
// when both sets are empty.
func refPivot(p, x bitset.Set, adj []bitset.Set) int {
	pivot, best := refPivotScan(p, p, adj, -1, -1)
	pivot, _ = refPivotScan(x, p, adj, pivot, best)
	return pivot
}

// refPivotScan folds the pivot-degree maximum over one vertex set.
func refPivotScan(s, p bitset.Set, adj []bitset.Set, pivot, best int) (int, int) {
	for wi, wc := 0, s.WordCount(); wi < wc; wi++ {
		for w := s.Word(wi); w != 0; w &= w - 1 {
			u := wi*wordBits + bits.TrailingZeros64(w)
			if d := bitset.IntersectLen(p, adj[u]); d > best {
				best, pivot = d, u
			}
		}
	}
	return pivot, best
}

// refAdjacency is the compatibility graph of the seeds, built pair by pair
// without the engines' row sweep.
func refAdjacency(seeds []dichotomy.D) []bitset.Set {
	adj := make([]bitset.Set, len(seeds))
	for i := range adj {
		adj[i] = bitset.New(len(seeds))
		for j := range seeds {
			if i != j && seeds[i].Compatible(seeds[j]) {
				adj[i].Add(j)
			}
		}
	}
	return adj
}

// refCliques enumerates the maximal cliques of the seeds' compatibility
// graph with the pivoting recursion, in depth-first order, and counts the
// recursion nodes it enters.
func refCliques(seeds []dichotomy.D) (cliques []bitset.Set, nodes int) {
	n := len(seeds)
	if n == 0 {
		return nil, 0
	}
	adj := refAdjacency(seeds)
	var rec func(r, p, x bitset.Set)
	rec = func(r, p, x bitset.Set) {
		nodes++
		if p.IsEmpty() && x.IsEmpty() {
			cliques = append(cliques, r.Clone())
			return
		}
		cand := p.Clone()
		if pivot := refPivot(p, x, adj); pivot >= 0 {
			cand.DifferenceWith(adj[pivot])
		}
		cand.ForEach(func(v int) bool {
			r2 := r.Clone()
			r2.Add(v)
			rec(r2, bitset.Intersect(p, adj[v]), bitset.Intersect(x, adj[v]))
			p.Remove(v)
			x.Add(v)
			return true
		})
	}
	all := bitset.New(n)
	for i := 0; i < n; i++ {
		all.Add(i)
	}
	rec(bitset.New(n), all, bitset.New(n))
	return cliques, nodes
}
