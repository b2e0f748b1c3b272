package sat

// AddAtMostK constrains at most k of lits to be true with Sinz's
// sequential counter LT_{n,k}: auxiliary registers s[i][j] ("at least j of
// the first i+1 literals are true") chained left to right, k·n auxiliaries
// and O(k·n) ternary clauses.
//
// The k-search rests on two properties of the encoding: completeness
// (every assignment of lits with ≤ k true extends to the auxiliaries)
// makes "first satisfiable k" the true minimum, and soundness (> k true is
// unsatisfiable) makes each UNSAT step a proof. Both are enumerated
// exhaustively for n ≤ 8 in the property tests.
func (f *CNF) AddAtMostK(lits []Lit, k int) {
	n := len(lits)
	if k >= n {
		return
	}
	if k <= 0 {
		for _, l := range lits {
			f.AddClause(l.Not())
		}
		return
	}
	// reg[j] is the j-th counter bit of the previous position.
	reg := make([]Lit, k)
	next := make([]Lit, k)
	for j := 0; j < k; j++ {
		reg[j] = Pos(f.NewVar())
	}
	f.AddClause(lits[0].Not(), reg[0])
	for j := 1; j < k; j++ {
		f.AddClause(reg[j].Not())
	}
	for i := 1; i < n-1; i++ {
		for j := 0; j < k; j++ {
			next[j] = Pos(f.NewVar())
		}
		f.AddClause(lits[i].Not(), next[0])
		f.AddClause(reg[0].Not(), next[0])
		for j := 1; j < k; j++ {
			f.AddClause(lits[i].Not(), reg[j-1].Not(), next[j])
			f.AddClause(reg[j].Not(), next[j])
		}
		f.AddClause(lits[i].Not(), reg[k-1].Not())
		reg, next = next, reg
	}
	f.AddClause(lits[n-1].Not(), reg[k-1].Not())
}
