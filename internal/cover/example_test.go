package cover_test

import (
	"context"
	"fmt"

	"repro/internal/cover"
)

// ExampleProblem_SolveExact solves a small unate covering problem exactly.
func ExampleProblem_SolveExactCtx() {
	p := cover.Problem{
		NumCols: 4,
		RowCols: [][]int{
			{0, 1},
			{1, 2},
			{2, 3},
		},
	}
	sol, _ := p.SolveExactCtx(context.Background(), cover.Options{})
	fmt.Println("cost:", sol.Cost, "optimal:", sol.Optimal)
	// Output:
	// cost: 2 optimal: true
}
