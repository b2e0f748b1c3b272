package sat_test

import (
	"context"
	"fmt"

	"repro/internal/sat"
)

// ExampleSolveBinateCtx solves a binate problem: selecting column 0
// forbids column 1.
func ExampleSolveBinateCtx() {
	p := sat.BinateProblem{
		NumCols: 3,
		Clauses: [][]sat.Lit{
			{sat.Pos(0), sat.Pos(1)}, // cover: c0 or c1
			{sat.Neg(0), sat.Pos(2)}, // c0 -> c2
			{sat.Neg(1), sat.Neg(2)}, // c1 and c2 exclusive
		},
	}
	sol, _ := sat.SolveBinateCtx(context.Background(), &p, sat.CoverOptions{})
	fmt.Println("selected:", sol.Selected)
	// Output:
	// selected: [1]
}
