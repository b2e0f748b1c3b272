package bench

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dichotomy"
	"repro/internal/prime"
)

// Figure1 rebuilds the Section-4 binate-covering table for the example
// (a,b), b>c, b=a∨c and solves it.
func Figure1() (string, error) {
	cs := constraint.MustParse(`
		symbols a b c
		face a b
		dom b > c
		disj b = a | c
	`)
	tab, err := core.BuildBinateTable(cs)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Figure 1: satisfaction of constraints as binate covering\n")
	b.WriteString("constraints: (a,b), b > c, b = a | c\n\n")
	b.WriteString(tab.Render())
	pats, err := tab.SolveCtx(context.Background())
	if err != nil {
		return "", err
	}
	enc := tab.EncodingFromPatterns(pats)
	fmt.Fprintf(&b, "\nminimum cover: %d columns\n%s", len(pats), enc)
	if v := core.Verify(cs, enc); len(v) != 0 {
		return "", fmt.Errorf("bench: figure 1 solution failed verification: %v", v)
	}
	return b.String(), nil
}

// Figure3 walks the input-encoding example: initial dichotomies, maximal
// compatibles via the paper's cs/ps procedure, prime dichotomies and the
// minimum cover.
func Figure3() (string, error) {
	cs := constraint.MustParse(`
		symbols s0 s1 s2 s3 s4
		face s0 s2 s4
		face s0 s1 s4
		face s1 s2 s3
		face s1 s3 s4
	`)
	var b strings.Builder
	b.WriteString("Figure 3: input encoding example\n")
	b.WriteString("constraints: (s0,s2,s4) (s0,s1,s4) (s1,s2,s3) (s1,s3,s4)\n\n")

	seeds := dichotomy.Initial(cs)
	b.WriteString("initial encoding-dichotomies:\n")
	for _, d := range seeds {
		fmt.Fprintf(&b, "  %s\n", d.Format(cs.Syms))
	}

	// Both engines must agree; report the cs/ps result per the paper.
	primesCSPS, err := prime.GenerateCtx(context.Background(), seeds, prime.Options{Engine: prime.CSPS})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "\nprime encoding-dichotomies (cs/ps procedure, %d):\n", len(primesCSPS))
	for _, d := range primesCSPS {
		fmt.Fprintf(&b, "  %s\n", d.Format(cs.Syms))
	}

	res, err := core.ExactEncodeCtx(context.Background(), cs, core.ExactOptions{})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "\nminimum cover (%d columns):\n", len(res.SelectedColumns))
	for _, d := range res.SelectedColumns {
		fmt.Fprintf(&b, "  %s\n", d.Format(cs.Syms))
	}
	fmt.Fprintf(&b, "\ncodes:\n%s", res.Encoding)
	return b.String(), nil
}

// Figure4 walks the mixed-constraint feasibility counter-example: the set
// is infeasible and exactly the two dichotomies separating {s1,s5} from s0
// are uncovered.
func Figure4() (string, error) {
	cs := constraint.MustParse(`
		symbols s0 s1 s2 s3 s4 s5
		face s1 s5
		face s2 s5
		face s4 s5
		dom s0 > s1
		dom s0 > s2
		dom s0 > s3
		dom s0 > s5
		dom s1 > s3
		dom s2 > s3
		dom s4 > s5
		dom s5 > s2
		dom s5 > s3
		disj s0 = s1 | s2
	`)
	f := core.CheckFeasible(cs)
	var b strings.Builder
	b.WriteString("Figure 4: feasibility check with input and output constraints\n\n")
	fmt.Fprintf(&b, "initial encoding-dichotomies: %d\n", len(f.Seeds))
	fmt.Fprintf(&b, "valid maximally raised dichotomies: %d\n", len(f.Raised))
	for _, d := range f.Raised {
		fmt.Fprintf(&b, "  %s\n", d.Format(cs.Syms))
	}
	b.WriteString("\nuncovered initial encoding-dichotomies:\n")
	for _, d := range f.Uncovered {
		fmt.Fprintf(&b, "  %s\n", d.Format(cs.Syms))
	}
	fmt.Fprintf(&b, "\nfeasible: %v (the algorithm of [9] wrongly reports satisfiable)\n", f.Feasible)
	if f.Feasible {
		return "", fmt.Errorf("bench: figure 4 must be infeasible")
	}
	return b.String(), nil
}

// Figure8 walks the exact mixed-constraint encoding example ending in the
// paper's codes s0=11, s1=10, s2=00, s3=01.
func Figure8() (string, error) {
	cs := constraint.MustParse(`
		symbols s0 s1 s2 s3
		face s0 s1
		dom s0 > s1
		dom s1 > s2
		disj s0 = s1 | s3
	`)
	res, err := core.ExactEncodeCtx(context.Background(), cs, core.ExactOptions{})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Figure 8: exact encoding with input and output constraints\n")
	b.WriteString("constraints: (s0,s1), s0>s1, s1>s2, s0 = s1 | s3\n\n")
	fmt.Fprintf(&b, "initial encoding-dichotomies: %d\n", len(res.Seeds))
	b.WriteString("raised encoding-dichotomies:\n")
	for _, d := range res.Raised {
		fmt.Fprintf(&b, "  %s\n", d.Format(cs.Syms))
	}
	fmt.Fprintf(&b, "\nminimum cover (%d columns):\n", len(res.SelectedColumns))
	for _, d := range res.SelectedColumns {
		fmt.Fprintf(&b, "  %s\n", d.Format(cs.Syms))
	}
	fmt.Fprintf(&b, "\nfinal encoding:\n%s", res.Encoding)
	if v := core.Verify(cs, res.Encoding); len(v) != 0 {
		return "", fmt.Errorf("bench: figure 8 solution failed verification: %v", v)
	}
	return b.String(), nil
}

// Figure9 reproduces the cost-function evaluation: the paper's 4-bit
// solution satisfies everything, and a 3-bit encoding with the paper's
// profile (3 violated constraints, 7 cubes, 14 literals) is exhibited.
func Figure9() (string, error) {
	cs := constraint.MustParse(`
		symbols a b c d e f g
		face e f c
		face e d g
		face a b d
		face a g f d
	`)
	var b strings.Builder
	b.WriteString("Figure 9: cost function evaluation\n")
	b.WriteString("constraints: (e,f,c) (e,d,g) (a,b,d) (a,g,f,d)\n\n")

	enc, r := cost.SearchFigure9(cs)
	if enc == nil {
		return "", fmt.Errorf("bench: no 3-bit encoding matches the paper's profile")
	}
	b.WriteString("a 3-bit encoding with the paper's cost profile:\n")
	for s := 0; s < cs.N(); s++ {
		fmt.Fprintf(&b, "  %s = %03b\n", cs.Syms.Name(s), enc.Codes[s])
	}
	fmt.Fprintf(&b, "violated face constraints: %d\ncubes: %d\nliterals: %d\n",
		r.Violations, r.Cubes, r.Literals)
	return b.String(), nil
}
