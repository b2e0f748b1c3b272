// Command paper regenerates the tables and figures of "A Framework for
// Satisfying Input and Output Encoding Constraints" (Saldanha, Villa,
// Brayton, Sangiovanni-Vincentelli, UCB/ERL M90/110).
//
// Usage:
//
//	paper -figure N        reproduce figure N (1, 3, 4, 8 or 9)
//	paper -table N         reproduce table N (1, 2 or 3) with its wall times
//	paper -all             everything (tables may take several minutes)
//	paper -bench NAME      restrict a table run to one benchmark
//	paper -ablation        the design-choice ablations
//	paper -write           regenerate EXPERIMENTS.md's generated blocks
//	paper -check           exit 1 if those blocks are stale (used by `make ci`)
//
// Run -write and -check from the repository root.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	figure := flag.Int("figure", 0, "figure number to reproduce (1, 3, 4, 8, 9)")
	table := flag.Int("table", 0, "table number to reproduce (1, 2, 3)")
	ablation := flag.Bool("ablation", false, "run the design-choice ablations (prime engines, evaluator cache)")
	all := flag.Bool("all", false, "reproduce every figure and table")
	benchName := flag.String("bench", "", "restrict a table run to one benchmark")
	write := flag.Bool("write", false, "regenerate the generated blocks of EXPERIMENTS.md")
	check := flag.Bool("check", false, "fail if the generated blocks of EXPERIMENTS.md are stale")
	flag.Parse()

	if *write || *check {
		if err := splice(*check); err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(1)
		}
		return
	}
	if !*all && *figure == 0 && *table == 0 && !*ablation {
		flag.Usage()
		os.Exit(2)
	}
	if *ablation {
		out, err := bench.Ablation()
		if err != nil {
			fmt.Fprintln(os.Stderr, "ablation:", err)
			os.Exit(1)
		}
		fmt.Println(out)
		if !*all && *figure == 0 && *table == 0 {
			return
		}
	}

	var names []string
	if *benchName != "" {
		names = []string{*benchName}
	}

	figures := map[int]func() (string, error){
		1: bench.Figure1, 3: bench.Figure3, 4: bench.Figure4, 8: bench.Figure8, 9: bench.Figure9,
	}
	runFigure := func(n int) {
		out, err := "", fmt.Errorf("no reproducible figure %d (the paper's figures 2, 5, 6, 7 are pseudo-code listings)", n)
		if f, ok := figures[n]; ok {
			out, err = f()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure %d: %v\n", n, err)
			os.Exit(1)
		}
		fmt.Println(out)
	}

	runTable := func(n int) {
		switch n {
		case 1:
			fmt.Println("Table 1: exact input and output encoding")
			fmt.Print(bench.FormatTable1(bench.RunTable1(bench.Table1Options{Names: names}), true))
		case 2:
			fmt.Println("Table 2: two-level heuristic minimum code length input encoding")
			fmt.Print(bench.FormatTable2(bench.RunTable2(bench.Table2Options{Names: names})))
		case 3:
			fmt.Println("Table 3: multi-level heuristic minimum code length input encoding")
			fmt.Print(bench.FormatTable3(bench.RunTable3(bench.Table3Options{Names: names}), true))
		default:
			fmt.Fprintf(os.Stderr, "no table %d\n", n)
			os.Exit(1)
		}
	}

	if *all {
		for _, f := range []int{1, 3, 4, 8, 9} {
			runFigure(f)
		}
		for _, t := range []int{1, 2, 3} {
			runTable(t)
			fmt.Println()
		}
		return
	}
	if *figure != 0 {
		runFigure(*figure)
	}
	if *table != 0 {
		runTable(*table)
	}
}

// splice regenerates EXPERIMENTS.md's generated blocks in place: the
// corpus matrix and Tables 1–3, whose deterministic cells go between the
// document's marker pairs. With check it only fails when the committed
// blocks differ from the regenerated ones.
func splice(check bool) error {
	const doc = "EXPERIMENTS.md"
	raw, err := os.ReadFile(doc)
	if err != nil {
		return err
	}
	blocks, err := bench.Blocks(context.Background())
	if err != nil {
		return err
	}
	spliced, err := bench.Splice(string(raw), blocks)
	switch {
	case err != nil:
		return err
	case spliced == string(raw):
		fmt.Printf("%s is up to date\n", doc)
	case check:
		return fmt.Errorf("%s is stale; run `make paper-tables` and commit the result", doc)
	default:
		if err := os.WriteFile(doc, []byte(spliced), 0o644); err != nil {
			return err
		}
		fmt.Printf("%s updated\n", doc)
	}
	return nil
}
