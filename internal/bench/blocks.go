package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/corpus"
	"repro/internal/par"
	"repro/internal/pipeline"
)

// Blocks runs every experiment whose cells EXPERIMENTS.md embeds and
// renders each generated block, keyed by its marker name: the five corpus
// blocks (the full pipeline over testdata/corpus for every strategy) and
// table1, table2 and table3, which hold the tables' deterministic columns
// and no wall times. The corpus matrix and the three tables run
// concurrently; Table 1's covering search runs at one worker, so its
// budget-truncated rows are the same on any CPU count. Blocks refuses to
// render from a failed run: a pipeline error, a netlist replay that failed
// or did not run, or a table row with an error.
func Blocks(ctx context.Context) (map[string]string, error) {
	machines, err := corpus.Load(corpus.DefaultDir)
	if err != nil {
		return nil, err
	}
	var (
		results []Result
		t1      []Table1Row
		t2      []Table2Row
		t3      []Table3Row
	)
	runs := []func(){
		func() { results, err = RunMatrix(ctx, machines, MatrixOptions{}) },
		func() { t1 = RunTable1(Table1Options{}) },
		func() { t2 = RunTable2(Table2Options{}) },
		func() { t3 = RunTable3(Table3Options{}) },
	}
	par.ForEach(len(runs), len(runs), func(i int) { runs[i]() })
	if err != nil {
		return nil, err
	}
	if err := failures(results, t1, t2, t3); err != nil {
		return nil, err
	}
	blocks := corpusBlocks(machines, results, pipeline.Strategies)
	blocks["table1"] = FormatTable1(t1, false)
	blocks["table2"] = FormatTable2(t2)
	blocks["table3"] = FormatTable3(t3, false)
	return blocks, nil
}

// failures names every corpus cell whose netlist replay failed or did not
// run and every table row with an error, the runs Blocks refuses to render
// from.
func failures(results []Result, t1 []Table1Row, t2 []Table2Row, t3 []Table3Row) error {
	var failed []string
	for _, r := range results {
		for _, s := range pipeline.Strategies {
			switch rp := r.Reports[s].Replay; {
			case rp == nil:
				failed = append(failed, fmt.Sprintf("%s/%s: pipeline skipped the replay check", r.Machine.Name, s))
			case !rp.OK:
				failed = append(failed, fmt.Sprintf("%s/%s: netlist replay failed: %s", r.Machine.Name, s, rp.Error))
			}
		}
	}
	for _, r := range t1 {
		if r.Err != "" {
			failed = append(failed, "table 1 "+r.Name+": "+r.Err)
		}
	}
	for _, r := range t2 {
		if r.Err != "" {
			failed = append(failed, "table 2 "+r.Name+": "+r.Err)
		}
	}
	for _, r := range t3 {
		if r.Err != "" {
			failed = append(failed, "table 3 "+r.Name+": "+r.Err)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("bench: refusing to render from failed runs:\n%s", strings.Join(failed, "\n"))
	}
	return nil
}

// beginMarker opens a generated block; "<!-- paperbench:end NAME -->"
// closes it.
const beginMarker = "<!-- paperbench:begin "

// Splice replaces the content between each block's begin/end markers in
// doc with the freshly rendered table, leaving everything outside the
// markers untouched. Every block must have its marker pair in the
// document, and the document may hold no other begin marker, so the
// document and the generator cannot disagree about the block set.
func Splice(doc string, blocks map[string]string) (string, error) {
	names := make([]string, 0, len(blocks))
	for name := range blocks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		begin := beginMarker + name + " -->"
		end := "<!-- paperbench:end " + name + " -->"
		bi := strings.Index(doc, begin)
		ei := strings.Index(doc, end)
		if bi < 0 || ei < 0 {
			return "", fmt.Errorf("bench: document is missing the %q marker block", name)
		}
		if ei < bi {
			return "", fmt.Errorf("bench: %q end marker precedes its begin marker", name)
		}
		doc = doc[:bi+len(begin)] + "\n" + blocks[name] + doc[ei:]
	}
	if n := strings.Count(doc, beginMarker); n != len(blocks) {
		return "", fmt.Errorf("bench: document has %d marker blocks, the generator produces %d", n, len(blocks))
	}
	return doc, nil
}

// mdTable builds the markdown tables of every generated block and of
// `paper -table N`.
type mdTable struct{ strings.Builder }

// header writes the column names and the alignment row: align gives the
// first columns' alignments, 'l' or 'r', and later columns align right.
func (t *mdTable) header(align string, cols ...any) {
	t.row(cols...)
	t.WriteByte('|')
	for i := range cols {
		if i < len(align) && align[i] == 'l' {
			t.WriteString("---|")
		} else {
			t.WriteString("---:|")
		}
	}
	t.WriteByte('\n')
}

// row writes one table row, each cell formatted with %v.
func (t *mdTable) row(cells ...any) {
	t.WriteByte('|')
	for _, c := range cells {
		fmt.Fprintf(t, " %v |", c)
	}
	t.WriteByte('\n')
}

// bold renders a totals-row cell.
func bold(v int) string { return fmt.Sprintf("**%d**", v) }
