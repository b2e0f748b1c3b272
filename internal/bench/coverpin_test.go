package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/mv"
	"repro/internal/par"
	"repro/internal/prime"
	"repro/internal/trace"
)

// table1Search is one Table-1 row's covering search as recorded before the
// covering layer's terminal level and indexed dominance passes: the
// cover.solve span's cost, optimality flag, node count and entry-test
// prunes, and a digest of the codes the solve returned.
type table1Search struct {
	name        string
	cost        int64
	optimal     bool
	nodes       int64
	entryPruned int64
	codes       string // first 16 hex digits of SHA-256 over Encoding.String()
}

// TestTable1CoverSearchPinned holds the exact flow's covering search on the
// six mid-size Table-1 rows to the tree it walked before the covering layer
// stopped building terminal children and ran dominance through the
// incidence index: both only skip work that cannot change a verdict, so the
// node and prune counts, the cost and the codes must not move. One worker
// keeps the budget-truncated rows reproducible.
func TestTable1CoverSearchPinned(t *testing.T) {
	want := []table1Search{
		{name: "master", cost: 8, optimal: true, nodes: 12, entryPruned: 2, codes: "cd4b17533a2055bf"},
		{name: "kirkman", cost: 10, optimal: true, nodes: 1300, entryPruned: 390, codes: "f2ebd26ecf51b9e8"},
		{name: "dk512", cost: 5, optimal: false, nodes: 200001, entryPruned: 199436, codes: "ac99b1e9880cc9e9"},
		{name: "s1a", cost: 8, optimal: false, nodes: 200001, entryPruned: 197738, codes: "2375c73afb523af3"},
		{name: "exlinp", cost: 12, optimal: false, nodes: 200001, entryPruned: 175390, codes: "37ac240b50122c7d"},
		{name: "cse", cost: 8, optimal: false, nodes: 200001, entryPruned: 192354, codes: "38985f05ec753df4"},
	}
	for _, tc := range want {
		t.Run(tc.name, func(t *testing.T) {
			var out mv.OutputOptions
			for _, cfg := range Table1Benchmarks {
				if cfg.Name == tc.name {
					out = cfg.Out
				}
			}
			m, err := fsm.GenerateByName(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			cs := mv.GenerateConstraints(m, out)
			ctx, rec := trace.Start(context.Background())
			res, err := core.ExactEncodeCtx(ctx, cs, core.ExactOptions{
				Parallelism: par.Workers(1),
				Prime:       prime.Options{Limit: 50000},
			})
			if err != nil {
				t.Fatal(err)
			}
			var got table1Search
			found := false
			for _, sp := range rec.Snapshot().Spans {
				if sp.Name != "cover.solve" {
					continue
				}
				found = true
				got.name = tc.name
				got.cost, _ = sp.Attr("cost")
				opt, _ := sp.Attr("optimal")
				got.optimal = opt != 0
				got.nodes, _ = sp.Attr("nodes")
				got.entryPruned, _ = sp.Attr("entry_pruned")
			}
			if !found {
				t.Fatal("no cover.solve span")
			}
			sum := sha256.Sum256([]byte(res.Encoding.String()))
			got.codes = hex.EncodeToString(sum[:8])
			if got != tc {
				t.Fatalf("got %+v, want %+v", got, tc)
			}
		})
	}
}
