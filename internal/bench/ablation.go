package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/cost"
	"repro/internal/dichotomy"
	"repro/internal/fsm"
	"repro/internal/hypercube"
	"repro/internal/mv"
	"repro/internal/prime"
)

// Ablation runs the two design-choice comparisons DESIGN.md calls out and
// renders a textual report:
//
//  1. prime-generation engines — the paper's Figure-2 cs/ps recursion vs
//     Bron–Kerbosch maximal-clique enumeration (identical outputs, very
//     different scaling);
//  2. cost evaluation — direct per-move re-minimization (as MIS-MV's
//     annealer did) vs the role-multiset memo cache, under an
//     annealing-style swap workload.
func Ablation() (string, error) {
	var b strings.Builder

	b.WriteString("Ablation 1: prime-generation engines (identical outputs)\n")
	fmt.Fprintf(&b, "%-9s %7s %9s %12s %12s %8s\n",
		"bench", "seeds", "primes", "BronKerbosch", "cs/ps", "ratio")
	for _, name := range []string{"kirkman", "master", "dk512", "bbsse"} {
		m, err := fsm.GenerateByName(name)
		if err != nil {
			return "", err
		}
		cfg := mv.OutputOptions{MaxDominance: 20, MaxDisjunctive: 3}
		cs := mv.GenerateConstraints(m, cfg)
		seeds := dichotomy.ValidRaised(dichotomy.Initial(cs), cs)

		t0 := time.Now()
		bk, err := prime.GenerateCtx(context.Background(), seeds, prime.Options{Engine: prime.BronKerbosch})
		if err != nil {
			return "", err
		}
		tBK := time.Since(t0)

		t0 = time.Now()
		cp, err := prime.GenerateCtx(context.Background(), seeds, prime.Options{Engine: prime.CSPS})
		if err != nil {
			return "", err
		}
		tCP := time.Since(t0)
		if len(bk) != len(cp) {
			return "", fmt.Errorf("bench: engines disagree on %s: %d vs %d", name, len(bk), len(cp))
		}
		ratio := float64(tCP) / float64(tBK)
		fmt.Fprintf(&b, "%-9s %7d %9d %12s %12s %7.1fx\n",
			name, len(seeds), len(bk), tBK.Round(time.Millisecond), tCP.Round(time.Millisecond), ratio)
	}

	b.WriteString("\nAblation 2: cost evaluation under an annealing swap workload\n")
	fmt.Fprintf(&b, "%-9s %8s %12s %12s %8s %10s\n",
		"bench", "swaps", "direct", "cached", "speedup", "hit rate")
	for _, name := range []string{"dk512", "master", "bbsse"} {
		m, err := fsm.GenerateByName(name)
		if err != nil {
			return "", err
		}
		cs := mv.InputConstraintsDC(m)
		n := cs.N()
		bits := hypercube.MinBits(n)
		codes := make([]hypercube.Code, n)
		for i := range codes {
			codes[i] = hypercube.Code(i)
		}
		const swaps = 300

		run := func(cached bool) (time.Duration, float64) {
			local := append([]hypercube.Code(nil), codes...)
			ev := cost.NewEvaluator(cs)
			t0 := time.Now()
			for i := 0; i < swaps; i++ {
				x, y := i%n, (i*7+1)%n
				local[x], local[y] = local[y], local[x]
				a := cost.FullAssignment(bits, local)
				if cached {
					ev.Of(cost.Literals, a)
				} else {
					cost.Of(cost.Literals, cs, a)
				}
			}
			rate := 0.0
			if ev.Hits+ev.Misses > 0 {
				rate = float64(ev.Hits) / float64(ev.Hits+ev.Misses)
			}
			return time.Since(t0), rate
		}
		tDirect, _ := run(false)
		tCached, hitRate := run(true)
		fmt.Fprintf(&b, "%-9s %8d %12s %12s %7.1fx %9.0f%%\n",
			name, swaps, tDirect.Round(time.Millisecond), tCached.Round(time.Millisecond),
			float64(tDirect)/float64(tCached), hitRate*100)
	}
	b.WriteString("\nThe Table-3 annealer runs uncached by design (MIS-MV re-minimized\nevery move); see EXPERIMENTS.md.\n")
	return b.String(), nil
}
