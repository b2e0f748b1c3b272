// Command benchdiff gates performance regressions: it compares a fresh
// benchjson run against the committed snapshot and exits non-zero when a
// kernel benchmark got worse.
//
//	go test -run '^$' -bench Kernel -benchmem ./... | benchjson |
//	    benchdiff -baseline <snapshot> -current - -mode smoke
//
// where <snapshot> is the committed file the Makefile's BENCH_SNAPSHOT
// names (`make bench-gate` runs exactly this pipeline).
//
// Two modes share one rule — every baseline benchmark must be present in
// the current run (a silently dropped metric is itself a regression) — and
// differ in what they check on the numbers:
//
//   - strict: allocs/op must match the snapshot exactly (the kernels are
//     deterministic, so steady-state allocation counts are bit-stable at
//     full benchtime), B/op within -bytes-tol, ns/op within -ns-tol. For
//     release runs against a full `make bench-json` measurement.
//   - smoke: allocs/op within a small band on either side (2% plus an
//     absolute slack of 8, absorbing the first-iteration warm-up that short
//     -benchtime runs amortize poorly), timing ignored entirely — CI
//     machines are too noisy for ns/op at -benchtime=20x to mean anything.
//     A row below the band fails too, as a stale snapshot: the band is
//     measured from the snapshot, so a regression back up to an old,
//     higher figure would pass it; `make bench-json` refreshes the file.
//     Cheap enough for every `make ci`.
//
// Benchmarks present only in the current run are reported but never fail
// the gate: adding coverage is not a regression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// record mirrors cmd/benchjson's output shape.
type record struct {
	Name        string  `json:"name"`
	Package     string  `json:"package"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// key identifies a benchmark across runs: packages can reuse benchmark
// names, so the pair is the identity.
func (r record) key() string { return r.Package + "." + r.Name }

// tolerances bundles the per-metric bands of one gate mode.
type tolerances struct {
	allocsExact bool    // strict: allocs/op must match bit for bit
	allocsFrac  float64 // smoke: fractional allocs/op band, either side
	allocsSlack float64 // smoke: absolute allocs/op slack (first-iteration warm-up)
	nsFrac      float64 // <0: ignore timing
	bytesFrac   float64 // <0: ignore bytes
}

func modeTolerances(mode string, nsTol, bytesTol float64) (tolerances, error) {
	switch mode {
	case "strict":
		return tolerances{allocsExact: true, nsFrac: nsTol, bytesFrac: bytesTol}, nil
	case "smoke":
		return tolerances{allocsFrac: 0.02, allocsSlack: 8, nsFrac: -1, bytesFrac: -1}, nil
	default:
		return tolerances{}, fmt.Errorf("unknown mode %q (want strict or smoke)", mode)
	}
}

// diff returns one violation message per regression of current against
// baseline under the given tolerances. An empty slice means the gate
// passes.
func diff(baseline, current []record, tol tolerances) []string {
	cur := make(map[string]record, len(current))
	for _, r := range current {
		cur[r.key()] = r
	}
	var violations []string
	for _, b := range baseline {
		c, ok := cur[b.key()]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: missing from current run (dropped benchmark?)", b.key()))
			continue
		}
		// allocs/op: a deterministic metric — the gate's backbone.
		switch {
		case b.AllocsPerOp < 0:
			// Baseline never measured allocations; nothing to hold the
			// current run to.
		case c.AllocsPerOp < 0:
			violations = append(violations, fmt.Sprintf("%s: baseline has allocs/op=%.0f but current run did not report allocations (-benchmem missing?)", b.key(), b.AllocsPerOp))
		case tol.allocsExact && c.AllocsPerOp != b.AllocsPerOp:
			violations = append(violations, fmt.Sprintf("%s: allocs/op %.0f, want exactly %.0f", b.key(), c.AllocsPerOp, b.AllocsPerOp))
		case !tol.allocsExact && c.AllocsPerOp > b.AllocsPerOp*(1+tol.allocsFrac)+tol.allocsSlack:
			violations = append(violations, fmt.Sprintf("%s: allocs/op %.0f exceeds %.0f (+%.0f%% +%.0f slack)", b.key(), c.AllocsPerOp, b.AllocsPerOp, tol.allocsFrac*100, tol.allocsSlack))
		case !tol.allocsExact && c.AllocsPerOp < b.AllocsPerOp*(1-tol.allocsFrac)-tol.allocsSlack:
			violations = append(violations, fmt.Sprintf("%s: allocs/op %.0f is below %.0f (-%.0f%% -%.0f slack): the snapshot is stale, refresh it with `make bench-json`", b.key(), c.AllocsPerOp, b.AllocsPerOp, tol.allocsFrac*100, tol.allocsSlack))
		}
		if tol.bytesFrac >= 0 && b.BytesPerOp >= 0 && c.BytesPerOp > b.BytesPerOp*(1+tol.bytesFrac) {
			violations = append(violations, fmt.Sprintf("%s: B/op %.0f exceeds %.0f (+%.0f%%)", b.key(), c.BytesPerOp, b.BytesPerOp, tol.bytesFrac*100))
		}
		if tol.nsFrac >= 0 && b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(1+tol.nsFrac) {
			violations = append(violations, fmt.Sprintf("%s: ns/op %.0f exceeds %.0f (+%.0f%% noise band)", b.key(), c.NsPerOp, b.NsPerOp, tol.nsFrac*100))
		}
	}
	return violations
}

// added lists current benchmarks absent from the baseline, informationally.
func added(baseline, current []record) []string {
	base := make(map[string]bool, len(baseline))
	for _, r := range baseline {
		base[r.key()] = true
	}
	var names []string
	for _, r := range current {
		if !base[r.key()] {
			names = append(names, r.key())
		}
	}
	return names
}

func load(path string) ([]record, error) {
	var rd io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		rd = f
	}
	var recs []record
	if err := json.NewDecoder(rd).Decode(&recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

func main() {
	baselinePath := flag.String("baseline", "", "committed benchjson snapshot (required)")
	currentPath := flag.String("current", "-", "fresh benchjson run, or - for stdin")
	mode := flag.String("mode", "strict", "gate mode: strict (allocs exact, ns band) or smoke (allocs band, ns ignored)")
	nsTol := flag.Float64("ns-tol", 0.35, "strict mode: fractional ns/op noise band")
	bytesTol := flag.Float64("bytes-tol", 0.15, "strict mode: fractional B/op band")
	flag.Parse()
	if *baselinePath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline is required")
		os.Exit(2)
	}
	tol, err := modeTolerances(*mode, *nsTol, *bytesTol)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	baseline, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	current, err := load(*currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	for _, name := range added(baseline, current) {
		fmt.Printf("benchdiff: new benchmark %s (not in baseline)\n", name)
	}
	violations := diff(baseline, current, tol)
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "benchdiff: FAIL:", v)
		}
		fmt.Fprintf(os.Stderr, "benchdiff: %d regression(s) against %s (mode %s)\n", len(violations), *baselinePath, *mode)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: %d benchmarks OK against %s (mode %s)\n", len(baseline), *baselinePath, *mode)
}
