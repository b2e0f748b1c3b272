package main

import (
	"strings"
	"testing"
)

func mustTol(t *testing.T, mode string) tolerances {
	t.Helper()
	tol, err := modeTolerances(mode, 0.35, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	return tol
}

var baseline = []record{
	{Name: "BenchmarkUnateCoverKernel-1", Package: "repro/internal/cover", NsPerOp: 4.0e6, BytesPerOp: 0, AllocsPerOp: 0},
	{Name: "BenchmarkHeuristicEncodeKernel-1", Package: "repro/internal/heuristic", NsPerOp: 2.1e5, BytesPerOp: 56000, AllocsPerOp: 890},
	{Name: "BenchmarkIntersectInto/words=64-1", Package: "repro/internal/bitset", NsPerOp: 45, BytesPerOp: -1, AllocsPerOp: -1},
}

func TestGatePassesOnIdenticalRun(t *testing.T) {
	for _, mode := range []string{"strict", "smoke"} {
		if v := diff(baseline, baseline, mustTol(t, mode)); len(v) != 0 {
			t.Errorf("mode %s: identical runs produced violations: %v", mode, v)
		}
	}
}

// TestGateFailsOnInjectedAllocRegression is the acceptance demonstration:
// take the committed snapshot shape, bump one benchmark's allocs/op, and
// the gate must fail in both modes.
func TestGateFailsOnInjectedAllocRegression(t *testing.T) {
	current := append([]record(nil), baseline...)
	current[0].AllocsPerOp = 646 // the pre-optimization number, reinjected

	for _, mode := range []string{"strict", "smoke"} {
		v := diff(baseline, current, mustTol(t, mode))
		if len(v) != 1 {
			t.Fatalf("mode %s: want exactly 1 violation, got %v", mode, v)
		}
		if !strings.Contains(v[0], "UnateCoverKernel") || !strings.Contains(v[0], "allocs/op") {
			t.Errorf("mode %s: violation does not name the regressed metric: %q", mode, v[0])
		}
	}
}

func TestStrictRequiresExactAllocs(t *testing.T) {
	current := append([]record(nil), baseline...)
	current[1].AllocsPerOp = 892 // +2: inside smoke slack, outside strict

	if v := diff(baseline, current, mustTol(t, "strict")); len(v) != 1 {
		t.Errorf("strict: +2 allocs must fail exact match, got %v", v)
	}
	if v := diff(baseline, current, mustTol(t, "smoke")); len(v) != 0 {
		t.Errorf("smoke: +2 allocs is inside the warm-up slack, got %v", v)
	}
}

// TestSmokeFailsOnStaleSnapshot: a row that allocates well below its
// snapshot figure fails the smoke gate, with a message naming the refresh
// command, since a later regression back up to the stale figure would pass
// inside the band. A drop inside the band still passes.
func TestSmokeFailsOnStaleSnapshot(t *testing.T) {
	current := append([]record(nil), baseline...)
	current[1].AllocsPerOp = 416 // a real drop the snapshot never recorded

	v := diff(baseline, current, mustTol(t, "smoke"))
	if len(v) != 1 {
		t.Fatalf("smoke: want exactly 1 violation, got %v", v)
	}
	if !strings.Contains(v[0], "HeuristicEncodeKernel") || !strings.Contains(v[0], "make bench-json") {
		t.Errorf("smoke: violation must name the row and the refresh command: %q", v[0])
	}

	current[1].AllocsPerOp = 865 // 890·0.98 − 8 = 864.2: inside the band
	if v := diff(baseline, current, mustTol(t, "smoke")); len(v) != 0 {
		t.Errorf("smoke: a drop inside the band must pass, got %v", v)
	}
}

func TestSmokeIgnoresTiming(t *testing.T) {
	current := append([]record(nil), baseline...)
	current[0].NsPerOp *= 10

	if v := diff(baseline, current, mustTol(t, "smoke")); len(v) != 0 {
		t.Errorf("smoke: timing must be ignored, got %v", v)
	}
	if v := diff(baseline, current, mustTol(t, "strict")); len(v) != 1 {
		t.Errorf("strict: 10x ns/op must exceed the noise band, got %v", v)
	}
}

func TestStrictNsNoiseBandAbsorbsJitter(t *testing.T) {
	current := append([]record(nil), baseline...)
	current[0].NsPerOp *= 1.2 // within the default 35% band

	if v := diff(baseline, current, mustTol(t, "strict")); len(v) != 0 {
		t.Errorf("strict: 20%% jitter is inside the noise band, got %v", v)
	}
}

func TestGateFailsOnMissingBenchmark(t *testing.T) {
	current := baseline[:2] // bitset benchmark dropped
	for _, mode := range []string{"strict", "smoke"} {
		v := diff(baseline, current, mustTol(t, mode))
		if len(v) != 1 || !strings.Contains(v[0], "missing") {
			t.Errorf("mode %s: dropped benchmark must fail the gate, got %v", mode, v)
		}
	}
}

func TestGateFailsWhenCurrentLacksBenchmem(t *testing.T) {
	current := append([]record(nil), baseline...)
	current[1].AllocsPerOp = -1
	current[1].BytesPerOp = -1

	v := diff(baseline, current, mustTol(t, "smoke"))
	if len(v) != 1 || !strings.Contains(v[0], "-benchmem") {
		t.Errorf("run without -benchmem must fail against a measured baseline, got %v", v)
	}
}

func TestUnmeasuredBaselineMetricsAreSkipped(t *testing.T) {
	// The bitset record has allocs/op = -1 in the baseline; whatever the
	// current run reports cannot regress an unmeasured metric.
	current := append([]record(nil), baseline...)
	current[2].AllocsPerOp = 999
	current[2].BytesPerOp = 1 << 20

	if v := diff(baseline, current, mustTol(t, "strict")); len(v) != 0 {
		t.Errorf("unmeasured baseline metrics must not gate, got %v", v)
	}
}

func TestNewBenchmarksNeverFail(t *testing.T) {
	current := append([]record(nil), baseline...)
	current = append(current, record{Name: "BenchmarkNewKernel-1", Package: "repro/internal/new", NsPerOp: 1, AllocsPerOp: 5})

	if v := diff(baseline, current, mustTol(t, "strict")); len(v) != 0 {
		t.Errorf("added coverage is not a regression, got %v", v)
	}
	got := added(baseline, current)
	if len(got) != 1 || got[0] != "repro/internal/new.BenchmarkNewKernel-1" {
		t.Errorf("added = %v, want the new kernel listed", got)
	}
}

func TestPackageDisambiguatesName(t *testing.T) {
	// Same benchmark name in two packages: only the matching package's
	// record may satisfy the baseline entry.
	base := []record{{Name: "BenchmarkKernel-1", Package: "repro/a", AllocsPerOp: 1, NsPerOp: 10, BytesPerOp: 8}}
	current := []record{{Name: "BenchmarkKernel-1", Package: "repro/b", AllocsPerOp: 1, NsPerOp: 10, BytesPerOp: 8}}
	v := diff(base, current, mustTol(t, "smoke"))
	if len(v) != 1 || !strings.Contains(v[0], "missing") {
		t.Errorf("same name in a different package must not satisfy the baseline, got %v", v)
	}
}

func TestModeTolerancesRejectsUnknownMode(t *testing.T) {
	if _, err := modeTolerances("lenient", 0.35, 0.15); err == nil {
		t.Error("unknown mode must be rejected")
	}
}
