package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef names one metric with its unit and direction. BENCHMARK.json
// lists the same metrics; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees. Every workload
// measures every one; README.md says what each means per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"geomean_ms", "ms", "lower"},
	{"bits_total", "bits", "lower"},
	{"optimal_count", "count", "higher"},
}

// perLayer are the traced run's metrics of single layers. A workload that
// does not cross a layer reports 0 for it.
var perLayer = []metricDef{
	// serve
	{"serve.hit_p50_ms", "ms", "lower"},
	{"serve.miss_p50_ms", "ms", "lower"},
	{"server.overhead_ms", "ms", "lower"},
	{"http.client_ms", "ms", "lower"},
	{"constraint.parse_us", "us", "lower"},
	{"core.canonical_hash_us", "us", "lower"},
	{"core.verify_us", "us", "lower"},
	{"server.queue_p99_ms", "ms", "lower"},
	{"server.solve_ms", "ms", "lower"},
	{"cover.solve_ms", "ms", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.component_hit_ratio", "ratio", "higher"},
	{"server.batch_dedup_ratio", "ratio", "higher"},
	{"server.shed", "count", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	// exact
	{"exact.bb_wall_s", "s", "lower"},
	{"exact.sat_wall_s", "s", "lower"},
	{"mv.constraints_s", "s", "lower"},
	{"core.seeds_s", "s", "lower"},
	{"prime.generate_s", "s", "lower"},
	{"prime.primes", "count", "lower"},
	{"core.candidates_s", "s", "lower"},
	{"core.matrix_s", "s", "lower"},
	{"core.matrix_cells", "count", "lower"},
	{"cover.solve_s", "s", "lower"},
	{"cover.nodes", "count", "lower"},
	{"cover.ns_per_node", "ns", "lower"},
	{"sat.solve_s", "s", "lower"},
	{"sat.budget_hits", "count", "lower"},
	// synth
	{"synth.pipeline_wall_s", "s", "lower"},
	{"synth.pipeline_geomean_ms", "ms", "lower"},
	{"synth.table3_wall_s", "s", "lower"},
	{"synth.cubes_total", "count", "lower"},
	{"synth.literals_total", "count", "lower"},
	{"mv.symbolic_s", "s", "lower"},
	{"core.exact_s", "s", "lower"},
	{"heuristic.encode_s", "s", "lower"},
	{"heuristic.restarts_s", "s", "lower"},
	{"heuristic.polish_s", "s", "lower"},
	{"anneal.encode_s", "s", "lower"},
	{"nova.encode_s", "s", "lower"},
	{"fsm.encode_s", "s", "lower"},
	{"espresso.minimize_s", "s", "lower"},
	{"espresso.raw_cubes", "count", "lower"},
	{"blif.emit_s", "s", "lower"},
	{"blif.parse_s", "s", "lower"},
	{"sim.replay_s", "s", "lower"},
	// every workload
	{"latency.p50_ms", "ms", "lower"},
	{"latency.tail_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.unattributed_pct", "%", "lower"},
}

// maxUnattributedPct is the tolerance within which a traced operation's
// layer self-times must add up to the operation's own time: the part of
// the operation no layer span covers may be at most this share of it.
const maxUnattributedPct = 5.0

// stateDir holds what a run leaves behind: the traced run's spans and the
// determinism record. run.sh points it into its build directory.
func stateDir() string {
	if d := os.Getenv("PERFBENCH_STATE"); d != "" {
		return d
	}
	return filepath.Join(".bench_build", "perfbench-state")
}

// machineStamp records where a result was measured.
func machineStamp() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q source=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), sourceDigest())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

var digest string

// sourceDigest identifies the commit being measured by hashing the Go
// sources, go.mod files and corpus under the working directory; the
// checkout the benchmark runs in is not a git repository, so there is no
// commit id to read.
func sourceDigest() string {
	if digest != "" {
		return digest
	}
	h := sha256.New()
	var paths []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry just does not enter the digest
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "go.mod") ||
			strings.HasPrefix(p, filepath.Join("testdata", "corpus"))) {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
		h.Write(b)
	}
	digest = hex.EncodeToString(h.Sum(nil))[:16]
	return digest
}

// guardDeterminism compares the run's deterministic values with those an
// earlier run of the same sources, workload and seed recorded, and records
// them for later runs. Values only one run mode measures are compared only
// when both runs have them. A difference is returned as an error: timing
// noise must not hide a change in behaviour.
func guardDeterminism(workload string, cfg runConfig, out *outcome) error {
	path := filepath.Join(stateDir(), "determinism.json")
	record := map[string]map[string]float64{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &record); err != nil {
			return fmt.Errorf("determinism record %s is corrupt: %v", path, err)
		}
	}
	key := fmt.Sprintf("%s/%s/%d", sourceDigest(), workload, cfg.seed)
	prev := record[key]
	if prev == nil {
		prev = map[string]float64{}
	}
	var diffs []string
	for k, v := range out.determ {
		if old, ok := prev[k]; ok && old != v {
			diffs = append(diffs, fmt.Sprintf("%s=%g (earlier run: %g)", k, v, old))
		}
		prev[k] = v
	}
	record[key] = prev
	b, err := json.MarshalIndent(record, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(stateDir(), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		return fmt.Errorf("deterministic values changed between runs: %s", strings.Join(diffs, ", "))
	}
	return nil
}
