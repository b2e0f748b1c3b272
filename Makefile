GO ?= go

# The checked-in kernel benchmark snapshot that bench-json writes and
# bench-gate diffs against. Override to measure into (or gate against) a
# different file: `make bench-json BENCH_SNAPSHOT=BENCH_LOCAL.json`.
#
# bench-json, bench-gate and bench-gate-strict all measure at -cpu 1: the
# *ParallelKernel/large rows allocate per worker, so their allocs/op grow
# with GOMAXPROCS, and the snapshot holds the one-CPU figures. Pinning the
# CPU count compares like with like on any machine.
BENCH_SNAPSHOT ?= BENCH.json

.PHONY: all build fmt-check vet staticcheck test race test-server test-diff test-sat cover-sat difftest fuzz serve trace-demo bench-smoke bench bench-json bench-json-smoke bench-gate bench-gate-strict paper-tables paper-tables-check perfbench-test ci

all: build

build:
	$(GO) build ./...

# Fail when any Go file in the tree, perfbench/ included, is not gofmt
# clean, naming the offenders.
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "fmt-check: gofmt -l lists:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Run staticcheck when the binary is on PATH; skip with a notice otherwise.
# The tool is optional — CI images without it still pass `make ci` — and we
# deliberately do not install it here (builds must not reach the network).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (go vet still ran)"; \
	fi

test:
	$(GO) test ./...

# No -timeout override: under the detector on a 2-CPU machine the slowest
# packages, the root package (~100 s) and internal/bench (~95 s), stay
# well inside go test's default 10-minute cap.
race:
	$(GO) test -race ./...

# The encoding service, job store and public client under the race
# detector: the coalescing, backpressure, batch/async-job and
# graceful-shutdown tests are concurrency tests first and foremost, and
# the client suite ends with an end-to-end batch+async smoke against a
# live server instance.
test-server:
	$(GO) test -race -count=1 ./internal/server/ ./internal/jobs/ ./encodingapi/

# A small randomized differential sweep under the race detector: every
# solver family on generated instances, cross-checked against the invariant
# matrix (internal/diffcheck). DIFFTEST_SEEDS keeps the CI run cheap; the
# full sweep is `make difftest`.
test-diff:
	DIFFTEST_SEEDS=8 $(GO) test -race -run TestDifferentialRandomized -count=1 .

# The embedded SAT solver and CNF compiler under the race detector: the
# DPLL kernel is single-threaded by design, but its callers (the exact
# pipeline, diffcheck) drive it from parallel solves.
test-sat:
	$(GO) test -race -count=1 ./internal/sat/

# Coverage floor for the SAT backend: the solver is trusted with
# minimality proofs, so untested branches are not acceptable drift. The
# floor sits below the current figure (~92%) to absorb cosmetic churn
# while still catching a dropped test file or a dead feature flag.
cover-sat:
	@pct=$$($(GO) test -cover ./internal/sat/ | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
	if [ -z "$$pct" ]; then echo "cover-sat: no coverage figure parsed"; exit 1; fi; \
	awk -v p="$$pct" 'BEGIN { if (p+0 < 85) { printf "cover-sat: internal/sat coverage %.1f%% is below the 85%% floor\n", p; exit 1 } printf "cover-sat: internal/sat coverage %.1f%% (floor 85%%)\n", p }'

# The full differential sweep: 500 seeds per family, shrunk reproducers on
# any invariant violation.
difftest:
	$(GO) run ./cmd/difftest -seeds 500 -j 4

# Each native fuzz target for 30 seconds from its committed seed corpus.
fuzz:
	$(GO) test ./internal/diffcheck/ -run '^FuzzEncode$$' -fuzz '^FuzzEncode$$' -fuzztime 30s
	$(GO) test ./internal/diffcheck/ -run '^FuzzParseKISS$$' -fuzz '^FuzzParseKISS$$' -fuzztime 30s
	$(GO) test ./internal/diffcheck/ -run '^FuzzVerify$$' -fuzz '^FuzzVerify$$' -fuzztime 30s
	$(GO) test ./internal/diffcheck/ -run '^FuzzDecompose$$' -fuzz '^FuzzDecompose$$' -fuzztime 30s
	$(GO) test ./internal/diffcheck/ -run '^FuzzSATEncode$$' -fuzz '^FuzzSATEncode$$' -fuzztime 30s
	$(GO) test ./internal/espresso/ -run '^FuzzMintermMinimize$$' -fuzz '^FuzzMintermMinimize$$' -fuzztime 30s
	$(GO) test ./internal/dichotomy/ -run '^FuzzRaise$$' -fuzz '^FuzzRaise$$' -fuzztime 30s
	$(GO) test ./internal/server/ -run '^FuzzServe$$' -fuzz '^FuzzServe$$' -fuzztime 30s

# Run the encoding service locally (POST /v1/encode, GET /v1/stats).
serve:
	$(GO) run ./cmd/served -addr :8080

# Solve a small constraint set with per-stage tracing on: a quick look at
# what the -trace flag (and the service's /v1/trace endpoint) reports.
trace-demo:
	printf 'face a b\nface b c\ndom a > d\n' | $(GO) run ./cmd/encode -trace

# One iteration of the figure and parallel-engine benchmarks: enough to
# prove the benchmark harness itself still runs, cheap enough for CI.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Figure|Parallel' -benchtime=1x .

# The full evaluation: every table and figure plus the micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem .

# Allocation-tracking harness: run the hot-path kernel benchmarks across all
# packages and record ns/op, B/op and allocs/op as JSON into the checked-in
# snapshot ($(BENCH_SNAPSHOT)) the README's before/after table cites.
bench-json:
	$(GO) test -run '^$$' -bench 'Kernel' -benchmem -cpu 1 ./... | $(GO) run ./cmd/benchjson > $(BENCH_SNAPSHOT)

# One iteration of each kernel benchmark through the JSON pipeline: proves
# harness and parser still work without paying for a full measurement.
bench-json-smoke:
	$(GO) test -run '^$$' -bench 'Kernel' -benchtime=1x -benchmem ./... | $(GO) run ./cmd/benchjson > /dev/null

# Perf gate, CI flavor: a cheap 20-iteration kernel run diffed against the
# committed snapshot in smoke mode — allocs/op inside a small warm-up band,
# timing ignored (CI machines are too noisy for ns/op at -benchtime=20x).
# Fails when a kernel's allocation count regresses or a benchmark vanishes,
# and when a row allocates below its band: the snapshot is then stale, and
# `make bench-json` refreshes it.
bench-gate:
	$(GO) test -run '^$$' -bench 'Kernel' -benchtime=20x -benchmem -cpu 1 ./... | \
		$(GO) run ./cmd/benchjson | \
		$(GO) run ./cmd/benchdiff -baseline $(BENCH_SNAPSHOT) -current - -mode smoke

# Perf gate, release flavor: a full-benchtime measurement diffed in strict
# mode — allocs/op must match the snapshot exactly, ns/op within the noise
# band. Run before cutting a release or refreshing $(BENCH_SNAPSHOT).
bench-gate-strict:
	$(GO) test -run '^$$' -bench 'Kernel' -benchmem -cpu 1 ./... | \
		$(GO) run ./cmd/benchjson | \
		$(GO) run ./cmd/benchdiff -baseline $(BENCH_SNAPSHOT) -current - -mode strict

# Regenerate the corpus comparison tables embedded in EXPERIMENTS.md: the
# full pipeline over testdata/corpus for every strategy. Deterministic, so
# the result is byte-identical across runs and machines.
paper-tables:
	$(GO) run ./cmd/paperbench -write

# Fail when EXPERIMENTS.md's generated blocks are stale relative to the
# code and corpus. Part of `make ci`.
paper-tables-check:
	$(GO) run ./cmd/paperbench -check

# The end-to-end benchmark (perfbench/) is its own module, so `go test
# ./...` from the root never reaches its tests: vet and test it here.
perfbench-test:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# bench-gate subsumes bench-json-smoke: it runs the same pipeline and then
# holds the result against the committed snapshot.
ci: fmt-check vet staticcheck build race test-server test-diff test-sat cover-sat bench-smoke bench-gate paper-tables-check perfbench-test
