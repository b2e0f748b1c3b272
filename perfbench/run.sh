#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload serve|exact|synth --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The build, the Go caches, temporary
# files and the run state stay under $CARGO_TARGET_DIR (default
# .bench_build), so a run writes nothing outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod || ! -d internal ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 1
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/home"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local PERFBENCH_STATE="$build/perfbench-state"
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
