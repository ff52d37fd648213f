#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout root: the Go build cache, the binary, and each run's tenant data
# (removed when the run ends). Rebuilding is a no-op when nothing changed.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
go build -C benchmark -o "$build/fdbenchmark" .
exec "$build/fdbenchmark" -datadir "$build/run-$$" "$@"
