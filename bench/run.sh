#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given: the build cache, the linker's scratch files and
# the binary all live under .bench_build/ at the checkout's root, and
# the go command's per-user files (telemetry counters, go/env) are
# pointed there too, so nothing is written outside the checkout.
#
#   bash bench/run.sh --workload winsys --seed 1 --seconds 20 --trace 0
#
# Equivalent, with Go's default cache: go run -C bench . <arguments>
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOWORK=off XDG_CONFIG_HOME="$build/config"
go build -C "$root/bench" -o "$build/sunosmt-bench" .
exec "$build/sunosmt-bench" "$@"
