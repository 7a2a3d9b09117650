#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the trace files all stay under
# .bench_build/ at the checkout root; nothing is written elsewhere.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
