#!/usr/bin/env bash
# Compare two benchmark snapshots (BENCH_map.json or BENCH_serve.json)
# and fail when a guarded metric regresses beyond the threshold.
#
#   ./scripts/bench-diff.sh BASELINE.json CURRENT.json [THRESHOLD_PCT]
#
# Typical flow: copy the committed snapshot aside, regenerate it, diff:
#
#   cp results/BENCH_map.json /tmp/base.json
#   ./scripts/perf-pinned.sh
#   ./scripts/bench-diff.sh /tmp/base.json results/BENCH_map.json 25
#
# Exit codes: 0 = no guarded regression, 1 = regression or usage error.
set -euo pipefail
cd "$(dirname "$0")/.."

baseline="${1:?usage: bench-diff.sh BASELINE.json CURRENT.json [THRESHOLD_PCT]}"
current="${2:?usage: bench-diff.sh BASELINE.json CURRENT.json [THRESHOLD_PCT]}"
threshold="${3:-25}"

exec cargo run -q --release -p chortle-bench --bin bench-diff -- \
    "$baseline" "$current" --threshold "$threshold"
