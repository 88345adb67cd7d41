#!/usr/bin/env bash
# Runs the `perf` harness pinned to one CPU when `taskset` exists.
#
#   ./scripts/perf-pinned.sh [OUTPUT.json]   # default results/BENCH_map.json
#
# The small gated `kernel_cached.fn_tier` rows are bimodal across the
# vCPUs of the 2-vCPU reference host (about 1.8x slower on one than on
# the other), so an unpinned run can land in a different mode than the
# snapshot it is compared with. `scripts/ci.sh` and snapshot
# regeneration both run the harness through this script.
set -euo pipefail
cd "$(dirname "$0")/.."

run=(cargo run -q --release -p chortle-bench --bin perf -- "$@")
if command -v taskset > /dev/null; then
  # The first CPU this process may run on ("0-1" or "2,5" -> 0 or 2).
  cpu="$(taskset -pc $$ | sed 's/.*: *//; s/[-,].*//')"
  exec taskset -c "$cpu" "${run[@]}"
fi
exec "${run[@]}"
