#!/usr/bin/env bash
# Prints the line count of every crate's sources under crates/*/src.
#
#   ./scripts/loc.sh
#
# "lines" counts every line of every .rs file. "non-test" counts each
# file only up to its first unindented `#[cfg(test)]` line, so a trailing
# unit-test module is left out (an indented one, on an item inside the
# file, does not end the count). A crate's integration tests
# (crates/*/tests) are not under src and are not counted.
set -euo pipefail
cd "$(dirname "$0")/.."

printf '%-12s %8s %9s\n' crate lines non-test
total=0
total_code=0
for dir in crates/*/src; do
  crate="${dir#crates/}"
  crate="${crate%/src}"
  read -r lines code < <(
    find "$dir" -name '*.rs' -print0 | sort -z | xargs -0 awk '
      FNR == 1 { in_test = 0 }
      { lines++ }
      /^#\[cfg\(test\)\]/ { in_test = 1 }
      !in_test { code++ }
      END { print lines + 0, code + 0 }'
  )
  printf '%-12s %8d %9d\n' "$crate" "$lines" "$code"
  total=$((total + lines))
  total_code=$((total_code + code))
done
printf '%-12s %8d %9d\n' total "$total" "$total_code"
