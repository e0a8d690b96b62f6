#!/usr/bin/env bash
# Counts non-test Rust lines: in every `.rs` file under `src/` and
# `crates/*/src`, the lines before the file's first `#[cfg(test)]`
# line (leading whitespace allowed). Prints one figure per source
# root and the total; CHANGES.md quotes these figures.
#
# Usage: nontest-lines.sh [repository root, default .]
set -euo pipefail

cd "${1:-.}"

total=0
for dir in src crates/*/src; do
  [ -d "$dir" ] || continue
  count=$(find "$dir" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests { n++ }
    END { print n + 0 }')
  printf '%-20s %7d\n' "$dir" "$count"
  total=$((total + count))
done
printf '%-20s %7d\n' total "$total"
