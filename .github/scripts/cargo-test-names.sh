#!/usr/bin/env bash
# Runs `cargo test <cargo args> -- <names>` and fails when a listed
# name matches no test. Cargo treats each name as a substring filter
# and passes when a filter matches nothing, so a renamed or deleted
# test would otherwise drop out of a name-filtered step silently.
#
# Usage: cargo-test-names.sh <cargo test args...> -- <test names...>
set -euo pipefail

args=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  args+=("$1")
  shift
done
if [ $# -lt 2 ]; then
  echo "usage: $0 <cargo test args...> -- <test names...>" >&2
  exit 2
fi
shift

# `--list` prints one `<path>: test` line per test of every target.
listed=$(cargo test "${args[@]}" -- --list | sed -n 's/: test$//p')
missing=0
for name in "$@"; do
  if ! grep -qF -- "$name" <<<"$listed"; then
    echo "error: no test matches \`$name\`" >&2
    missing=1
  fi
done
if [ "$missing" -ne 0 ]; then
  exit 1
fi
cargo test "${args[@]}" -- "$@"
