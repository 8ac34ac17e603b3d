#!/usr/bin/env bash
# Run `cargo test ARGS -- FILTERS...` and fail unless every filter matched a
# test that ran.
#
# `cargo test <filter>` succeeds when the filter matches nothing, so a CI step
# that names tests keeps passing, having run none of them, once a test is
# renamed or deleted. This wrapper reads libtest's `test <name> ... <result>`
# lines and requires, for each filter, one test that ran (was not ignored)
# whose name contains it (libtest's own substring match); a test that ran
# and failed already fails `cargo test`. Arguments after `--` that start with
# `-` are passed to libtest and not checked.
#
# Usage: ci/expect-tests.sh [cargo test args...] -- FILTER...
# Do not pass `-q`: it makes libtest print dots instead of test names.
set -euo pipefail

cargo_args=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  cargo_args+=("$1")
  shift
done
if [ $# -lt 2 ]; then
  echo "usage: $0 [cargo test args...] -- FILTER..." >&2
  exit 2
fi
shift

log=$(mktemp)
trap 'rm -f "$log"' EXIT
cargo test "${cargo_args[@]}" -- "$@" 2>&1 | tee "$log"

ran=$(grep -v ' \.\.\. ignored' "$log" | sed -n 's/^test \([^ ]*\) \.\.\. .*/\1/p')
missing=0
for filter in "$@"; do
  case "$filter" in -*) continue ;; esac
  if ! grep -qF -- "$filter" <<<"$ran"; then
    echo "expect-tests: no test matching '$filter' ran" >&2
    missing=1
  fi
done
exit "$missing"
