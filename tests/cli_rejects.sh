#!/usr/bin/env bash
# CLI input-rejection check: runs the CLI with the given flags and passes
# only if it exits 1 (not 0, and not a crash) with an `error: <message>`
# line on stderr.
#
# Usage: cli_rejects.sh <cli-binary> <expected-error-message> [cli args...]
set -uo pipefail

cli="$1"
expected="$2"
shift 2

stderr="$(mktemp)"
trap 'rm -f "$stderr"' EXIT

"$cli" "$@" > /dev/null 2> "$stderr"
status=$?
if [[ $status -ne 1 ]]; then
  echo "expected exit 1, got $status" >&2
  cat "$stderr" >&2
  exit 1
fi
grep -qxF "error: $expected" "$stderr" || {
  echo "stderr lacks 'error: $expected':" >&2
  cat "$stderr" >&2
  exit 1
}
