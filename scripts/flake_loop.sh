#!/bin/sh
# Flake loop: run `dune runtest --force` N times and compare every run's
# output with the first one.
#
#   scripts/flake_loop.sh N
#
# The simulator is deterministic, so any difference is a finding.  Before
# comparing, each output goes through scripts/normalize.sh, which drops
# what legitimately changes between runs and sorts the rest.  Exits 0
# when every run matches the first, 1 on any other difference (printing
# it) or a failing run, 2 on bad usage.
set -u

n=${1:-}
case "$n" in
  '' | *[!0-9]*) echo "usage: $0 N" >&2; exit 2 ;;
esac
[ "$n" -ge 2 ] || { echo "$0: N must be at least 2" >&2; exit 2; }

cd "$(dirname "$0")/.." || exit 2
work=$(mktemp -d) || exit 2
trap 'rm -rf "$work"' EXIT

status=0
i=1
while [ "$i" -le "$n" ]; do
  if ! dune runtest --force >"$work/raw.$i" 2>&1; then
    echo "run $i: dune runtest failed" >&2
    status=1
  fi
  sh scripts/normalize.sh "$work/raw.$i" >"$work/norm.$i"
  if [ "$i" -gt 1 ]; then
    if diff "$work/norm.1" "$work/norm.$i" >"$work/diff.$i"; then
      echo "run $i: identical to run 1"
    else
      echo "run $i: differs from run 1:"
      cat "$work/diff.$i"
      status=1
    fi
  fi
  i=$((i + 1))
done
[ "$status" -eq 0 ] && echo "flake loop: $n runs, no divergence"
exit "$status"
