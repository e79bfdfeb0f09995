#!/bin/sh
# Normalise the output of `dune runtest` for comparison across runs.
#
#   scripts/normalize.sh FILE
#
# Drops what legitimately changes between runs of the same tree:
# alcotest run IDs, wall-clock timings, `_build` result paths and the
# qcheck random seed.  Dune runs test actions in parallel and interleaves
# their output in completion order, so the remaining lines are printed
# sorted, to be compared as a multiset.
set -u

[ $# -eq 1 ] || { echo "usage: $0 FILE" >&2; exit 2; }

grep -v -e 'This run has ID' -e '^qcheck random seed:' -e '_build' "$1" |
  sed -e 's/ in [0-9][0-9.]*s\././' |
  LC_ALL=C sort
