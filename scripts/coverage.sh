#!/bin/sh
# Execution coverage of lib/ and bin/: builds an instrumented copy of
# the working tree, runs it, and lists every point (function body,
# match/try/function arm, if branch) that no run executed.
#
# The copy goes to a temporary directory (set TMPDIR to move it).  Its
# lib/ and bin/ stanzas get (instrumentation (backend coverage)), the
# rewriter in scripts/coverage; the committed tree never names the
# backend.  The copy drops the two static gates: the deadcode gate reads
# the typed trees, which the rewriter changes, and the static gate
# refuses a dune file that names the backend.  Then, with every process
# dumping its counters at exit:
#
#   dune runtest                 (tier-1: tests, checkers, goldens)
#   rnet repro all
#   suite.exe --seconds 2 --trace 0, then --trace 1
#
# scripts/coverage/report.ml merges the dumps and fails on an unhit point
# that is neither exempt (it only raises) nor matched by its allow
# table, and on an allow entry that matches no unhit point.  It prints
# one line per such point or entry, then points, unhit, exempt and
# allowed per library.  Exit 0 when nothing is uncovered or stale.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/coverage.XXXXXX")
trap 'rm -rf "$work"' EXIT
copy=$work/tree
dumps=$work/dumps
mkdir -p "$copy" "$dumps"

tar -C "$root" --exclude=./_build --exclude=./.git -cf - . | tar -C "$copy" -xf -
cd "$copy"

for f in $(find lib bin -name dune); do
  awk '{ print }
       prev ~ /^\((library|executable)$/ && /^ \(name / { print " (instrumentation (backend coverage))" }
       { prev = $0 }' "$f" >"$f.new"
  mv "$f.new" "$f"
done
rm -r scripts/deadcode
echo 'exit 0' >scripts/static_gate.sh

dune build --display=quiet --instrument-with coverage 2>&1
COVERAGE_DIR=$dumps
export COVERAGE_DIR
dune runtest --display=quiet --instrument-with coverage >"$work/runtest.log" 2>&1 || {
  tail -40 "$work/runtest.log"
  echo "coverage: the instrumented tier-1 failed" >&2
  exit 1
}
./_build/default/bin/rnet.exe repro all >/dev/null
for t in 0 1; do
  ./_build/default/bench/suite/suite.exe --seconds 2 --trace $t >/dev/null
done
unset COVERAGE_DIR
./_build/default/scripts/coverage/report.exe "$dumps"
