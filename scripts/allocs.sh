#!/bin/sh
# Allocation budgets: run only the test cases that measure host words
# and print each measured figure beside its budget.
#
#   scripts/allocs.sh [EXE]
#
# The cases are picked by name from the test runner's own listing
# ("... allocation budget", "... allocate(s) nothing"), run once per
# suite, and each figure is the line the case prints through
# Rig.within_budget.  Output: one line per figure, "SUITE  WHAT  WORDS
# BUDGET".  Exits 1 if a case failed (a figure over its budget or an
# assertion around it) or a budget is loose (above its figure times 1.1
# plus 0.5 words, as one left behind when a cut lowered the figure),
# 0 otherwise.  Tightening a budget is this script, then the figure
# plus 10% in the test.
#
# Given EXE, a built test runner, it runs that one instead of building
# it and prints only what fails: `dune runtest` runs it so (test/dune),
# so a cut that leaves a budget loose fails there.
set -eu
if [ $# -ge 1 ]; then
  exe=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
  exec 3>/dev/null
else
  exe=
  exec 3>&1
fi
cd "$(dirname "$0")/.."
if [ -z "$exe" ]; then
  dune build test/main.exe
  exe=$PWD/_build/default/test/main.exe
fi
logs=$(mktemp -d)
mkdir "$logs/out"
trap 'rm -rf "$logs"' EXIT

# "SUITE N" for every allocation case, in listing order.
"$exe" list --color=never |
  sed -n 's/^\([a-z_]*\) *\([0-9]*\)   \(.*\)$/\1 \2 \3/p' |
  grep -E ' (allocation budget|allocates? nothing)\.$' |
  cut -d' ' -f1,2 >"$logs/cases"
[ -s "$logs/cases" ] || { echo "allocs: no allocation cases listed" >&2; exit 1; }

status=0
printf '%-8s %-42s %10s %10s\n' suite figure words budget >&3
for suite in $(cut -d' ' -f1 "$logs/cases" | uniq); do
  numbers=$(grep "^$suite " "$logs/cases" | cut -d' ' -f2 | paste -sd, -)
  if ! "$exe" test "^$suite\$" "$numbers" --verbose --color=never \
    -o "$logs/out" >"$logs/$suite" 2>&1; then
    status=1
    echo "allocs: a $suite case failed (scripts/allocs.sh keeps going)" >&2
  fi
  sed -n 's/^budget: \(.*\): \([0-9.]*\) words (at most \([0-9.]*\))$/\1|\2|\3/p' \
    "$logs/$suite" >"$logs/$suite.figures"
  while IFS='|' read -r what words budget; do
    printf '%-8s %-42s %10s %10s\n' "$suite" "$what" "$words" "$budget" >&3
    if awk -v w="$words" -v b="$budget" 'BEGIN { exit !(b > w * 1.1 + 0.5) }'; then
      status=1
      echo "allocs: $suite \"$what\": budget $budget is loose for $words words (at most figure x 1.1 + 0.5)" >&2
    fi
  done <"$logs/$suite.figures"
done
exit $status
