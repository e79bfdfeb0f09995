#!/bin/sh
# Tier-1 time ledger: where the wall time of one `dune runtest` goes.
#
#   dune runtest --force --trace-file FILE
#   scripts/ledger.sh FILE
#
# Reads dune's trace of that run (through `dune trace cat --sexp`, one
# event a line) and prints:
#
#   - the run's wall time, and how many processes it ran;
#   - the ten programs with the most wall seconds, summed over their
#     processes: each executable the run built (the test runner, rnet,
#     the gates, the benchmark), each script sh ran, the compilers;
#   - the ten slowest processes, one per rule, with their arguments.
#
# A process's wall time is dune's own span for it, from spawn to exit,
# so processes that ran side by side each count in full: the columns
# add up to more than the run's wall time on more than one core.  The
# script only reads FILE; it is not part of runtest.
set -eu
[ $# -eq 1 ] || { echo "usage: scripts/ledger.sh TRACE-FILE" >&2; exit 2; }
[ -r "$1" ] || { echo "ledger: cannot read $1" >&2; exit 2; }
cd "$(dirname "$0")/.."
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

# One line per finished process: "SECONDS<TAB>PROGRAM<TAB>ARGS", where
# PROGRAM is the executable's name, or the script's for sh; and one
# "wall" line, from dune's init event to its exit event.  A
# process_args list ends where its event's "(pid" field starts.
dune trace cat --sexp --trace-file "$1" |
  awk '
    /^\(process finish \(/ {
      split(substr($0, 18), t, /[ )]/); dur = t[2] / 1e9
      prog = ""; args = ""
      if (match($0, /\(prog [^ )]*\)/)) prog = substr($0, RSTART + 6, RLENGTH - 7)
      if (match($0, /\(process_args \(/)) {
        rest = substr($0, RSTART + RLENGTH)
        args = substr(rest, 1, index(rest, ") (pid") - 2)
      }
      n = split(prog, p, "/"); name = p[n]
      if (name == "sh" || name == "bash") {
        split(args, a, " "); m = split(a[1], s, "/"); name = s[m]
      }
      printf "%.3f\t%s\t%s\n", dur, name, args
    }
    /^\(config init [0-9]/ { init = $3 }
    /^\(config exit [0-9]/ { exit_ = $3 }
    END { if (init != "" && exit_ != "") printf "wall\t%.3f\n", (exit_ - init) / 1e9 }
  ' >"$tmp"
wall=$(sed -n 's/^wall\t//p' "$tmp")
procs=$(grep -vc '^wall' "$tmp" || true)
[ "$procs" -gt 0 ] || { echo "ledger: no finished process in $1" >&2; exit 1; }

printf 'run: %s s wall, %s processes\n\n' "${wall:-?}" "$procs"

printf 'ten slowest programs\n%-28s %6s %9s\n' program runs wall_s
grep -v '^wall' "$tmp" |
  awk -F '\t' '{ s[$2] += $1; n[$2]++ }
    END { for (k in s) printf "%-28s %6d %9.3f\n", k, n[k], s[k] }' |
  sort -k3,3 -rn | head -10

# A compiler's process is named by its output file.
printf '\nten slowest processes (rules)\n%9s  %s\n' wall_s 'program arguments'
grep -v '^wall' "$tmp" | sort -t "$(printf '\t')" -k1,1 -rn | head -10 |
  awk -F '\t' '{
    a = $3
    if (match(a, / -o [^ ]+/)) a = substr(a, RSTART + 1, RLENGTH - 1)
    if (length(a) > 90) a = substr(a, 1, 87) "..."
    printf "%9.3f  %s %s\n", $1, $2, a }'
