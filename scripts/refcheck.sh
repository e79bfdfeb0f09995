#!/bin/sh
# Remembered-set check: how often each benchmark workload makes the
# OCaml runtime start a minor collection early because its remembered
# set (the table of major-to-minor pointers) outgrew the minor heap.
#
#   scripts/refcheck.sh [SEED]
#
# Runs bench/suite/suite.exe once per workload with --seconds 0, which
# is one full-size run (the suite's first, seed SEED, default 11), under
# OCAMLRUNPARAM=v=0x408, and counts the runtime's "ref_table threshold
# crossed" messages and the minor collections its exit statistics
# report (summed over every process the run starts).  Prints one line
# per workload, "WORKLOAD CROSSINGS MINOR_COLLECTIONS RATE", RATE being
# crossings per 100 minor collections.
#
# A store that writes a young value into a long-lived block over an old
# value adds a remembered-set entry; a design that does so per event
# shows as hundreds of crossings, each one an early minor collection, so
# a rate in the tens or more.  A single crossing moves with heap layout
# (an unrelated allocation at a module's initialisation can make or
# remove it), so one is not flagged: a workload is flagged, with FLAG
# after its line, only when its rate is above max_rate (10) per 100.
# Exits 0 when every run succeeded and none is flagged, 1 otherwise, 2
# on bad usage.
set -u

max_rate=10
seed=${1:-11}
case "$seed" in
  '' | *[!0-9]*) echo "usage: $0 [SEED]" >&2; exit 2 ;;
esac

cd "$(dirname "$0")/.." || exit 2
work=$(mktemp -d) || exit 2
trap 'rm -rf "$work"' EXIT

dune build bench/suite/suite.exe 2>&1 || exit 1
status=0
for w in nfs_mix name_lookup bulk_stream dds_contended; do
  if ! OCAMLRUNPARAM=v=0x408 dune exec --display=quiet bench/suite/suite.exe -- \
    --workload "$w" --seed "$seed" --seconds 0 --trace 0 >/dev/null 2>"$work/err"; then
    echo "$w: run failed" >&2
    status=1
  fi
  crossings=$(grep -c 'ref_table threshold crossed' "$work/err")
  minors=$(sed -n 's/^minor_collections: \([0-9]*\)$/\1/p' "$work/err" |
    awk '{ n += $1 } END { print n + 0 }')
  echo "$w $crossings $minors" | awk -v max="$max_rate" '{
    rate = $3 > 0 ? 100 * $2 / $3 : 0
    printf "%s %d %d %.1f%s\n", $1, $2, $3, rate, (rate > max ? " FLAG" : "")
    exit (rate > max)
  }' || status=1
done
exit "$status"
