#!/bin/sh
# Remembered-set check: how often each benchmark workload makes the
# OCaml runtime start a minor collection early because its remembered
# set (the table of major-to-minor pointers) outgrew the minor heap.
#
#   scripts/refcheck.sh [SEED]
#
# Runs bench/suite/suite.exe once per workload with --seconds 0, which
# is one full-size run (the suite's first, seed SEED, default 11), under
# OCAMLRUNPARAM=v=0x08, and counts the runtime's "ref_table threshold
# crossed" messages.  Prints one line per workload, "WORKLOAD COUNT".
# A store that writes a young value into a long-lived block over an old
# value adds a remembered-set entry; a design that does so per event
# shows here as hundreds of crossings per run, and as lost host CPU.
# Exits 0 when every run succeeded, 1 otherwise, 2 on bad usage.
set -u

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
  if ! OCAMLRUNPARAM=v=0x08 dune exec --display=quiet bench/suite/suite.exe -- \
    --workload "$w" --seed "$seed" --seconds 0 --trace 0 >/dev/null 2>"$work/err"; then
    echo "$w: run failed" >&2
    status=1
  fi
  echo "$w $(grep -c 'ref_table threshold crossed' "$work/err")"
done
exit "$status"
