#!/bin/sh
# Parent diff: run every deterministic surface of the repository on a
# given revision and on the working tree, and print the differences.
#
#   scripts/parent_diff.sh REV
#
# REV is exported with `git archive` into a temporary directory and built
# there from scratch; the working tree is built in place.  On both trees
# the script runs:
#
#   - `dune runtest --force`, normalised by scripts/normalize.sh (its
#     golden runner pins every example and every paper figure);
#   - bench/suite/suite.exe --seed 11 --seconds 2, once with --trace 0
#     (end-to-end) and once with --trace 1 (per layer), keeping its
#     sim-clock records ("clock":"sim"), the correct/attempted/failed
#     fields of each workload's summary line and its exit status.
#
# It also prints, as information and not as a difference, two tables
# of each workload's host figures from the --trace 0 runs, parent
# against working tree: host_words_per_op and host_peak_heap_mb.  Both
# repeat exactly for one seed, so an allocation or heap claim can be
# checked with this one command.  A third table joins every figure
# each tree's own scripts/allocs.sh prints, on suite and figure, parent
# against working tree ("-" where a tree has no such figure).
#
# The simulator is deterministic, so a refactor that changes no
# behaviour shows no difference beyond tests it adds or changes.  A
# suite run that prints no sim-clock record counts as a difference even
# when both trees agree.  Exits 0 when the trees agree, 1 when they
# differ (the diff is printed), 2 on bad usage.
set -u

rev=${1:-}
[ -n "$rev" ] || { echo "usage: $0 REV" >&2; exit 2; }

cd "$(dirname "$0")/.." || exit 2
here=$(pwd)
git rev-parse --verify --quiet "$rev^{commit}" >/dev/null ||
  { echo "$0: unknown revision $rev" >&2; exit 2; }

work=$(mktemp -d) || exit 2
trap 'rm -rf "$work"' EXIT
mkdir "$work/tree" "$work/parent" "$work/current"
git archive "$rev" | tar -x -C "$work/tree" || exit 2

# surfaces TREE OUT: run every surface in TREE, one file per surface in OUT.
surfaces() {
  (
    cd "$1" || exit 2
    dune build 2>&1 || echo "dune build failed in $1" >&2
    dune runtest --force >"$2/runtest.raw" 2>&1
    echo "dune runtest exit $?" >>"$2/runtest.raw"
    sh "$here/scripts/normalize.sh" "$2/runtest.raw" >"$2/runtest"
    rm "$2/runtest.raw"
    : >"$2.allocs"
    [ -f scripts/allocs.sh ] && sh scripts/allocs.sh 2>/dev/null | sed 1d >"$2.allocs"
    for trace in 0 1; do
      dune exec --display=quiet bench/suite/suite.exe -- --seed 11 \
        --seconds 2 --trace "$trace" >"$2/suite.raw" 2>&1
      status=$?
      if [ "$trace" -eq 0 ]; then
        for metric in host_words_per_op host_peak_heap_mb; do
          sed -n "s/.*\"workload\":\"\([a-z_]*\)\".*\"metric\":\"$metric\".*\"value\":\([^,]*\),.*/\1 \2/p" \
            "$2/suite.raw" >"$2.$metric"
        done
      fi
      out="$2/suite.trace$trace"
      sed -n -e '/"clock":"sim"/p' \
        -e 's/^\({"correct":[a-z]*,"attempted":[0-9]*,"failed":[0-9]*\).*/\1}/p' \
        "$2/suite.raw" >"$out"
      echo "exit $status" >>"$out"
      rm "$2/suite.raw"
      grep -q '"clock":"sim"' "$out" ||
        echo "$out: no sim-clock records" >>"$work/empty"
    done
  )
}

echo "parent diff: $rev -> working tree"
surfaces "$work/tree" "$work/parent"
surfaces "$here" "$work/current"

status=0
for f in $(cd "$work/parent" && ls; cd "$work/current" && ls); do
  echo "$f"
done | LC_ALL=C sort -u >"$work/names"
while read -r f; do
  if diff "$work/parent/$f" "$work/current/$f" >"$work/diff" 2>&1; then
    echo "$f: identical"
  else
    echo "$f: differs"
    cat "$work/diff"
    status=1
  fi
done <"$work/names"
for metric in host_words_per_op host_peak_heap_mb; do
  echo "$metric (--seed 11 --seconds 2 --trace 0; information, not a difference):"
  awk 'NR == FNR { parent[$1] = $2; next }
       { p = parent[$1]
         change = (p > 0) ? sprintf("%+.1f%%", 100 * ($2 - p) / p) : "-"
         printf "  %-14s %12.1f %12.1f %8s\n", $1, p, $2, change }
       BEGIN { printf "  %-14s %12s %12s %8s\n", "workload", "parent", "tree", "change" }' \
    "$work/parent.$metric" "$work/current.$metric"
done
echo "allocation figures, words (scripts/allocs.sh of each tree; information, not a difference):"
awk 'function key(   k, i) { k = $1; for (i = 2; i <= NF - 2; i++) k = k " " $i; return k }
     FILENAME == ARGV[1] { k = key(); parent[k] = $(NF - 1); order[++n] = k; next }
     { k = key(); tree[k] = $(NF - 1); if (!(k in parent)) order[++n] = k }
     END {
       printf "  %-56s %10s %10s %8s\n", "suite figure", "parent", "tree", "change"
       for (i = 1; i <= n; i++) {
         k = order[i]
         p = (k in parent) ? parent[k] : "-"
         w = (k in tree) ? tree[k] : "-"
         change = (p != "-" && w != "-" && p > 0) ? sprintf("%+.1f%%", 100 * (w - p) / p) : "-"
         printf "  %-56s %10s %10s %8s\n", k, p, w, change
       }
     }' "$work/parent.allocs" "$work/current.allocs"
if [ -s "$work/empty" ]; then
  cat "$work/empty"
  status=1
fi
[ "$status" -eq 0 ] && echo "parent diff: no difference"
exit "$status"
