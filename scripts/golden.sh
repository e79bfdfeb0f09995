#!/bin/sh
# Golden runner: run the rows of one group of the table at the end of
# this file and check each against what it expects.
#
#   sh scripts/golden.sh GROUP
#
# Run from the build root (dune's rules do: `@golden`, `@artifacts` and
# `@exitcodes` each run one group).  A row is GROUP EXPECT COMMAND...:
#
#   - EXPECT a number: an exit-code row, run once; COMMAND must exit
#     with that code.
#   - EXPECT a file: a golden row; COMMAND must exit 0 and print the
#     file byte for byte.
#   - EXPECT a directory (ending in /): COMMAND, given a fresh directory
#     as its last argument, must exit 0 and write exactly the files of
#     the golden directory, byte for byte.
#
# The goldens pin every --json shape downstream parsers (and the schema
# version) rely on, every paper figure and every example's narrative.
# A golden row runs three ways: plain, under OCAMLRUNPARAM=R (randomised
# hashtable seeds) and under OCAMLRUNPARAM=s=4k,o=20 (a 4k-word minor
# heap and an eager major collector): no output may depend on bucket
# order or on when the collector runs, so a host-side change cannot
# move a simulated figure unseen.  On a mismatch the runner prints the
# row, the variant, the first differing line with its number and the
# command that regenerates the golden, run from the repository root (a
# golden moves only on purpose, and says why).  Exits 0 when every row
# of GROUP holds, 1 when one does not, 2 on bad usage.
set -u

group=${1:-}
[ $# -eq 1 ] && [ -n "$group" ] || { echo "usage: $0 GROUP" >&2; exit 2; }
work=$(mktemp -d) || exit 2
trap 'rm -rf "$work"' EXIT
sed '1,/^# The table/d' "$0" | grep "^$group " >"$work/rows" ||
  { echo "$0: no rows in group $group" >&2; exit 2; }

status=0
# fail VARIANT MESSAGE...: report the current row as failed.
fail() {
  v=$1
  shift
  echo "golden.sh: FAIL [$group] $row ($v)"
  printf '  %s\n' "$@"
  status=1
}

# first_diff GOLDEN OUTPUT: the first line where the two files differ.
first_diff() {
  awk -v g="$1" -v o="$2" 'BEGIN {
    for (n = 1; ; n++) {
      if ((a = getline x < g) <= 0) x = ""
      if ((b = getline y < o) <= 0) y = ""
      if (a <= 0 || b <= 0 || x != y) break
    }
    if (a <= 0 && b <= 0) { print "the files differ in their final newline"; exit }
    for (c = 1; c <= length(x) && substr(x, c, 1) == substr(y, c, 1); c++) ;
    from = c > 40 ? c - 40 : 1
    printf "line %d, column %d:\n", n, c
    printf "    golden: %s\n", (a > 0 ? substr(x, from, 100) : "(end of file)")
    printf "    output: %s\n", (b > 0 ? substr(y, from, 100) : "(end of file)")
  }'
}

# check VARIANT GOLDEN OUTPUT REGENERATE
check() {
  if [ ! -f "$2" ]; then
    fail "$1" "missing golden $2" "regenerate: $4"
  elif ! cmp -s "$2" "$3"; then
    fail "$1" "$2: $(first_diff "$2" "$3")" "regenerate: $4"
  fi
}

rows=0
while read -r _ expect cmd; do
  row="$expect $cmd"
  rows=$((rows + 1))
  set -- $cmd
  case $expect in
    *[!0-9]*) ;;
    *)
      "$@" </dev/null >/dev/null 2>&1
      code=$?
      [ "$code" -eq "$expect" ] || fail once "exit $code, expected $expect"
      continue
      ;;
  esac
  exe=$1
  shift
  case $expect in
    */) regen="dune exec --display=quiet $exe -- $* $expect" ;;
    *) regen="dune exec --display=quiet $exe${*:+ -- $*} > $expect" ;;
  esac
  # The three variants run side by side, each with its own output.
  for v in plain R s=4k,o=20; do
    rm -rf "$work/$v"
    mkdir "$work/$v"
    case $v in plain) env=env ;; *) env="env OCAMLRUNPARAM=$v" ;; esac
    (
      case $expect in
        */) $env "$exe" "$@" "$work/$v" >/dev/null ;;
        *) $env "$exe" "$@" >"$work/$v.out" ;;
      esac </dev/null
      echo $? >"$work/$v.code"
    ) &
  done
  wait
  for v in plain R s=4k,o=20; do
    code=$(cat "$work/$v.code")
    if [ "$code" -ne 0 ]; then
      fail "$v" "exit $code, expected 0"
    else
      case $expect in
        */)
          for f in $( (ls "$expect"; ls "$work/$v") 2>/dev/null | sort -u); do
            check "$v" "$expect$f" "$work/$v/$f" "$regen"
          done
          ;;
        *) check "$v" "$expect" "$work/$v.out" "$regen" ;;
      esac
    fi
  done
done <"$work/rows"
[ "$status" -eq 0 ] && echo "golden.sh $group: $rows rows hold"
exit "$status"

# The table: GROUP EXPECT COMMAND..., paths from the build root.
golden bin/golden/racecheck_kv_store.json bin/rnet.exe race --json -w kv_store
golden bin/golden/modelcheck_torn_record_replay.json bin/rnet.exe model --json -w torn_record --replay -
golden bin/golden/lincheck_kv_store.json bin/rnet.exe lin --json -w kv_store
golden bin/golden/protocheck_quickstart.json bin/rnet.exe proto --json -w quickstart
golden bin/golden/chaoscheck_replica_ci.json bin/rnet.exe chaos --ci --json -w replica
golden bin/golden/obsreport_quickstart.json bin/rnet.exe obs --json -w quickstart --seed 1
golden bin/golden/trace/ bin/rnet.exe trace -o
golden examples/golden/quickstart.out examples/quickstart.exe
golden examples/golden/load_balance.out examples/load_balance.exe
golden examples/golden/name_service.out examples/name_service.exe
golden examples/golden/file_service.out examples/file_service.exe
golden examples/golden/producer_consumer.out examples/producer_consumer.exe
golden examples/golden/kv_store.out examples/kv_store.exe
golden examples/golden/hardened_cluster.out examples/hardened_cluster.exe
golden examples/golden/config_service.out examples/config_service.exe
golden examples/golden/protocheck_demo.out examples/protocheck_demo.exe
artifacts bin/golden/repro_all.json bin/rnet.exe repro all --json
exitcodes 1 bin/rnet.exe race -w racy
exitcodes 1 bin/rnet.exe proto -w frame_overrun
exitcodes 2 bin/rnet.exe proto -w no_such_program
exitcodes 1 bin/rnet.exe model -w torn_record
exitcodes 1 bin/rnet.exe chaos -w quickstart --loss 0.9 --seed 3
exitcodes 1 bin/rnet.exe lin -w cas_double_apply --replay 0/4,0/3,0/2,0/3,0/2,0/2,0/2,1/2,0/2
exitcodes 1 bin/rnet.exe lin -w dds_register_no_writeback --replay 0/6,0/5,0/4,0/3,0/2,0/3,0/2,0/2,0/2,0/2,0/2,0/2,0/2,0/2,1/2,0/2
# A certificate whose choice points the run does not offer is a usage
# error, not an uncaught exception.
exitcodes 2 bin/rnet.exe model -w torn_record --replay 0/5
exitcodes 2 bin/rnet.exe lin -w cas_double_apply --replay 0/5
exitcodes 2 bin/rnet.exe trace --json -w no_such_workload
exitcodes 2 bin/rnet.exe trace -o no_such_directory
exitcodes 2 bin/rnet.exe obs --ci -w no_such_workload
exitcodes 2 bin/rnet.exe repro no_such_experiment
# Every checker rejects an unknown workload as a usage error, --explore
# resolves -w against the explorable workloads only, and cmdliner
# rejects an unknown subcommand.
exitcodes 2 bin/rnet.exe race -w no_such_workload
exitcodes 2 bin/rnet.exe model -w no_such_workload
exitcodes 2 bin/rnet.exe chaos -w no_such_workload
exitcodes 2 bin/rnet.exe lin -w no_such_workload
exitcodes 2 bin/rnet.exe lin --explore -w quickstart
exitcodes 2 bin/rnet.exe lin --explore -w no_such_workload
exitcodes 124 bin/rnet.exe no_such_command
# The trace generator and the cluster simulation pass their own --ci
# checks under every scheme, and an unknown scheme is a usage error.
exitcodes 0 bin/rnet.exe nfstrace --ci all
exitcodes 0 bin/rnet.exe cluster --ci --scheme dx
exitcodes 0 bin/rnet.exe cluster --ci --scheme hy
exitcodes 0 bin/rnet.exe cluster --ci --scheme rpc
exitcodes 124 bin/rnet.exe cluster --scheme no_such_scheme
exitcodes 2 bin/rnet.exe nfstrace no_such_view
exitcodes 0 bin/rnet.exe cluster --help=plain
# The ad-hoc fault flags build their plans, the sequential-consistency
# and explore-all modes run, and a certificate without one workload is a
# usage error.
exitcodes 0 bin/rnet.exe chaos -w replica --chaos --partition --loss 0.01
exitcodes 0 bin/rnet.exe chaos -w crash_restart --crash
exitcodes 0 bin/rnet.exe obs -w quickstart --chaos --loss 0.01 --seed 1
exitcodes 0 bin/rnet.exe lin --sc -w kv_store
exitcodes 0 bin/rnet.exe lin --explore
exitcodes 2 bin/rnet.exe lin --replay 0/1
exitcodes 2 bin/rnet.exe model --replay 0/1
# A gate that cannot fail is no gate: @exitcodes also runs each of these
# one-row groups and expects exit 1 (a golden one byte off, a wrong exit
# code, a missing golden).
fixture_byte scripts/golden.fixture echo golden runner fixture
fixture_code 0 false
fixture_missing scripts/no_such.golden echo golden runner fixture
