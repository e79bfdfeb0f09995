#!/bin/sh
# Boundary gap: what dune's dev profile costs in host allocation.
#
#   scripts/boundary_gap.sh [--seed N] [--bisect [LIB...]]
#
# The dev profile compiles every library with -opaque, so a value that
# is unboxed inside a function (a float, an int32, an optional
# argument) is boxed whenever it crosses into another module.  The
# release profile lets ocamlopt see across modules and keep it unboxed.
# This script runs bench/suite once per profile (--seconds 2 --trace 0)
# and prints, per workload, host_words_per_op in each and the gap
# between them.  The dev build is the usual _build/default; the release
# build goes into a temporary --build-dir, so _build/default is left as
# it was.
#
# With --bisect it also copies the tree to a temporary directory and,
# one library at a time (LIB..., default: sim metrics cluster atm rmem
# amsg dds dfs names rpckit obs), rebuilds the release profile with
# -opaque added to that library's ocamlopt_flags.  The increase over
# the plain release build is what that library's opacity costs each
# workload: where to look for a boxed value on a module boundary.
#
# The output is information, not a gate: the script exits 0 unless a
# build or a run fails.  A run takes about 30 s; a bisect adds about
# 30 s per library.
set -eu
cd "$(dirname "$0")/.."
here=$(pwd)

seed=11
bisect=""
libs=""
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed=$2; shift 2 ;;
    --bisect) bisect=1; shift; libs="$*"; break ;;
    *) echo "usage: $0 [--seed N] [--bisect [LIB...]]" >&2; exit 2 ;;
  esac
done
[ -n "$libs" ] || libs="sim metrics cluster atm rmem amsg dds dfs names rpckit obs"

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# words DIR OUT [DUNE-ARGS...]: "WORKLOAD WORDS" lines for the suite
# built and run from DIR with the given dune arguments.
words() {
  dir=$1 out=$2
  shift 2
  (cd "$dir" &&
    dune build --display=quiet "$@" bench/suite/suite.exe &&
    dune exec --display=quiet "$@" bench/suite/suite.exe -- --seed "$seed" \
      --seconds 2 --trace 0) >"$work/raw" 2>&1 ||
    { cat "$work/raw" >&2; echo "boundary gap: suite failed in $dir" >&2; exit 1; }
  sed -n 's/.*"workload":"\([a-z_]*\)".*"metric":"host_words_per_op".*"value":\([^,]*\),.*/\1 \2/p' \
    "$work/raw" >"$out"
  [ -s "$out" ] || { echo "boundary gap: no host_words_per_op in $dir" >&2; exit 1; }
}

# table LEFT-NAME RIGHT-NAME LEFT RIGHT: one row per workload.
table() {
  awk -v l="$1" -v r="$2" '
    NR == FNR { left[$1] = $2; next }
    FNR == 1 { printf "  %-14s %10s %10s %8s\n", "workload", l, r, "gap" }
    { printf "  %-14s %10.1f %10.1f %+8.1f\n", $1, left[$1], $2, $2 - left[$1] }' \
    "$3" "$4"
}

words "$here" "$work/dev"
words "$here" "$work/release" --profile release --build-dir "$work/build.release"
echo "host_words_per_op, dev vs release (--seed $seed --seconds 2 --trace 0):"
table dev release "$work/dev" "$work/release"

[ -n "$bisect" ] || exit 0

mkdir "$work/tree"
tar --exclude=./_build -cf - . | tar -xf - -C "$work/tree"
echo "words/op each library's -opaque adds to the release build:"
for lib in $libs; do
  stanza=$(grep -l "(name $lib)" "$work"/tree/lib/*/dune || true)
  [ -n "$stanza" ] || { echo "boundary gap: no library named $lib" >&2; exit 2; }
  cp "$stanza" "$work/stanza"
  # Close the library stanza's last paren on a flags line of its own.
  sed '$ s/)$/\n (ocamlopt_flags (:standard -opaque)))/' "$work/stanza" >"$stanza"
  words "$work/tree" "$work/opaque" --profile release --build-dir "$work/build.$lib"
  cp "$work/stanza" "$stanza"
  rm -rf "$work/build.$lib"
  echo "$lib:"
  table release "+opaque" "$work/release" "$work/opaque"
done
