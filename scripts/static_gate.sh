#!/bin/sh
# Static discipline gate (the @check alias).
#
# The project builds every library with all warnings promoted to
# errors; this script fails the build if that discipline is weakened
# instead of fixed, keeps the abstraction boundary honest by requiring
# an explicit interface for every library module, and guards the
# dependency direction between layers.  Rules about what OCaml code may
# name are typed-tree rules in scripts/deadcode, not greps here.
set -eu

fail() {
  echo "static gate: $*" >&2
  exit 1
}

# The libraries DIR/dune lists, every (libraries ...) stanza flattened.
libraries() {
  tr '\n' ' ' <"$1/dune" | grep -o '(libraries [^)]*)' |
    sed 's/^(libraries //; s/)$//' || true
}

# deps_within DIR WHAT ALLOWED...: DIR's library uses only ALLOWED.
deps_within() {
  dir=$1 what=$2
  shift 2
  deps=$(libraries "$dir")
  [ -n "$deps" ] || fail "could not read the (libraries ...) stanza of $dir/dune"
  for dep in $deps; do
    case " $* " in
      *" $dep "*) ;;
      *) fail "$dir depends on '$dep' — $what may only use $*" ;;
    esac
  done
}

# deps_without DIR WHY FORBIDDEN...: DIR's library uses none of FORBIDDEN.
deps_without() {
  dir=$1 why=$2
  shift 2
  for dep in $(libraries "$dir"); do
    case " $* " in
      *" $dep "*) fail "$dir depends on '$dep' — $why" ;;
    esac
  done
}

# 1. The root env still promotes every warning to an error.
grep -q -- '-warn-error +a' dune ||
  fail "root dune env no longer carries '-warn-error +a'"

# 2. No library dune file quietly overrides the warning discipline.
for d in $(find lib -name dune); do
  if grep -Eq -- '(-w |warn-error)' "$d"; then
    fail "$d overrides the project-wide warning flags"
  fi
done

# 3. Every library module declares its interface.
missing=0
for f in $(find lib -name '*.ml'); do
  if [ ! -f "${f}i" ]; then
    echo "static gate: $f has no interface (.mli)" >&2
    missing=1
  fi
done
[ "$missing" -eq 0 ] || fail "every lib/ module must have an .mli"

# 4. The telemetry plane observes the stack without depending on it:
# lib/obs may use only sim and metrics; gauge wiring lives in
# Faults.Campaign, so the arrow keeps pointing one way (a gauge that
# needs a protocol type is inverted, not given the edge).
deps_within lib/obs "the telemetry plane" sim metrics

# 5. The static verifier reads declared programs, never runs them: it
# may use only sim, rmem (rights, manifests) and workload (the program
# IR) — an edge into a dynamic checker or a campaign would let the
# map-time verdict depend on an execution.
deps_within lib/analysis/static "the static verifier" sim rmem workload

# 6. Declared programs and traces sit below everything that checks or
# runs them: lib/workload may use only sim, dfs (the NFS op vocabulary)
# and rmem (manifests).
deps_within lib/workload "the workload layer" sim dfs rmem

# 7. The fabric carries cells for every layer above it and knows none
# of them: lib/atm may use only sim and obs.
deps_within lib/atm "the ATM fabric" sim obs

# 8. Checkers and campaigns meet only in the workload catalog: the
# fault plane does not name the analyzers, the analyzers name neither
# the fault plane nor the experiments, and no library depends on
# lib/catalog (bin/, examples/ and test/ do).
deps_without lib/faults "the fault plane must not depend on the analyzers (join them in lib/catalog)" analysis
deps_without lib/analysis "the analyzers must not depend on campaigns or experiments (join them in lib/catalog)" faults experiments
for d in $(find lib -name dune); do
  [ "$d" = lib/catalog/dune ] && continue
  deps_without "$(dirname "$d")" "only bin/, examples/ and test/ may use the workload catalog" catalog
done

# 9. Every subcommand of the one CLI (bin/rnet.exe) has a --json and a
# --ci mode: commands are built only in bin/cli.ml, whose one
# subcommand constructor adds both flags to every command it builds;
# a tool that built its own command would escape the contract.
for b in bin/*.ml; do
  [ "$b" = bin/cli.ml ] && continue
  if grep -q 'Cmd\.' "$b"; then
    fail "$b builds a command outside bin/cli.ml"
  fi
done
[ "$(grep -o 'Cmd\.v\b' bin/cli.ml | wc -l)" -eq 1 ] ||
  fail "bin/cli.ml must build every subcommand through one Cmd.v"
[ "$(grep -o 'Cmd\.group\b' bin/cli.ml | wc -l)" -eq 1 ] ||
  fail "bin/cli.ml must build exactly one command group"
grep 'Cmd\.v\b' bin/cli.ml | grep -q 'json_flag \$ ci_flag' ||
  fail "the subcommand constructor in bin/cli.ml no longer adds --json and --ci"
grep -q 'info \[ "json" \]' bin/cli.ml || fail "bin/cli.ml has no --json flag"
grep -q 'info \[ "ci" \]' bin/cli.ml || fail "bin/cli.ml has no --ci flag"

# 10. The scale-out surface is complete: the multi-switch fabric and
# the sharded name service's map codec / control-plane reconciler /
# data-plane clerk split each keep their module: folding the reconciler
# into the clerk would erase the control/data-plane boundary.
for m in switch network; do
  [ -f "lib/atm/$m.mli" ] || fail "fabric module lib/atm/$m.mli is missing"
done
for m in shardmap reconciler shard_clerk; do
  [ -f "lib/nameserver/$m.mli" ] ||
    fail "sharding module lib/nameserver/$m.mli is missing"
done

# 11. lib/dds depends only on the transfer substrates, so it stays the
# minimal DX-vs-RPC comparison the crossover gates measure.
deps_within lib/dds "the suite" sim atm cluster metrics rmem amsg

# 12. The control plane does not reach into the data plane: the shard
# reconciler moves registrations and publishes maps through remote
# memory, never through the lookup clerk's internals.
if grep -q 'Shard_clerk' lib/nameserver/reconciler.ml lib/nameserver/reconciler.mli; then
  fail "lib/nameserver/reconciler names Shard_clerk — the control plane must not reach into the data plane"
fi

# 13. Tier-1, the suite and the goldens build uninstrumented: no dune
# file of theirs names an instrumentation backend.  Only the scratch copy
# that scripts/coverage.sh builds adds one.
for d in $(find lib bin bench examples test -name dune); do
  if grep -q 'instrumentation' "$d"; then
    fail "$d names an instrumentation backend (only scripts/coverage.sh adds one, to a scratch copy)"
  fi
done

echo "static gate: warn-error strict, $(find lib -name '*.ml' | wc -l) modules all covered by interfaces, obs/static-verifier/workload/atm/dds dependency floors intact, checkers and campaigns joined only in the catalog, reconciler clear of the shard clerk, no instrumentation backend, $(grep -o 'Cli\.cmd "' bin/*.ml | wc -l) rnet subcommands all speak --json/--ci"
