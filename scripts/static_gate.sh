#!/bin/sh
# Static discipline gate (the @check alias).
#
# The project builds every library with all warnings promoted to
# errors; this script fails the build if that discipline is weakened
# instead of fixed, and keeps the abstraction boundary honest by
# requiring an explicit interface for every library module.
set -eu

fail() {
  echo "static gate: $*" >&2
  exit 1
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

# 4. The telemetry plane observes the stack without depending on it.
# lib/obs may use only sim (the virtual clock), metrics (histograms,
# tables, JSON) and unix (host wall clock for Obs.Profile); gauge
# wiring against the instrumented layers lives in Faults.Campaign so
# the dependency arrow keeps pointing one way.  If sampling ever needs
# a protocol type, invert the gauge instead of adding the edge here.
obs_deps=$(sed -n 's/.*(libraries \([^)]*\)).*/\1/p' lib/obs/dune)
[ -n "$obs_deps" ] || fail "could not read the (libraries ...) stanza of lib/obs/dune"
for dep in $obs_deps; do
  case "$dep" in
    sim | metrics | unix) ;;
    *) fail "lib/obs depends on '$dep' — the telemetry plane may only use sim, metrics, unix" ;;
  esac
done

# 5. The telemetry plane's module surface is complete: losing any of
# these (e.g. a refactor that folds the sampler into the registry)
# silently removes a layer the SLO gates and host bench stand on.
for m in span ctx trace export registry timeseries slo profile; do
  [ -f "lib/obs/$m.mli" ] || fail "telemetry module lib/obs/$m.mli is missing"
done

# 6. The static verifier's module surface is complete: the abstract
# interpreter (verify), its interval domain, the finding vocabulary
# and the pipelining classifier are each load-bearing for the
# @protocheck gate — losing one silently narrows what the gate checks.
for m in interval finding verify pipesafe; do
  [ -f "lib/analysis/static/$m.mli" ] ||
    fail "static verifier module lib/analysis/static/$m.mli is missing"
done

# 7. Every subcommand of the one CLI (bin/rnet.exe) speaks the common
# reporting contract: a --json mode (self-validated, schema-versioned
# objects) and a --ci mode (assert expectations, nonzero exit on
# violation).  Commands are built only in bin/cli.ml, whose one
# subcommand constructor adds both flags to every command it builds —
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

# 8. The scale-out surface is complete: the multi-switch fabric
# (switch, network) and the sharded name service's three-module split
# (map codec / control-plane reconciler / data-plane clerk) each carry
# the @shardsim gate — folding the reconciler into the clerk would
# quietly erase the control/data-plane boundary the design pins.
for m in switch network; do
  [ -f "lib/atm/$m.mli" ] || fail "fabric module lib/atm/$m.mli is missing"
done
for m in shardmap reconciler shard_clerk; do
  [ -f "lib/nameserver/$m.mli" ] ||
    fail "sharding module lib/nameserver/$m.mli is missing"
done

# 9. The data-structure suite's surface is complete and its dependency
# floor holds: lib/dds ships the probe scheme, the tag/kind/hook
# vocabulary, the call + data-plane substrates and all three
# structures, each behind an explicit interface, and may depend only on
# the transfer substrates (sim atm cluster metrics rmem amsg) — a
# structure that grew a dependency on the name service or the fault
# plane would no longer be the minimal DX-vs-RPC comparison the
# crossover gates measure.
for m in probe tag kind hook call plane hashtable queue register; do
  [ -f "lib/dds/$m.mli" ] || fail "data-structure module lib/dds/$m.mli is missing"
done
dds_deps=$(sed -n 's/.*(libraries \([^)]*\)).*/\1/p' lib/dds/dune)
[ -n "$dds_deps" ] || fail "could not read the (libraries ...) stanza of lib/dds/dune"
for dep in $dds_deps; do
  case "$dep" in
    sim | atm | cluster | metrics | rmem | amsg) ;;
    *) fail "lib/dds depends on '$dep' — the suite may only use sim, atm, cluster, metrics, rmem, amsg" ;;
  esac
done

# 10. The control plane does not reach into the data plane: the shard
# reconciler moves registrations and publishes maps through remote
# memory, never through the lookup clerk's internals.
if grep -q 'Shard_clerk' lib/nameserver/reconciler.ml lib/nameserver/reconciler.mli; then
  fail "lib/nameserver/reconciler names Shard_clerk — the control plane must not reach into the data plane"
fi

echo "static gate: warn-error strict, $(find lib -name '*.ml' | wc -l) modules all covered by interfaces, obs dependency floor intact, static verifier surface complete, fabric + sharding surface complete, dds surface + dependency floor intact, reconciler clear of the shard clerk, $(grep -o 'Cli\.\(cmd\|bench\) "' bin/*.ml | wc -l) rnet subcommands all speak --json/--ci"
