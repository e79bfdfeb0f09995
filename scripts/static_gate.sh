#!/bin/sh
# Static discipline gate (the @check alias).
#
# The project builds every library with all warnings promoted to
# errors; this script fails the build if that discipline is weakened
# instead of fixed, keeps the abstraction boundary honest by requiring
# an explicit interface for every library module, and guards the
# dependency direction between layers.
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

# 4. The telemetry plane observes the stack without depending on it.
# lib/obs may use only sim (the virtual clock) and metrics (histograms,
# tables, JSON); gauge wiring against the instrumented layers lives in
# Faults.Campaign so the dependency arrow keeps pointing one way.  If sampling ever needs
# a protocol type, invert the gauge instead of adding the edge here.
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

# 8. The fabric carries cells for every layer above it and knows none
# of them: lib/atm may use only sim and obs.
deps_within lib/atm "the ATM fabric" sim obs

# 9a. Checkers and campaigns meet only in the workload catalog: the
# fault plane does not name the analyzers, the analyzers name neither
# the fault plane nor the experiments, and no library depends on
# lib/catalog (bin/, examples/ and test/ do).
deps_without lib/faults "the fault plane must not depend on the analyzers (join them in lib/catalog)" analysis
deps_without lib/analysis "the analyzers must not depend on campaigns or experiments (join them in lib/catalog)" faults experiments
for d in $(find lib -name dune); do
  [ "$d" = lib/catalog/dune ] && continue
  deps_without "$(dirname "$d")" "only bin/, examples/ and test/ may use the workload catalog" catalog
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

# 9b. The data-structure suite's dependency floor holds: lib/dds may
# depend only on the transfer substrates — a structure that grew a
# dependency on the name service or the fault plane would no longer be
# the minimal DX-vs-RPC comparison the crossover gates measure.
deps_within lib/dds "the suite" sim atm cluster metrics rmem amsg

# 10. The control plane does not reach into the data plane: the shard
# reconciler moves registrations and publishes maps through remote
# memory, never through the lookup clerk's internals.
if grep -q 'Shard_clerk' lib/nameserver/reconciler.ml lib/nameserver/reconciler.mli; then
  fail "lib/nameserver/reconciler names Shard_clerk — the control plane must not reach into the data plane"
fi

# 11. The simulator, the fabric and the protocol core preallocate with
# types, not representation tricks: lib/sim, lib/atm and lib/core name
# no Obj, whether as a path (Obj.magic, Stdlib.Obj.repr) or opened,
# included or aliased.  Their allocation-lean paths (the slot heap's
# dummy payload, the link's ring, the switch's forwarding slots, the
# process record's spent continuation and its sleep queues' nodes) are
# all typed, and must stay so.
for d in lib/sim lib/atm lib/core; do
  if grep -REn --include='*.ml' --include='*.mli' \
    -e '(^|[^A-Za-z0-9_])Obj\.' \
    -e '(open!?|include|=)[[:space:]]+(Stdlib\.)?Obj([^A-Za-z0-9_.]|$)' \
    "$d" >&2; then
    fail "$d names Obj — preallocate with a typed dummy instead"
  fi
done

# 12. One way to block: lib/sim/proc.ml is the only library file that
# names Effect (as a path, opened, included or aliased), so every
# blocking path in Ivar, Mailbox, Resource and beyond goes through its
# sleep queues rather than an effect or handler of its own.
if grep -REn --include='*.ml' --include='*.mli' \
  -e '(^|[^A-Za-z0-9_])Effect\.' \
  -e '(open!?|include|=)[[:space:]]+(Stdlib\.)?Effect([^A-Za-z0-9_.]|$)' \
  lib | grep -v '^lib/sim/proc\.ml:' >&2; then
  fail "only lib/sim/proc.ml may name Effect — block through Proc.sleep"
fi

# 13. Monomorphic min and max below the services: lib/sim, lib/atm,
# lib/core and lib/cluster neither name Stdlib.min or Stdlib.max nor
# apply a bare min or max.  Those are polymorphic and compare through
# the runtime's generic comparison even on ints; Int.min, Int.max,
# Sim.Time.min and Sim.Time.max compare inline.  Comments closed on
# their line are dropped first; a binder (let/and min, ~max, ?max, a
# field .max) and a name followed by a keyword (`v > max then`) are not
# applications.
for f in $(find lib/sim lib/atm lib/core lib/cluster \( -name '*.ml' -o -name '*.mli' \) | sort); do
  hits=$(sed -E -e 's/\(\*([^*]|\*[^)])*\*\)//g' \
    -e "s/(let|and)[[:space:]]+(min|max)([^A-Za-z0-9_']|\$)/\1 _\3/g" \
    -e "s/(min|max)[[:space:]]+(then|else|in|with|do|done|of|to|downto|begin|end)([^A-Za-z0-9_']|\$)/_ \2\3/g" \
    "$f" | grep -En \
    -e "(^|[^A-Za-z0-9_.'])Stdlib\.(min|max)([^A-Za-z0-9_']|\$)" \
    -e "(^|[^A-Za-z0-9_.'~?])(min|max)[[:space:]]+[(A-Za-z0-9_~\`']" || true)
  if [ -n "$hits" ]; then
    echo "$hits" | sed "s|^|$f:|" >&2
    fail "$f uses a polymorphic min or max — use Int.min/Int.max or Sim.Time.min/max"
  fi
done

# strip_comments FILE: FILE of lib/ or bin/ as one line (each newline a
# space) with its comments dropped; made here for every file in one
# pass, read by checks 14, 16 and 17.
stripped=$(mktemp -d)
trap 'rm -rf "$stripped"' EXIT
mkdir -p $(find lib bin -type d | sed "s|^|$stripped/|")
awk 'FNR == 1 { if (NR > 1) print ""; printf "%s\t", FILENAME }
     { printf "%s ", $0 } END { print "" }' \
  $(find lib bin \( -name '*.ml' -o -name '*.mli' \)) |
  sed -E 's/\(\*([^*]|\*+[^*)])*\*+\)//g' |
  awk -v dir="$stripped" '{ tab = index($0, "\t"); f = dir "/" substr($0, 1, tab - 1)
    print substr($0, tab + 1) >f; close(f) }'
strip_comments() {
  cat "$stripped/$1"
}

# 14. No boxed value crosses a module boundary on the data path.  The
# dev profile compiles every library with -opaque, so a float passed to
# another module's function is boxed on every call.  In lib/sim,
# lib/atm, lib/cluster, lib/core, lib/amsg and lib/dds: a count scales a
# time with Sim.Time.mul, not Time.scale of a float_of_int; an integer
# is added to an account with Account.add_int, not Account.add of a
# float_of_int; and an event is scheduled at an absolute instant with
# Engine.schedule_at, not Engine.schedule ~after (the optional argument
# boxes the span).  Each file is read as one line with its comments
# dropped, so a call split across lines is still seen.  And the CAS
# path carries its words as ints: no int32 in lib/dds/plane.mli, nor in
# any val cas_* of lib/core/remote_memory.mli (an int32 argument or
# result is boxed per call).  The node stream's event types are exempt:
# they are built only while someone subscribes.
for f in $(find lib/sim lib/atm lib/cluster lib/core lib/amsg lib/dds -name '*.ml' | sort); do
  hits=$(strip_comments "$f" | grep -Eo \
    -e "Time\.scale[[:space:]]+([A-Za-z0-9_.']+|\([^()]*\))[[:space:]]+\(float_of_int" \
    -e "Account\.add([[:space:]]+(~category:)?([A-Za-z0-9_.']+|\"[^\"]*\"|\([^()]*\))){1,2}[[:space:]]+\(float_of_int" \
    -e "Engine\.schedule[[:space:]]+~after" || true)
  if [ -n "$hits" ]; then
    echo "$hits" | sed "s|^|$f: |" >&2
    fail "$f passes a boxed value across a module boundary — use Sim.Time.mul, Account.add_int or Engine.schedule_at"
  fi
done
int32_word="(^|[^A-Za-z0-9_.'])(int32|Int32\.t)([^A-Za-z0-9_']|\$)"
hits=$(strip_comments lib/dds/plane.mli | grep -Eo "$int32_word" || true)
if [ -n "$hits" ]; then
  echo "$hits" | sed "s|^|lib/dds/plane.mli: |" >&2
  fail "lib/dds/plane.mli names int32 — carry words as ints"
fi
hits=$(strip_comments lib/core/remote_memory.mli |
  sed -E 's/[[:space:]](val|type|exception|module|external) /\n\1 /g' |
  grep -E "^val cas_" | grep -E "$int32_word" || true)
if [ -n "$hits" ]; then
  echo "$hits" | sed "s|^|lib/core/remote_memory.mli: |" >&2
  fail "a CAS verb in lib/core/remote_memory.mli names int32 — carry words as ints"
fi

# 15. No hidden order: in the libraries the simulation runs through,
# no Hashtbl or Sim.Int_table is iterated, folded or turned into a
# sequence except at a site on the allow-list below.  A Hashtbl's
# bucket order depends on the hash seed (OCAMLRUNPARAM=R) and on its
# size, an Int_table's slot order on its size and history, so an
# iteration whose order reaches the wire, a digest or an output moves
# them with no code-level cause.  Each entry names a
# file and the iterating line (trimmed) and says why order cannot
# matter: a sum, a for-all, a per-key update, or a result sorted
# afterwards.  One entry allows one line, and an entry whose line is
# gone fails too.
order_allowed=$(mktemp)
order_hits=$(mktemp)
trap 'rm -rf "$stripped" "$order_allowed" "$order_hits"' EXIT
sed -e '/^#/d' -e 's/ @@ [^@]*$//' >"$order_allowed.raw" <<'ALLOWED'
# file @@ iterating line @@ why order cannot matter
lib/atm/switch.ml @@ Hashtbl.fold (fun _ down acc -> acc + Link.queue_depth down) t.downlinks 0 @@ a sum
lib/atm/switch.ml @@ Hashtbl.fold (fun i l acc -> (i, l) :: acc) table [] |> List.sort by_port @@ sorted by port
lib/core/remote_memory.ml @@ Sim.Int_table.fold @@ notification_backlog: a sum
lib/core/remote_memory.ml @@ Sim.Int_table.fold (fun _ segment acc -> segment :: acc) t.exported [] @@ exports: sorted by segment id
lib/core/remote_memory.ml @@ let pend = Sim.Int_table.fold (fun reqid p acc -> (reqid, p) :: acc) t.pending [] in @@ crash: sorted by request id
lib/core/remote_memory.ml @@ let segs = Sim.Int_table.fold (fun _ segment acc -> segment :: acc) t.exported [] in @@ restart_exports: sorted by segment id
lib/dfs/coherence.ml @@ Hashtbl.fold @@ holds_match: a for-all
lib/dfs/file_store.ml @@ Hashtbl.fold (fun _ n acc -> acc + Hashtbl.length n.blocks) t.nodes 0 @@ a sum
lib/dfs/file_store.ml @@ Hashtbl.iter @@ truncate: removes each block past the end, a per-key update
lib/dfs/server.ml @@ Hashtbl.fold (fun addr desc acc -> (addr, desc) :: acc) t.push_targets [] @@ sorted by address
lib/nameserver/clerk.ml @@ Hashtbl.fold (fun name _ acc -> name :: acc) t.import_cache [] @@ cached_names: sorted by name
lib/nameserver/clerk.ml @@ Hashtbl.fold (fun name entry acc -> (name, entry) :: acc) t.import_cache [] @@ refresh_once: sorted by name
lib/obs/registry.ml @@ Hashtbl.fold (fun key _ acc -> key.op :: acc) t.series [] @@ sorted
lib/obs/registry.ml @@ Hashtbl.fold (fun key h acc -> (key, h) :: acc) t.series [] @@ sorted by key
lib/obs/registry.ml @@ Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters [] @@ sorted
lib/obs/registry.ml @@ Hashtbl.iter @@ merge_into: each key merged once, a per-key update
lib/obs/trace.ml @@ Hashtbl.fold (fun name v acc -> (name, v) :: acc) totals [] @@ sorted
lib/replica/replica.ml @@ (Hashtbl.fold (fun addr _ acc -> addr :: acc) t.peers []) @@ sorted by address
lib/replica/replica.ml @@ (Hashtbl.fold (fun addr desc acc -> (addr, desc) :: acc) t.peers []) @@ sorted by address
lib/svm/svm.ml @@ Hashtbl.fold (fun addr () acc -> addr :: acc) t.copysets.(page) [] @@ sorted by address
ALLOWED
sort "$order_allowed.raw" >"$order_allowed"
rm -f "$order_allowed.raw"
grep -rnE --include='*.ml' \
  '(Hashtbl|Int_table)\.(iter|fold|to_seq[a-z_]*)([^A-Za-z0-9_]|$)' \
  lib/sim lib/atm lib/cluster lib/core lib/dfs lib/nameserver lib/replica \
  lib/svm lib/dds lib/amsg lib/rpc lib/obs |
  sed -E 's/^([^:]*):[0-9]+:[[:space:]]*/\1 @@ /; s/[[:space:]]+$//' |
  sort >"$order_hits"
unlisted=$(comm -23 "$order_hits" "$order_allowed")
if [ -n "$unlisted" ]; then
  echo "$unlisted" >&2
  fail "a hash table is iterated in bucket order — sort the result, or add the site to check 15's allow-list with why order cannot matter"
fi
stale=$(comm -13 "$order_hits" "$order_allowed")
if [ -n "$stale" ]; then
  echo "$stale" >&2
  fail "check 15's allow-list names a site that no longer exists — delete the entry"
fi

# 16. A recycled frame has one owner at a time.  A pooled frame goes
# back to its pool only in Cluster.Node.dispatch, after the protocol
# handler has returned, so nothing reads it once a later frame may have
# been built in its buffer; and the pool itself (Frame.take, Frame.pin,
# the pool type and its counters, Nic.pool) is reachable only from
# lib/atm, the remote-memory frame builders in lib/core/wire.ml and
# lib/core/remote_memory.ml, and the active-message frame builder in
# lib/amsg/amsg.ml.  Comments are dropped first.
release_word="(^|[^A-Za-z0-9_'])Frame\.release([^A-Za-z0-9_']|\$)"
pool_word="(^|[^A-Za-z0-9_'])(Frame\.(take|pin|pool|outstanding|created)|Nic\.pool)([^A-Za-z0-9_']|\$)"
in_dispatch=$(awk '/^let dispatch /{on=1; print; next} on && /^let /{on=0} on' \
  lib/cluster/node.ml | tr '\n' ' ' | sed -E 's/\(\*([^*]|\*+[^*)])*\*+\)//g' |
  grep -Eo "$release_word" | wc -l)
[ "$in_dispatch" -eq 1 ] ||
  fail "lib/cluster/node.ml: Node.dispatch must release each frame exactly once, after its handler (found $in_dispatch release(s))"
# Each file is grepped in its stripped copy, all in one pass per word.
for f in $(cd "$stripped" && grep -El "$release_word" $(find lib -path lib/atm -prune -o \( -name '*.ml' -o -name '*.mli' \) -print | sort)); do
  [ "$f" = lib/cluster/node.ml ] &&
    [ "$(grep -Eo "$release_word" "$stripped/$f" | wc -l)" -eq 1 ] && continue
  fail "$f releases a frame — only Cluster.Node.dispatch gives frames back to the pool"
done
for f in $(cd "$stripped" && grep -El "$pool_word" $(find lib -path lib/atm -prune -o \( -name '*.ml' -o -name '*.mli' \) -print | sort)); do
  case "$f" in
    lib/core/wire.ml | lib/core/wire.mli | lib/core/remote_memory.ml | lib/amsg/amsg.ml) ;;
    *) fail "$f reaches the frame pool — only lib/atm and the remote-memory and active-message frame builders may" ;;
  esac
done

# 17. A wait on the rmem and RPC data paths is one continuation.  A
# READ's or CAS's pending record is its own completion, and an RPC
# attempt's call record its own, so lib/core/remote_memory.ml,
# lib/core/pipeline.ml and lib/dds/call.ml name no Sim.Ivar; the NIC's
# receive FIFO is a frame ring its dispatcher parks on, so lib/atm names
# no Sim.Mailbox; and Proc.park and Proc.unpark, single-consumer waits
# that a second waiter would break, are named only in lib/sim (whose
# Sim.Wait the records embed) and lib/atm/nic.ml (bin included).
# Comments are dropped first.
for f in lib/core/remote_memory.ml lib/core/pipeline.ml lib/dds/call.ml; do
  if strip_comments "$f" | grep -Eq "(^|[^A-Za-z0-9_'])Sim\.Ivar([^A-Za-z0-9_']|\$)"; then
    fail "$f names Sim.Ivar — a READ, CAS or RPC completes through its own pending record"
  fi
done
for f in $(find lib/atm -name '*.ml' -o -name '*.mli' | sort); do
  if strip_comments "$f" | grep -Eq "(^|[^A-Za-z0-9_'])Sim\.Mailbox([^A-Za-z0-9_']|\$)"; then
    fail "$f names Sim.Mailbox — the receive FIFO is a frame ring its reader parks on"
  fi
done
park_word="(^|[^A-Za-z0-9_'])Proc\.(park|unpark)([^A-Za-z0-9_']|\$)"
for f in $(cd "$stripped" && grep -El "$park_word" $(find lib bin -path lib/sim -prune -o \( -name '*.ml' -o -name '*.mli' \) -print | sort)); do
  case "$f" in
    lib/atm/nic.ml) ;;
    *) fail "$f parks or unparks a process — only lib/sim and lib/atm/nic.ml may" ;;
  esac
done

# 18. One way to observe.  An observer subscribes to a node's event
# stream (Cluster.Node.subscribe); no library keeps a process-global
# observer slot, a top-level binding typed `option ref` or bound to
# `ref None`, except the tracer in lib/obs/trace.ml, and nothing in lib/
# or bin/ defines a set_monitor.  A top-level item is a line starting in
# column 0 with its indented continuation lines.
slots=$(awk 'function flush() { if (item ~ /^let /) print file ": " item; item = "" }
    FNR == 1 { flush(); file = FILENAME }
    /^[^ \t]/ { flush() }
    { item = item " " $0; sub(/^ +/, "", item) }
    END { flush() }' $(find lib -name '*.ml' ! -path lib/obs/trace.ml | sort) |
  grep -E "^[^:]*: let [a-z_][A-Za-z0-9_']*[[:space:]]*(:[^=]*option[[:space:]]+ref|(:[^=]*)?=[[:space:]]*ref[[:space:]]*\(?None)" || true)
if [ -n "$slots" ]; then
  echo "$slots" | cut -c1-160 >&2
  fail "a library keeps a global observer slot — subscribe to the node's event stream instead"
fi
for f in $(cd "$stripped" && grep -El "(^|[^A-Za-z0-9_'])(let|val|and)[[:space:]]+(rec[[:space:]]+)?set_monitor([^A-Za-z0-9_']|\$)" $(find lib bin \( -name '*.ml' -o -name '*.mli' \) | sort)); do
  fail "$f defines a set_monitor — observers subscribe to the node's event stream"
done

# 19. One JSON writer for rnet.  Every subcommand's --json line is the
# envelope bin/cli.ml's report writes around a Metrics.Table, as a
# Metrics.Json tree: no bin/*.ml writes a JSON object by hand (a string
# literal opening one with {\") or names Analysis.Report.Json, the
# string-fragment writer only the system benchmark keeps.  Comments are
# dropped first.
for f in $(find bin -name '*.ml' | sort); do
  if strip_comments "$f" | grep -Fq '{\"'; then
    fail "$f writes a JSON object by hand — return a Metrics.Table report and let Cli.report write the envelope"
  fi
  if strip_comments "$f" | grep -Eq "(^|[^A-Za-z0-9_'])(Analysis\.)?Report\.Json([^A-Za-z0-9_']|\$)"; then
    fail "$f names Analysis.Report.Json — return a Metrics.Table report and let Cli.report write the envelope"
  fi
done

echo "static gate: warn-error strict, $(find lib -name '*.ml' | wc -l) modules all covered by interfaces, obs/static-verifier/workload/atm/dds dependency floors intact, checkers and campaigns joined only in the catalog, reconciler clear of the shard clerk, sim/atm/core free of Obj, effects only in Sim.Proc, no polymorphic min/max below the services, no boxed float, ~after or int32 CAS word on the data path, frames released only by Node.dispatch and pooled only by the rmem and amsg builders, rmem and RPC completions free of Ivar and the NIC of Mailbox, park/unpark only in sim and nic, no unlisted hash-table iteration, observers only on the node stream, no hand-written JSON in bin/, $(grep -o 'Cli\.\(cmd\|bench\) "' bin/*.ml | wc -l) rnet subcommands all speak --json/--ci"
