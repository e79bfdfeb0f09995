#!/bin/sh
# Host CPU profile of one full benchmark run, by function and by module.
#
#   scripts/hostprof.sh WORKLOAD [SEED]
#
# Builds bench/suite, then runs one `suite.exe --child` run of WORKLOAD
# (full size, SEED default 11) under a SIGPROF sampler preloaded into
# the process: at each tick of the profiling timer it records the
# interrupted program counter.  The timer asks for 1 ms of CPU time,
# but the kernel rounds that up to its scheduler tick (about 4 ms), so
# a 2 s run gives about 450 samples; for more, repeat with other seeds.
# The sampler is compiled from the C source below with gcc into a
# temporary directory; nothing is installed and bench/suite is only
# read.  Samples are symbolised with nm against the executable's load
# base, read from /proc/self/maps at exit.  Output: the top 25 functions
# and every module's share of the samples.  OCaml modules are named as
# in the source (Sim.Heap); "runtime" is the OCaml runtime's C code;
# samples outside the executable are named by their shared object.
set -eu
[ $# -ge 1 ] || { echo "usage: scripts/hostprof.sh WORKLOAD [SEED]" >&2; exit 2; }
workload=$1
seed=${2:-11}
cd "$(dirname "$0")/.."
dune build bench/suite/suite.exe
exe=$PWD/_build/default/bench/suite/suite.exe
full=$(sed -n "s/.*name = \"$workload\";.* full = \([0-9_]*\);.*/\1/p" bench/suite/loads.ml | tr -d _)
[ -n "$full" ] || { echo "hostprof: unknown workload '$workload'" >&2; exit 2; }
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

cat >"$tmp/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 22)
static unsigned long pcs[MAX_SAMPLES];
static volatile long count;

static void on_prof(int sig, siginfo_t *info, void *context) {
  ucontext_t *uc = context;
  (void)sig;
  (void)info;
  if (count < MAX_SAMPLES) {
#if defined(__x86_64__)
    pcs[count++] = uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    pcs[count++] = uc->uc_mcontext.pc;
#endif
  }
}

__attribute__((constructor)) static void start(void) {
  struct sigaction sa;
  struct itimerval it = {{0, 1000}, {0, 1000}};
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  setitimer(ITIMER_PROF, &it, NULL);
}

/* Writes the process's mappings, then one sampled pc per line. */
__attribute__((destructor)) static void stop(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  const char *path = getenv("HOSTPROF_OUT");
  char line[4096];
  FILE *out, *maps;
  setitimer(ITIMER_PROF, &off, NULL);
  if (!path || !(out = fopen(path, "w"))) return;
  if ((maps = fopen("/proc/self/maps", "r"))) {
    while (fgets(line, sizeof line, maps)) fprintf(out, "map %s", line);
    fclose(maps);
  }
  for (long i = 0; i < count; i++) fprintf(out, "pc %lx\n", pcs[i]);
  fclose(out);
}
EOF
gcc -O2 -shared -fPIC -o "$tmp/sampler.so" "$tmp/sampler.c"

HOSTPROF_OUT="$tmp/samples" LD_PRELOAD="$tmp/sampler.so" \
  "$exe" --child --workload "$workload" --seed "$seed" --per-client "$full" >/dev/null

# Text symbols of the executable, as "address name", sorted by address.
# Weak ones count too: the runtime defines caml_modify and
# caml_initialize weak, and without them their samples would be charged
# to whichever symbol precedes them.
nm "$exe" | awk '$2 ~ /^[TtWw]$/ { print $1, $3 }' | sort >"$tmp/symbols"

awk -v exe_base="$(basename "$exe")" -v symbols="$tmp/symbols" '
  function hex(s,   i, c, v) {
    v = 0
    for (i = 1; i <= length(s); i++) {
      c = index("0123456789abcdef", substr(s, i, 1)) - 1
      v = v * 16 + c
    }
    return v
  }
  BEGIN {
    while ((getline line < symbols) > 0) {
      split(line, f, " ")
      n++
      addr[n] = hex(f[1])
      name[n] = f[2]
    }
  }
  # The executable maps from file offset 0 at its load base; every other
  # mapping is remembered by range for samples outside the executable.
  # Mappings are matched by file name, as the kernel shows the resolved
  # path of a symlinked checkout.
  $1 == "map" {
    split($2, range, "-")
    path = $7
    split(path, parts, "/")
    file = path == "" ? "[anonymous]" : parts[length(parts)]
    if (file == exe_base && $4 == "00000000" && base == "") base = hex(range[1])
    m++
    lo[m] = hex(range[1])
    hi[m] = hex(range[2])
    owner[m] = file
    next
  }
  $1 == "pc" {
    pc = hex($2)
    total++
    fn = "[unmapped]"
    for (i = 1; i <= m; i++)
      if (pc >= lo[i] && pc < hi[i]) { fn = "[" owner[i] "]"; break }
    if (i <= m && owner[i] == exe_base) {
      rel = pc - base
      lo_i = 1; hi_i = n
      while (lo_i < hi_i) {
        mid = int((lo_i + hi_i + 1) / 2)
        if (addr[mid] <= rel) lo_i = mid; else hi_i = mid - 1
      }
      fn = name[lo_i]
    }
    hits[fn]++
  }
  END {
    if (total == 0) { print "hostprof: no samples" > "/dev/stderr"; exit 1 }
    if (base == "") {
      print "hostprof: no mapping of " exe_base " at offset 0" > "/dev/stderr"
      exit 1
    }
    for (fn in hits) {
      module = fn
      if (fn ~ /^caml[A-Z]/) {
        module = substr(fn, 5)
        sub(/\..*/, "", module)
        gsub(/__/, ".", module)
      } else if (fn !~ /^\[/) {
        module = "runtime"
      }
      share[module] += hits[fn]
      printf "fn %d %s\n", hits[fn], fn
    }
    for (mod in share) printf "mod %d %s\n", share[mod], mod
    printf "total %d\n", total
  }
' "$tmp/samples" >"$tmp/report"

total=$(sed -n 's/^total //p' "$tmp/report")
echo "hostprof: $workload seed $seed, $full ops per client, $total samples"
echo "top functions (share of samples):"
sed -n 's/^fn //p' "$tmp/report" | sort -rn | head -25 |
  awk -v t="$total" '{ printf "  %6.2f%%  %s\n", 100 * $1 / t, $2 }'
echo "modules:"
sed -n 's/^mod //p' "$tmp/report" | sort -rn |
  awk -v t="$total" '{ printf "  %6.2f%%  %s\n", 100 * $1 / t, $2 }'
