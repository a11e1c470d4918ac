#!/usr/bin/env bash
# pcsample.sh — which functions does a chaos-perf workload spend its CPU
# time in? A 250 Hz program-counter sampler that needs nothing patched into
# any tree: the benchmark is built as it stands, only with line tables
# (CARGO_PROFILE_RELEASE_DEBUG=line-tables-only: same code generation, no
# frame pointers, no manifest edit), run with scripts/pcsample.c preloaded,
# and every sampled address is resolved with `addr2line -i`, which names
# both the function whose machine code the address lies in and the chain
# of functions inlined into it at that point.
#
# Usage:
#   scripts/pcsample.sh <workload> [seconds=8] [seed=1]
#   scripts/pcsample.sh bfs_selective
#   scripts/pcsample.sh pr_dense 20 7
#
# Prints the share of samples by outermost function (the symbol the address
# lies in: what remains a function after inlining) and by innermost inlined
# function (the source function the instruction came from). The samples
# cover the whole process — graph generation, cluster set-up, the timed run
# and the oracle check — which is how set-up cost shows up at all. To compare
# two commits, run the script in a checkout of each.
#
# Everything (the shim, the build, the samples, the benchmark's perf/
# directory) lands under target/pcsample/. Skips, exit 0, when `cc` or
# `addr2line` is missing.
set -euo pipefail

if [ $# -lt 1 ]; then
    echo "usage: scripts/pcsample.sh <workload> [seconds=8] [seed=1]" >&2
    exit 2
fi
WORKLOAD=$1
RUN_SECONDS=${2:-8}
SEED=${3:-1}
TOP=15

for tool in cc addr2line; do
    if ! command -v "$tool" >/dev/null 2>&1; then
        echo "pcsample: skipped, there is no $tool on PATH" >&2
        exit 0
    fi
done

ROOT=$(cd "$(dirname "$0")/.." && pwd)
OUT="$ROOT/target/pcsample"
EXE="$OUT/release/chaos-perf"
mkdir -p "$OUT"

cc -O2 -shared -fPIC -o "$OUT/pcsample.so" "$ROOT/scripts/pcsample.c"
CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_TARGET_DIR="$OUT" \
    cargo build --release --offline --quiet --manifest-path "$ROOT/chaos-perf/Cargo.toml"

# The shim writes pcsample.out into the working directory.
cd "$OUT"
rm -f pcsample.out addresses.txt elsewhere.txt
LD_PRELOAD="$OUT/pcsample.so" "$EXE" \
    --workload "$WORKLOAD" --seed "$SEED" --seconds "$RUN_SECONDS" --trace 0 >run.txt
grep -v '^{' run.txt >&2

# Sort the samples by the mapping they fall in. The executable is
# position-independent, so an address in it is the sampled one minus where
# its first mapping starts; a sample anywhere else (libc's memmove, the
# vdso, a system call in progress) is charged to that mapping by name.
# Addresses are below 2^48, which awk's doubles hold exactly.
awk -v exe="$EXE" '
    function hex(s,    i, n) {
        n = 0
        for (i = 1; i <= length(s); i++)
            n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
        return n
    }
    $1 == "M" {
        split($2, range, "-")
        lo[++maps] = hex(range[1])
        hi[maps] = hex(range[2])
        name[maps] = $7 == "" ? "anonymous" : $7
        if ($7 == exe && !base) base = lo[maps]
    }
    $1 == "S" {
        pc = hex($2)
        for (m = 1; m <= maps && !(pc >= lo[m] && pc < hi[m]); m++);
        if (m <= maps && name[m] == exe) {
            printf "%x\n", pc - base >"addresses.txt"
        } else {
            where = m <= maps ? name[m] : "unmapped"
            sub(".*/", "", where)
            print "[" where "]" >"elsewhere.txt"
        }
    }' pcsample.out
touch addresses.txt elsewhere.txt
TOTAL=$(($(wc -l <addresses.txt) + $(wc -l <elsewhere.txt)))
if [ "$TOTAL" -eq 0 ]; then
    echo "pcsample: no samples in $OUT/pcsample.out" >&2
    exit 1
fi

echo
echo "== $WORKLOAD, seed $SEED, ${RUN_SECONDS} s: $TOTAL samples at 250 Hz"
# addr2line -a -f -i prints, per address: the address, then a function line
# and a file:line line for the innermost inlined function, its caller, and
# so on out to the function the code was emitted into. A sample outside
# the executable joins the stream as a one-frame record named after its
# mapping.
{
    addr2line -a -f -i -C -e "$EXE" <addresses.txt | sed -E 's/::h[0-9a-f]{16}$//'
    sed 's/.*/0x0\n&\n??:0/' elsewhere.txt
} | awk -v total="$TOTAL" -v top="$TOP" '
    function flush() {
        if (n) { inner[line[1]]++; outer[line[n - 1]]++ }
        n = 0
    }
    function table(title, count,    name, f, k) {
        printf "\n-- share of all samples by %s\n", title
        for (k = 1; k <= top; k++) {
            name = ""
            for (f in count) if (name == "" || count[f] > count[name]) name = f
            if (name == "") break
            printf "%6.1f%% %6d  %s\n", 100 * count[name] / total, count[name], name
            delete count[name]
        }
    }
    /^0x[0-9a-f]+$/ { flush(); next }
    { line[++n] = $0 }
    END {
        flush()
        table("outermost function (the symbol the address lies in)", outer)
        table("innermost inlined function (where the instruction came from)", inner)
    }'
