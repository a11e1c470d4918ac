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
# A sample outside the executable (libc's memmove, a system call in progress)
# is named after its mapping and the exported symbol it lies in, and charged
# to the code that called in: "[libc.so.6 write] <- ...::FileBacking::append".
# The caller is the first of the thirty-two words at the sampled stack
# pointer that points into the executable's text — exact for leaf routines
# and system-call stubs, which have pushed nothing; a guess a frame or two
# deeper (realloc's memcpy needs more than sixteen words to reach
# `finish_grow`), where a stale word can point into the text as well. A
# routine libc does not export (the memmove variants behind the `memmove`
# resolver) shows as the offset of its 4 KiB page, so that its samples still
# add up; a third table sums the outside samples by mapping and symbol alone.
#
# Everything (the shim, the build, the samples, the benchmark's perf/
# directory) lands under target/pcsample/. Skips, exit 0, when `cc` or
# `addr2line` is missing; without `nm` every library symbol is an offset.
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
rm -f pcsample.out addresses.txt tags.txt
LD_PRELOAD="$OUT/pcsample.so" "$EXE" \
    --workload "$WORKLOAD" --seed "$SEED" --seconds "$RUN_SECONDS" --trace 0 >run.txt
grep -v '^{' run.txt >&2

# One line per sample into addresses.txt (what addr2line resolves) and one
# into tags.txt (what the sample is charged to besides). A position-
# independent file's addresses are the sampled ones minus where its first
# mapping starts. A sample in the executable is its own address and no tag;
# one anywhere else is tagged with its mapping and symbol, and its address
# is the caller's: the first stack word that is a return address into the
# executable's text, less one to land inside the call instruction (0, which
# resolves to "??", when there is none). Addresses are below 2^48, which
# awk's doubles hold exactly.
awk -v exe="$EXE" '
    function hex(s,    i, n) {
        n = 0
        for (i = 1; i <= length(s); i++)
            n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
        return n
    }
    # The exported functions of a mapped file, by address; aliases
    # (__write, write) keep the shortest name. The resolvers of indirect
    # functions (type i) are not the code that runs, so they are left out.
    function load_symbols(path,    cmd, row, f, n, at) {
        symbols[path] = 0
        if (path !~ /^\//) return
        cmd = "nm -D -S -n --defined-only \"" path "\" 2>/dev/null"
        while ((cmd | getline row) > 0) {
            if (split(row, f, " ") != 4 || f[3] !~ /^[TtWw]$/) continue
            sub(/@.*/, "", f[4])
            at = hex(f[1])
            n = symbols[path]
            if (n && sym_lo[path, n] == at) {
                if (length(f[4]) < length(sym_name[path, n])) sym_name[path, n] = f[4]
                continue
            }
            n = ++symbols[path]
            sym_lo[path, n] = at
            sym_hi[path, n] = at + hex(f[2])
            sym_name[path, n] = f[4]
        }
        close(cmd)
    }
    function symbol(path, at,    lo, hi, mid) {
        if (!(path in symbols)) load_symbols(path)
        lo = 1
        hi = symbols[path]
        while (lo < hi) {
            mid = int((lo + hi + 1) / 2)
            if (sym_lo[path, mid] <= at) lo = mid; else hi = mid - 1
        }
        if (hi && at >= sym_lo[path, lo] && at < sym_hi[path, lo]) return sym_name[path, lo]
        return sprintf("+0x%x", at - at % 4096)
    }
    $1 == "M" {
        split($2, range, "-")
        lo[++maps] = hex(range[1])
        hi[maps] = hex(range[2])
        name[maps] = $7 == "" ? "[anonymous]" : $7
        if (!(name[maps] in first)) first[name[maps]] = lo[maps]
        if ($7 == exe && $3 ~ /x/) { text_lo = lo[maps]; text_hi = hi[maps] }
    }
    $1 == "S" {
        pc = hex($2)
        for (m = 1; m <= maps && !(pc >= lo[m] && pc < hi[m]); m++);
        if (m <= maps && name[m] == exe) {
            printf "%x\n", pc - first[exe] >"addresses.txt"
            print "" >"tags.txt"
            next
        }
        where = m <= maps ? name[m] : "[unmapped]"
        if (where ~ /^\//) {
            file = where
            sub(".*/", "", file)
            where = "[" file " " symbol(where, pc - first[where]) "]"
        }
        caller = 0
        for (w = 3; w <= NF && !caller; w++) {
            word = hex($w)
            if (word > text_lo && word <= text_hi) caller = word - 1 - first[exe]
        }
        printf "%x\n", caller >"addresses.txt"
        print where >"tags.txt"
    }' pcsample.out
touch addresses.txt tags.txt
TOTAL=$(wc -l <addresses.txt)
if [ "$TOTAL" -eq 0 ]; then
    echo "pcsample: no samples in $OUT/pcsample.out" >&2
    exit 1
fi

echo
echo "== $WORKLOAD, seed $SEED, ${RUN_SECONDS} s: $TOTAL samples at 250 Hz"
# addr2line -a -f -i prints, per address: the address, then a function line
# and a file:line line for the innermost inlined function, its caller, and
# so on out to the function the code was emitted into. The n-th record
# belongs to the n-th line of tags.txt, read first.
addr2line -a -f -i -C -e "$EXE" <addresses.txt | sed -E 's/::h[0-9a-f]{16}$//' |
    awk -v total="$TOTAL" -v top="$TOP" '
    function flush(    tag) {
        if (!n) return
        tag = tags[record]
        if (tag == "") {
            inner[line[1]]++
            outer[line[n - 1]]++
        } else {
            outside[tag]++
            inner[line[1] == "??" ? tag : tag " <- " line[1]]++
            outer[line[1] == "??" ? tag : tag " <- " line[n - 1]]++
        }
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
    FILENAME == "tags.txt" { tags[FNR] = $0; next }
    /^0x[0-9a-f]+$/ { flush(); record++; next }
    { line[++n] = $0 }
    END {
        flush()
        table("outermost function (the symbol the address lies in)", outer)
        table("innermost inlined function (where the instruction came from)", inner)
        table("mapping and exported symbol, outside the executable only", outside)
    }' tags.txt -
