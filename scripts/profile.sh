#!/usr/bin/env bash
# profile.sh — wrap the gprofng collect/display recipe (perf and valgrind
# are unavailable in the dev container; gprofng runs). Mind how little it
# sees there: `gprofng collect` returns 40 to 60 samples for a 5 s
# chaos-perf run, with or without `-p hi`, which is too few to rank
# anything — a function at 10% is five samples. Use it for minutes-long
# commands (a whole fig7), or to learn that one function dominates. For a
# chaos-perf workload use scripts/pcsample.sh instead: a 250 Hz SIGPROF
# program-counter sampler (about 2000 samples per 8 s run) that needs no
# patched copy of any tree; DESIGN.md's "Measured effect (PR 17)" shares
# came from it.
#
# Usage:
#   scripts/profile.sh <command...>
#   scripts/profile.sh ./target/release/cellstats MCST 16 16
#   PROFILE_TOP=40 scripts/profile.sh ./target/release/figures fig7
#
# Collects into a throwaway experiment directory and prints the top
# functions by exclusive CPU time. Build the target with --release first;
# debug-symbol-bearing release builds (the workspace default) give named
# frames.
set -euo pipefail

if [ $# -lt 1 ]; then
    echo "usage: scripts/profile.sh <command...>" >&2
    echo "e.g.:  scripts/profile.sh ./target/release/cellstats MCST 16 16" >&2
    exit 2
fi
if ! command -v gprofng >/dev/null 2>&1; then
    echo "error: gprofng not found on PATH (binutils' profiler)" >&2
    exit 1
fi

TOP="${PROFILE_TOP:-30}"
ER_DIR=$(mktemp -d)/profile.er
trap 'rm -rf "$(dirname "$ER_DIR")"' EXIT

echo "collecting into $ER_DIR ..." >&2
gprofng collect app -o "$ER_DIR" "$@" >&2

echo
echo "=== top $TOP functions by exclusive CPU time ==="
gprofng display text -limit "$TOP" -functions "$ER_DIR"
