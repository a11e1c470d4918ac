#!/usr/bin/env bash
# Bench smoke: run every experiment (`figures all`, quick scale) from the
# release build and from a checked build (the release profile with debug
# assertions on, in target/checked), and require each stdout to equal the
# committed golden tests/golden/figures_quick.txt byte for byte. The
# checked build runs every debug_assert!, and its storage engines read
# every chunk and block run selective streaming skips so the compute
# engines can check the activity contract on it: every skip of every
# experiment is proved a no-op, at identical simulated accounting. The
# golden pins every row of every table, fig13's checkpoint overhead
# included, and one states digest per experiment that ran the engine.
# Regenerate it after an intended change with
#   ./target/release/figures all > tests/golden/figures_quick.txt
# and say in the change what moved.
#
# Wall-clock timings plus the hot-path counters (records streamed, chunk-
# and block-level skip counts, summed over every run of every experiment
# from the release run's --metrics-json dump) land in the output file
# (default target/bench_smoke.json). The timings are a record, not a gate
# — one `date` delta cannot tell a regression from host drift; host-time
# claims are measured with chaos-perf (chaos-perf/README.md). Layout
# invariance (unclustered, chunk-granularity serves) and the binary-heap
# event queue are checked by tier-1 tests (tests/clustered_layout.rs,
# tests/queue_equivalence.rs), not here.
#
# An integrity pass then byte-compares a corruption-seeded cellstats run
# (generated fault plan: crashes, torn writes, device/fabric windows and
# silent-corruption windows) against the fault-free run of the same cell
# via their states-digest lines, and requires the frame checks to have
# detected and repaired at least one corruption.
#
# Usage: scripts/bench_smoke.sh [output.json]
set -euo pipefail

cd "$(dirname "$0")/.."
OUT_JSON="${1:-target/bench_smoke.json}"
GOLDEN=tests/golden/figures_quick.txt

cargo build --release -p chaos-bench --bin figures --bin cellstats
CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true CARGO_TARGET_DIR=target/checked \
    cargo build --release -p chaos-bench --bin figures

BIN=./target/release/figures
CHECKED_BIN=./target/checked/release/figures
ALL_OUT=$(mktemp)
ALL_JSON=$(mktemp)
CELL_CLEAN=$(mktemp)
CELL_DIRTY=$(mktemp)
DIRTY_JSON=$(mktemp)
ERR_LOG=$(mktemp)
trap 'rm -f "$ALL_OUT" "$ALL_JSON" "$CELL_CLEAN" "$CELL_DIRTY" "$DIRTY_JSON" "$ERR_LOG"' EXIT

# One --metrics-json counter summed over every run of a dump.
metric() {
    python3 -c 'import json, sys
print(sum(run[sys.argv[2]] for run in json.load(open(sys.argv[1]))["runs"]))' "$1" "$2"
}

# `figures all` from one build must print the golden. Stderr (panics,
# asserts) stays out of the compared output but is dumped on failure so
# CI logs show *why* a run died, not just that it did.
run_all() {
    local bin="$1"
    shift
    if ! "$bin" all "$@" >"$ALL_OUT" 2>"$ERR_LOG"; then
        echo "FAIL: $bin all $* exited nonzero; stderr:" >&2
        cat "$ERR_LOG" >&2
        exit 1
    fi
    if ! cmp -s "$GOLDEN" "$ALL_OUT"; then
        echo "FAIL: $bin all differs from $GOLDEN" >&2
        diff "$GOLDEN" "$ALL_OUT" | head -40 >&2
        exit 1
    fi
    echo "OK: $bin all equals $GOLDEN"
}

t0=$(date +%s.%N)
run_all "$BIN" --metrics-json "$ALL_JSON"
t1=$(date +%s.%N)
run_all "$CHECKED_BIN"
t2=$(date +%s.%N)

# Integrity byte-compare: the same cell fault-free and under a generated
# fault schedule (crashes + torn writes + device/fabric/corruption
# windows). The computed states must be identical, and the frame checks
# must actually fire: a gate that never detects anything gates nothing.
CELL=./target/release/cellstats
FAULT_SEED="${BENCH_FAULT_SEED:-2}"
"$CELL" PR 4 12 >"$CELL_CLEAN" 2>"$ERR_LOG" \
    || { echo "FAIL: fault-free cellstats run died" >&2; cat "$ERR_LOG" >&2; exit 1; }
"$CELL" PR 4 12 --scrub --fault-seed "$FAULT_SEED" --metrics-json "$DIRTY_JSON" \
    >"$CELL_DIRTY" 2>"$ERR_LOG" \
    || { echo "FAIL: corruption-seeded cellstats run died" >&2; cat "$ERR_LOG" >&2; exit 1; }
t3=$(date +%s.%N)
CLEAN_DIGEST=$(grep '^states digest:' "$CELL_CLEAN" || true)
DIRTY_DIGEST=$(grep '^states digest:' "$CELL_DIRTY" || true)
if [ -z "$CLEAN_DIGEST" ] || [ "$CLEAN_DIGEST" != "$DIRTY_DIGEST" ]; then
    echo "FAIL: corruption-seeded run computed different results" >&2
    echo "fault-free: $CLEAN_DIGEST" >&2
    echo "seeded:     $DIRTY_DIGEST" >&2
    exit 1
fi
echo "OK: corruption-seeded results are byte-identical to fault-free (seed $FAULT_SEED)"
CORR_DETECTED=$(metric "$DIRTY_JSON" corruption_detected)
CORR_REPAIRED=$(metric "$DIRTY_JSON" corruption_repaired)
FRAMES_SCRUBBED=$(metric "$DIRTY_JSON" frames_scrubbed)
CHECKSUM_BYTES=$(metric "$DIRTY_JSON" checksum_bytes)
INTEGRITY="$CORR_DETECTED corruptions detected, $CORR_REPAIRED repaired, \
$FRAMES_SCRUBBED frames scrubbed, $CHECKSUM_BYTES checksum bytes"
if [ "$CORR_DETECTED" -lt 1 ] || [ "$CORR_REPAIRED" -lt 1 ]; then
    echo "FAIL: seed $FAULT_SEED never exercised the detect-repair ladder ($INTEGRITY)" >&2
    exit 1
fi
echo "OK: frame checks fired — $INTEGRITY"

SEQ_S=$(python3 -c "print(f'{$t1 - $t0:.2f}')")
CHECKED_S=$(python3 -c "print(f'{$t2 - $t1:.2f}')")
INTEGRITY_S=$(python3 -c "print(f'{$t3 - $t2:.2f}')")
NCPU=$(nproc 2>/dev/null || echo 0)
# Records streamed/skipped summed over every run of every experiment in
# the release run's metrics dump (simulated quantities); throughput =
# records per wall-second of that run.
RECORDS=$(metric "$ALL_JSON" records_streamed)
SKIPPED=$(metric "$ALL_JSON" records_skipped)
SKIPPED_MID=$(metric "$ALL_JSON" records_skipped_mid)
BLOCKS_SKIPPED=$(metric "$ALL_JSON" blocks_skipped)
SKIPPED_INTRA=$(metric "$ALL_JSON" records_skipped_intra)
THROUGHPUT=$(python3 -c "print(f'{$RECORDS / ($t1 - $t0):.0f}')")
cat >"$OUT_JSON" <<EOF
{
  "experiments": "all",
  "scale": "quick",
  "wall_seconds": $SEQ_S,
  "checked_wall_seconds": $CHECKED_S,
  "records_streamed": $RECORDS,
  "records_skipped": $SKIPPED,
  "records_skipped_mid_wavefront": $SKIPPED_MID,
  "blocks_skipped": $BLOCKS_SKIPPED,
  "records_skipped_intra_chunk": $SKIPPED_INTRA,
  "records_per_wall_second_seq": $THROUGHPUT,
  "integrity_wall_seconds": $INTEGRITY_S,
  "corruption_fault_seed": $FAULT_SEED,
  "corruption_detected": $CORR_DETECTED,
  "corruption_repaired": $CORR_REPAIRED,
  "frames_scrubbed": $FRAMES_SCRUBBED,
  "checksum_bytes": $CHECKSUM_BYTES,
  "corruption_identical_output": true,
  "identical_output": true,
  "host_cpus": $NCPU,
  "recorded_utc": "$(date -u +%FT%TZ)"
}
EOF
echo "timings written to $OUT_JSON:"
cat "$OUT_JSON"
