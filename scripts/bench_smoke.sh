#!/usr/bin/env bash
# Bench smoke: run the Figure 7 harness across every remaining
# configuration axis — the dense-streaming reference mode, the unclustered
# edge layout, chunk-granularity serves (block indexing off) and the
# binary-heap event queue — and verify the invariants: stdout
# byte-identical across streaming modes and queue kinds; computed results
# byte-identical across chunk layouts and block granularities via the
# states digest. Wall-clock timings plus the hot-path metrics (record
# throughput, chunk- and block-level skip counts) land in the output file
# (default target/bench_smoke.json), including the same-window A/B of
# block-indexed serves vs --block-records 0. The timings are a record, not
# a gate — one `date` delta cannot tell a regression from host drift;
# host-time claims are measured with chaos-perf (chaos-perf/README.md).
#
# A fig13 pass then measures checkpoint overhead (two-phase vertex
# snapshots at every gather barrier, HDD cluster): each algorithm's
# simulated checkpoint-on/checkpoint-off runtime ratio must stay under
# 15% — the recovery machinery (now including checksum frames and the
# checkpoint-validation round) may not tax fault-free runs.
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
EXPERIMENT="${BENCH_EXPERIMENT:-fig7}"

cargo build --release -p chaos-bench --bin figures --bin cellstats

BIN=./target/release/figures
SEQ_OUT=$(mktemp)
REF_OUT=$(mktemp)
FLAT_OUT=$(mktemp)
NOBLOCK_OUT=$(mktemp)
HEAP_OUT=$(mktemp)
CKPT_OUT=$(mktemp)
CELL_CLEAN=$(mktemp)
CELL_DIRTY=$(mktemp)
ERR_LOG=$(mktemp)
trap 'rm -f "$SEQ_OUT" "$REF_OUT" "$FLAT_OUT" "$NOBLOCK_OUT" "$HEAP_OUT" "$CKPT_OUT" "$CELL_CLEAN" "$CELL_DIRTY" "$ERR_LOG"' EXIT

# Keep stderr (panics, asserts) out of the compared output but dump it on
# failure so CI logs show *why* a run died, not just that it did.
run_mode() {
    local out="$1" err="$2"
    shift 2
    if ! "$BIN" "$EXPERIMENT" "$@" >"$out" 2>"$err"; then
        echo "FAIL: $EXPERIMENT $* exited nonzero; stderr:" >&2
        cat "$err" >&2
        exit 1
    fi
}

t0=$(date +%s.%N)
run_mode "$HEAP_OUT" "$ERR_LOG" --queue heap
t1=$(date +%s.%N)
run_mode "$SEQ_OUT" "$ERR_LOG"
t2=$(date +%s.%N)
run_mode "$REF_OUT" "$ERR_LOG" --streaming reference
t3=$(date +%s.%N)
run_mode "$FLAT_OUT" "$ERR_LOG" --cluster-bins 1
t4=$(date +%s.%N)
run_mode "$NOBLOCK_OUT" "$ERR_LOG" --block-records 0
t5=$(date +%s.%N)

# Checkpoint-overhead measurement (fig13: per-barrier two-phase vertex
# snapshots on the HDD cluster). Simulated, so the ratio is
# host-independent — gate it hard at <15% per algorithm.
if ! "$BIN" fig13 >"$CKPT_OUT" 2>"$ERR_LOG"; then
    echo "FAIL: fig13 exited nonzero; stderr:" >&2
    cat "$ERR_LOG" >&2
    exit 1
fi
t6=$(date +%s.%N)

# Integrity byte-compare: the same cell fault-free and under a generated
# fault schedule (crashes + torn writes + device/fabric/corruption
# windows). The computed states must be identical, and the frame checks
# must actually fire: a gate that never detects anything gates nothing.
CELL=./target/release/cellstats
FAULT_SEED="${BENCH_FAULT_SEED:-2}"
"$CELL" PR 4 12 >"$CELL_CLEAN" 2>"$ERR_LOG" \
    || { echo "FAIL: fault-free cellstats run died" >&2; cat "$ERR_LOG" >&2; exit 1; }
"$CELL" PR 4 12 --scrub --fault-seed "$FAULT_SEED" >"$CELL_DIRTY" 2>"$ERR_LOG" \
    || { echo "FAIL: corruption-seeded cellstats run died" >&2; cat "$ERR_LOG" >&2; exit 1; }
t7=$(date +%s.%N)
CLEAN_DIGEST=$(grep '^states digest:' "$CELL_CLEAN" || true)
DIRTY_DIGEST=$(grep '^states digest:' "$CELL_DIRTY" || true)
if [ -z "$CLEAN_DIGEST" ] || [ "$CLEAN_DIGEST" != "$DIRTY_DIGEST" ]; then
    echo "FAIL: corruption-seeded run computed different results" >&2
    echo "fault-free: $CLEAN_DIGEST" >&2
    echo "seeded:     $DIRTY_DIGEST" >&2
    exit 1
fi
echo "OK: corruption-seeded results are byte-identical to fault-free (seed $FAULT_SEED)"
INTEGRITY=$(sed -n 's/^integrity: //p' "$CELL_DIRTY" | tail -1)
CORR_DETECTED=$(sed -n 's/^integrity: \([0-9]*\) corruptions detected.*/\1/p' "$CELL_DIRTY")
CORR_DETECTED=${CORR_DETECTED:-0}
CORR_REPAIRED=$(sed -n 's/.* detected, \([0-9]*\) repaired.*/\1/p' "$CELL_DIRTY")
CORR_REPAIRED=${CORR_REPAIRED:-0}
FRAMES_SCRUBBED=$(sed -n 's/.* repaired, \([0-9]*\) frames scrubbed.*/\1/p' "$CELL_DIRTY")
FRAMES_SCRUBBED=${FRAMES_SCRUBBED:-0}
CHECKSUM_BYTES=$(sed -n 's/.* scrubbed, \([0-9]*\) checksum bytes.*/\1/p' "$CELL_DIRTY")
CHECKSUM_BYTES=${CHECKSUM_BYTES:-0}
if [ "$CORR_DETECTED" -lt 1 ] || [ "$CORR_REPAIRED" -lt 1 ]; then
    echo "FAIL: seed $FAULT_SEED never exercised the detect-repair ladder ($INTEGRITY)" >&2
    exit 1
fi
echo "OK: frame checks fired — $INTEGRITY"

check_identical() {
    local other="$1" what="$2"
    if ! cmp -s "$SEQ_OUT" "$other"; then
        echo "FAIL: $EXPERIMENT output differs $what" >&2
        diff "$SEQ_OUT" "$other" | head -40 >&2
        exit 1
    fi
    echo "OK: $EXPERIMENT output is byte-identical $what"
}
check_identical "$HEAP_OUT" "between the calendar and binary-heap event queues"
check_identical "$REF_OUT" "vs the dense-streaming reference mode"

# Across layouts — cluster bins and block granularity alike — the timings
# and skip counts legitimately differ (narrow windows and block indexes
# skip more), but the computed results may not: the per-figure "states
# digest" lines fingerprint every cell's final vertex states.
check_digest() {
    local other="$1" what="$2"
    local seq_digest other_digest
    seq_digest=$(grep '^states digest:' "$SEQ_OUT" || true)
    other_digest=$(grep '^states digest:' "$other" || true)
    if [ -z "$seq_digest" ] || [ "$seq_digest" != "$other_digest" ]; then
        echo "FAIL: $EXPERIMENT computed different results $what" >&2
        echo "default: $seq_digest" >&2
        echo "other:   $other_digest" >&2
        exit 1
    fi
    echo "OK: $EXPERIMENT results are byte-identical $what"
}
check_digest "$FLAT_OUT" "across clustered/unclustered layouts"
check_digest "$NOBLOCK_OUT" "across block-indexed/chunk-granularity serves"

# Overhead column of the fig13 table, e.g. "+3.2%" — take the worst
# algorithm. The gate is on simulated time, so it holds on any host.
CKPT_OVERHEAD=$(grep -o '[+-][0-9.]*%' "$CKPT_OUT" | tr -d '+%' | sort -g | tail -1)
CKPT_OVERHEAD=${CKPT_OVERHEAD:-0}
python3 - "$CKPT_OVERHEAD" <<'PY'
import sys
worst = float(sys.argv[1])
limit = 15.0
status = "OK" if worst < limit else "FAIL"
print(f"{status}: worst checkpoint overhead {worst:+.1f}% (limit <{limit:.0f}%)")
sys.exit(0 if worst < limit else 1)
PY

HEAP_S=$(python3 -c "print(f'{$t1 - $t0:.2f}')")
SEQ_S=$(python3 -c "print(f'{$t2 - $t1:.2f}')")
REF_S=$(python3 -c "print(f'{$t3 - $t2:.2f}')")
FLAT_S=$(python3 -c "print(f'{$t4 - $t3:.2f}')")
NOBLOCK_S=$(python3 -c "print(f'{$t5 - $t4:.2f}')")
CKPT_S=$(python3 -c "print(f'{$t6 - $t5:.2f}')")
INTEGRITY_S=$(python3 -c "print(f'{$t7 - $t6:.2f}')")
NCPU=$(nproc 2>/dev/null || echo 0)
# The fig7 harness prints the records-streamed/skipped totals (simulated,
# mode-invariant quantities); throughput = records per wall-second of
# the default run. The same-window A/B: the chunk-granularity run's streamed
# count shows what the block indexes saved this very invocation.
RECORDS=$(sed -n 's/^records streamed: \([0-9]*\)$/\1/p' "$SEQ_OUT" | tail -1)
RECORDS=${RECORDS:-0}
SKIPPED=$(sed -n 's/^records skipped: \([0-9]*\)$/\1/p' "$SEQ_OUT" | tail -1)
SKIPPED=${SKIPPED:-0}
SKIPPED_MID=$(sed -n 's/^records skipped mid-wavefront: \([0-9]*\)$/\1/p' "$SEQ_OUT" | tail -1)
SKIPPED_MID=${SKIPPED_MID:-0}
BLOCKS_SKIPPED=$(sed -n 's/^blocks skipped: \([0-9]*\)$/\1/p' "$SEQ_OUT" | tail -1)
BLOCKS_SKIPPED=${BLOCKS_SKIPPED:-0}
SKIPPED_INTRA=$(sed -n 's/^records skipped intra-chunk: \([0-9]*\)$/\1/p' "$SEQ_OUT" | tail -1)
SKIPPED_INTRA=${SKIPPED_INTRA:-0}
NOBLOCK_RECORDS=$(sed -n 's/^records streamed: \([0-9]*\)$/\1/p' "$NOBLOCK_OUT" | tail -1)
NOBLOCK_RECORDS=${NOBLOCK_RECORDS:-0}
THROUGHPUT=$(python3 -c "print(f'{$RECORDS / ($t2 - $t1):.0f}')")
cat >"$OUT_JSON" <<EOF
{
  "experiment": "$EXPERIMENT",
  "scale": "quick",
  "wall_seconds": $SEQ_S,
  "reference_streaming_seq_wall_seconds": $REF_S,
  "unclustered_layout_seq_wall_seconds": $FLAT_S,
  "chunk_granular_seq_wall_seconds": $NOBLOCK_S,
  "heap_queue_seq_wall_seconds": $HEAP_S,
  "records_streamed": $RECORDS,
  "records_streamed_without_blocks": $NOBLOCK_RECORDS,
  "records_skipped": $SKIPPED,
  "records_skipped_mid_wavefront": $SKIPPED_MID,
  "blocks_skipped": $BLOCKS_SKIPPED,
  "records_skipped_intra_chunk": $SKIPPED_INTRA,
  "records_per_wall_second_seq": $THROUGHPUT,
  "fig13_wall_seconds": $CKPT_S,
  "checkpoint_overhead_worst_pct": $CKPT_OVERHEAD,
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
