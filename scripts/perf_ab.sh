#!/usr/bin/env bash
# perf_ab.sh — measure a change against its parent commit with chaos-perf,
# the way a host-time claim in this repository has to be measured
# (chaos-perf/README.md, DESIGN.md's "Measured effect" blocks): each side
# builds the chaos-perf of its own tree, both run the same workload, seed
# and run length, and the two binaries run alternately, swapping which
# side goes first each pair, so that a slow phase of the host falls on
# both.
#
# Usage:
#   scripts/perf_ab.sh <parent-rev> <workload> [pairs=10] [seconds=20] [seed=1]
#   scripts/perf_ab.sh HEAD pr_events            # working tree against HEAD
#   scripts/perf_ab.sh HEAD~1 pr_dense 5 20 7    # five pairs on seed 7
#
# The parent is checked out into a local clone under target/perf_ab/ (and
# the clone is removed again on exit); the change is the working tree as
# it stands. Both build into their own target directories under
# target/perf_ab/, where the runs' perf/ directories land too: nothing is
# written outside target/.
#
# Prints every run, then per end-to-end metric (all four are lower-is-
# better): each side's median, the parent's inter-quartile distance (the
# exclusive method, as chaos-perf's suite and Python's statistics.quantiles
# compute it), the ratio change/parent of the medians, and in how many
# pairs the change was the lower side ("n of n pairs"; a tie counts for
# neither). A gain may be claimed when the change wins at least nine tenths
# of the pairs and the medians differ by more than the parent's
# inter-quartile distance. Exits non-zero if any run failed its check.
set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: scripts/perf_ab.sh <parent-rev> <workload> [pairs=10] [seconds=20] [seed=1]" >&2
    exit 2
fi
PARENT_REV=$1
WORKLOAD=$2
PAIRS=${3:-10}
RUN_SECONDS=${4:-20}
SEED=${5:-1}

ROOT=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
cd "$ROOT"
OUT="$ROOT/target/perf_ab"
PARENT_SRC="$OUT/parent-src"
RUNS="$OUT/runs.txt"
mkdir -p "$OUT"

trap 'rm -rf "$PARENT_SRC"' EXIT
rm -rf "$PARENT_SRC" # what an interrupted run left behind
git clone --local --quiet "$ROOT" "$PARENT_SRC"
git -C "$PARENT_SRC" checkout --quiet --detach "$(git rev-parse "$PARENT_REV")"

# build <source tree> <target directory>
build() {
    CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path "$1/chaos-perf/Cargo.toml"
}
echo "building parent ($(git rev-parse --short "$PARENT_REV")) and change ..." >&2
build "$PARENT_SRC" "$OUT/parent-build"
build "$ROOT" "$OUT/change-build"

# run <pair> <side>: one benchmark run; appends "<pair> <side> <metric>
# <value>" lines to $RUNS and echoes them.
FAILED=0
run() {
    local out
    if ! out=$("$OUT/$2-build/release/chaos-perf" \
        --workload "$WORKLOAD" --seed "$SEED" --seconds "$RUN_SECONDS" --trace 0); then
        echo "pair $1: the $2 run failed its check" >&2
        FAILED=1
    fi
    # Metric lines are "<name> <value> <unit> ..."; the summary starts
    # with '#', the result object with '{'.
    echo "$out" | awk -v pair="$1" -v side="$2" \
        '$0 !~ /^[#{]/ && NF >= 2 { print pair, side, $1, $2 }' | tee -a "$RUNS"
}

: >"$RUNS"
for pair in $(seq 1 "$PAIRS"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run "$pair" parent
        run "$pair" change
    else
        run "$pair" change
        run "$pair" parent
    fi
done

echo
echo "== $WORKLOAD, seed $SEED, $PAIRS pairs of ${RUN_SECONDS} s runs, parent $(git rev-parse --short "$PARENT_REV")"
awk '
# The exclusive quartile method over v[1..n], sorted ascending.
function quartile(v, n, i,    m, j, delta) {
    m = n + 1
    j = int(i * m / 4)
    if (j < 1) j = 1
    if (j > n - 1) j = n - 1
    delta = i * m - j * 4
    return (v[j] * (4 - delta) + v[j + 1] * delta) / 4
}
function isort(v, n,    i, j, t) {
    for (i = 2; i <= n; i++) {
        t = v[i]
        for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]
        v[j + 1] = t
    }
}
{
    value[$3, $2, $1] = $4 + 0
    if (!($3 in seen)) { seen[$3] = 1; order[++metrics] = $3 }
    if ($1 > pairs) pairs = $1
}
END {
    printf "%-12s %12s %12s %12s %8s  %s\n", "metric", "parent med", "change med", "parent IQR", "ratio", "change lower in"
    for (k = 1; k <= metrics; k++) {
        name = order[k]
        wins = 0
        for (p = 1; p <= pairs; p++) {
            a[p] = value[name, "parent", p]
            b[p] = value[name, "change", p]
            if (b[p] < a[p]) wins++
        }
        isort(a, pairs)
        isort(b, pairs)
        if (pairs >= 2) {
            iqr = quartile(a, pairs, 3) - quartile(a, pairs, 1)
            ma = quartile(a, pairs, 2)
            mb = quartile(b, pairs, 2)
        } else {
            iqr = 0; ma = a[1]; mb = b[1]
        }
        printf "%-12s %12.6f %12.6f %12.6f %8.3f  %d of %d pairs\n", name, ma, mb, iqr, mb / ma, wins, pairs
    }
}' "$RUNS"
exit "$FAILED"
