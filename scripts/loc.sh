#!/usr/bin/env bash
# Counts source lines by one rule: every `.rs` file under a `src/`
# directory, up to a trailing `#[cfg(test)] mod tests`; `tests.rs` and
# `alloc_count.rs` (test-only modules) are left out. Prints all lines and
# code lines (non-blank, not a `//` comment) per file and in total.
#
#   scripts/loc.sh                       # src/ and crates/ of the repository
#   scripts/loc.sh crates/core/src/compute_engine.rs crates/core/src
#
# Paths may be files or directories; a file named twice counts once.
set -euo pipefail

if [ $# -eq 0 ]; then
    cd "$(dirname "$0")/.."
    set -- src crates
fi

printf '%7s %7s  %s\n' all code file
find "$@" -name '*.rs' -path '*src/*' ! -path '*/target/*' \
    ! -name tests.rs ! -name alloc_count.rs | sort -u |
while IFS= read -r f; do
    awk '
        # A `#[cfg(test)]` line followed by `mod tests` ends the count.
        held { held = 0; if (/^mod tests/) exit; count(held_line) }
        /^#\[cfg\(test\)\]/ { if (/mod tests/) exit; held = 1; held_line = $0; next }
        { count($0) }
        function count(line,   t) {
            all++
            t = line
            sub(/^[ \t]+/, "", t)
            if (t != "" && t !~ /^\/\//) code++
        }
        END { if (held) count(held_line); printf "%7d %7d  %s\n", all, code, FILENAME }
    ' "$f"
done | awk '{ print; all += $1; code += $2 } END { printf "%7d %7d  total\n", all, code }'
