#!/usr/bin/env bash
# Non-test source lines — the number simplicity PRs quote in CHANGES.md.
# A file counts up to (not including) its first `#[cfg(test)]` line;
# blank lines and comments count, `tests/` directories do not.
#
#   ci/loc.sh             one row per crates/*/src, plus the total;
#                         exits 1 if the total exceeds the number in
#                         ci/loc.max ("growth needs a reason": a PR
#                         that grows the tree raises it in its diff)
#   ci/loc.sh FILE...     one row per named file
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
    by=file
    max=0
    files=("$@")
else
    by=crate
    max=$(<ci/loc.max)
    mapfile -t files < <(find crates/*/src -name '*.rs' | sort)
fi

awk -v by="$by" -v max="$max" '
    FNR == 1 {
        in_tests = 0
        key = FILENAME
        if (by == "crate") sub(/\/src\/.*/, "/src", key)
        if (!(key in lines)) { order[++keys] = key; lines[key] = 0 }
    }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests { lines[key]++; total++ }
    END {
        for (i = 1; i <= keys; i++) printf "%7d  %s\n", lines[order[i]], order[i]
        printf "%7d  total\n", total
        if (max > 0 && total > max) {
            printf "total exceeds ci/loc.max (%d)\n", max
            exit 1
        }
    }
' "${files[@]}"
