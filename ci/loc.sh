#!/usr/bin/env bash
# Non-test source lines — the number simplicity PRs quote in CHANGES.md.
# A file counts up to (not including) its first `#[cfg(test)]` line;
# blank lines and comments count, `tests/` directories do not.
#
#   ci/loc.sh             one row per crates/*/src, plus the total
#   ci/loc.sh FILE...     one row per named file
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
    by=file
    files=("$@")
else
    by=crate
    mapfile -t files < <(find crates/*/src -name '*.rs' | sort)
fi

awk -v by="$by" '
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
    }
' "${files[@]}"
