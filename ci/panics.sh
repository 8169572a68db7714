#!/usr/bin/env bash
# Panic sites per crate: `.unwrap()`, `.expect(`, `panic!` and
# `unreachable!` occurrences in non-test code, counted the way
# ci/loc.sh counts lines — a file counts up to (not including) its first
# `#[cfg(test)]` line, `tests/` directories not — except that comment
# lines (`//`, `///`, `//!`: doc examples too) hold no sites.
#
#   ci/panics.sh    one row per crates/*/src with its budget from
#                   ci/panics.max; exits 1 if any crate exceeds its
#                   budget (a crate missing from the file has budget 0).
#                   Budgets may only fall: a PR that removes sites
#                   lowers its crate's number in the same diff.
set -euo pipefail
cd "$(dirname "$0")/.."

mapfile -t files < <(find crates/*/src -name '*.rs' | sort)

awk '
    FILENAME == ARGV[1] { if (NF == 2) max[$2] = $1; next }
    FNR == 1 {
        in_tests = 0
        key = FILENAME
        sub(/\/src\/.*/, "/src", key)
        if (!(key in sites)) { order[++keys] = key; sites[key] = 0 }
    }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && !/^[[:space:]]*\/\// {
        line = $0
        n = gsub(/\.unwrap\(\)|\.expect\(|panic!|unreachable!/, "", line)
        sites[key] += n
        total += n
    }
    END {
        bad = 0
        for (i = 1; i <= keys; i++) {
            k = order[i]
            budget = (k in max) ? max[k] : 0
            flag = sites[k] > budget ? "  exceeds its budget" : ""
            printf "%5d / %-5d %s%s\n", sites[k], budget, k, flag
            if (sites[k] > budget) bad = 1
        }
        printf "%5d         total\n", total
        exit bad
    }
' ci/panics.max "${files[@]}"
