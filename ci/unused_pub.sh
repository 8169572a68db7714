#!/usr/bin/env bash
# Dead-API ratchet: every `pub fn` / `pub(crate) fn` name defined under
# crates/*/src must occur somewhere in the workspace, its tests and
# examples or the benchmark other than right after the keyword `fn`.
# Prints the offenders and exits 1 if there are any.
#
# A ratchet, not a proof: it matches names, not paths, so a name shared
# with a used function, mentioned in a comment, or provided by a trait
# impl (`RmaExt` methods and the like) escapes it.
set -euo pipefail
cd "$(dirname "$0")/.."

defined=$(grep -rhoE --include='*.rs' 'pub(\(crate\))? fn [A-Za-z0-9_]+' crates/*/src |
    awk '{ print $NF }' | sort -u)
used=$(find crates src tests examples benchmark/src -name '*.rs' -print0 | xargs -0 cat |
    sed -E 's/(^|[^A-Za-z0-9_])fn [A-Za-z0-9_]+//g' | grep -owFf <(echo "$defined") | sort -u)
unused=$(comm -23 <(echo "$defined") <(echo "$used"))
if [ -n "$unused" ]; then
    echo "pub fn names nobody calls:" >&2
    echo "$unused"
    exit 1
fi
