#!/usr/bin/env bash
# Reachability ratchet: every function a workspace library defines is
# linked into a shipped binary, or ci/reach.allow names it with a
# reason. Prints the offenders and exits 1 if there are any.
#
# The shipped binaries are debug builds of `observatory` and `trace`,
# the examples `quickstart`, `stencil` and `tune_k`, and benchmark/'s
# `scc-benchmark`. The script takes the defined text symbols
# (`nm -C --defined-only`) of each workspace rlib except the
# dev-dependency `proptest` shim, strips the hash suffix, keeps what the
# crate owns (its own paths and its impls of workspace traits), drops
# closures, and subtracts every symbol any of the binaries links.
#
# What it cannot see:
# - generic and `#[inline]` functions, which are instantiated in their
#   callers rather than in the rlib that defines them;
# - impls of `core`/`alloc`/`std` traits, dropped so that `#[derive]`
#   glue does not count (a hand-written `Display` escapes with it).
# ci/unused_pub.sh stays for those; it matches names instead.
#
# ci/reach.allow holds one entry per line, `symbol  # reason`; an entry
# ending in `::*` covers every symbol under that path. An entry that
# covers no unlinked symbol (now linked, or no longer defined) is stale
# and fails the script too, so the list can only shrink.
set -euo pipefail
cd "$(dirname "$0")/.."

artifacts() {
    grep -oE '"(executable|filenames)":\[?"[^"]*' | sed 's/.*"//'
}
built=$(cargo build -q --offline --lib --bins --examples --workspace --message-format=json |
    artifacts)
built+=$'\n'$(CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}" cargo build -q \
    --offline --manifest-path benchmark/Cargo.toml --message-format=json | artifacts)
mapfile -t rlibs < <(grep '\.rlib$' <<<"$built" | grep -v '/libproptest[-.]')
mapfile -t bins < <(grep -E '/(observatory|trace|quickstart|stencil|tune_k|scc-benchmark)$' <<<"$built" | sort -u)
[ "${#bins[@]}" -eq 6 ] || { echo "expected 6 shipped binaries, built: ${bins[*]}" >&2; exit 2; }

# Demangled defined text symbols, one per line, hash suffix stripped.
symbols() {
    nm -C --defined-only "$@" 2>/dev/null |
        awk '$2 ~ /^[tTwW]$/ { sub(/^[^ ]+ [^ ]+ /, ""); sub(/::h[0-9a-f]{16}$/, ""); print }'
}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
symbols "${bins[@]}" | sort -u >"$work/linked"
for rlib in "${rlibs[@]}"; do
    crate=$(basename "$rlib" | sed -E 's/^lib([a-z0-9_]+)(-[0-9a-f]+)?\.rlib$/\1/')
    symbols "$rlib" | awk -v c="$crate::" '
        /\{\{closure\}\}/ || / as (core|alloc|std)::/ { next }
        index($0, c) == 1 || index($0, "<" c) == 1 || index($0, " as " c) > 0
    '
done | sort -u >"$work/defined"
comm -23 "$work/defined" "$work/linked" >"$work/unlinked"

awk '
    FILENAME == ARGV[1] {
        if ($0 ~ /^[[:space:]]*(#|$)/) next
        i = index($0, "  # ")
        if (i == 0) { printf "ci/reach.allow:%d: no `  # reason`: %s\n", FNR, $0; bad = 1; next }
        entry[++n] = substr($0, 1, i - 1)
        next
    }
    {
        for (k = 1; k <= n; k++) {
            e = entry[k]
            if ($0 == e || (e ~ /::\*$/ && index($0, substr(e, 1, length(e) - 1)) == 1)) {
                used[k] = 1
                next
            }
        }
        print "not linked by a shipped binary: " $0
        bad = 1
    }
    END {
        for (k = 1; k <= n; k++)
            if (!used[k]) { print "stale ci/reach.allow entry (linked or gone): " entry[k]; bad = 1 }
        exit bad
    }
' ci/reach.allow "$work/unlinked"
