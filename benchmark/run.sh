#!/usr/bin/env bash
# The repo benchmark's one command.
#
#   benchmark/run.sh                      every workload, untraced then traced
#   benchmark/run.sh --seed N             ... with another seed
#   benchmark/run.sh --aa                 ... twice, and compare the two passes
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run; last line is the JSON result
#
# Builds the benchmark package in release (offline; path dependencies on
# ../crates only) and runs it from the repo root. The build is not
# pinned; the benchmark pins itself to one CPU before it spawns a thread.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2
exec "$target/release/scc-benchmark" "$@"
