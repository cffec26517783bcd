#!/usr/bin/env bash
# Builds the release `decisive` CLI and the benchmark harness into one
# target directory ($CARGO_TARGET_DIR, else the repository's target/),
# then runs the harness with the given arguments:
#
#   bash e2ebench/run.sh --workload montecarlo --seed 1 --seconds 20 --trace 0
#
# Outside a checkout of the repository the first build fails, so the
# script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p decisive --bin decisive --target-dir "$target"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target"
# Not exec'd: the harness reads its children's peak RSS, which must not
# include the compilers this shell waited for.
"$target/release/decisive-bench" "$@"
