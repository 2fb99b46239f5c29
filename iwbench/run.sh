#!/usr/bin/env bash
# Build iwbench from source, offline, and run it with the given arguments:
#   iwbench/run.sh --workload dense_http --seed 7 --seconds 20 --trace 0
#   iwbench/run.sh suite --out results.json
# Runs from the repository root, so BENCHMARK.json and a relative
# CARGO_TARGET_DIR resolve there. Never pass --locked: the lock file is
# generated, and the path crates' dependencies change under it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-iwbench/target}"
cargo build --release --offline --quiet --manifest-path iwbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/iwbench" "$@"
