#!/usr/bin/env bash
# Builds the benchmark offline and runs it. With no arguments: every
# workload, end-to-end metrics. See README.md for the rest.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/bench_e2e" "$@"
