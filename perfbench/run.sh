#!/usr/bin/env bash
# Builds the shipped `sls-serve` binary and the benchmark from source, then
# runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve_wide --seed 1 --seconds 20 --trace 0
#
# The last line of standard output is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# Build output goes to stderr so standard output stays the report.
cargo build --release --offline --quiet -p sls-serve --bin sls-serve 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/perfbench" --sls-serve "$CARGO_TARGET_DIR/release/sls-serve" "$@"
