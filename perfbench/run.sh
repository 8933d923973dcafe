#!/usr/bin/env bash
# Build the `inrpp` binary and the benchmark from source, then run one
# benchmark workload. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds go to $CARGO_TARGET_DIR (default .bench_build); cargo's output
# goes to stderr so the result line stays last on stdout.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --offline --release --quiet -p inrpp-bench --bin inrpp >&2
cargo build --offline --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --inrpp "$target/release/inrpp" "$@"
