#!/usr/bin/env bash
# Build the `qnc` server and the benchmark from this checkout's sources,
# then run one workload:
#
#   bash perfbench/run.sh --workload <bulk-1024|standalone-256|zoo-32> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); logs and
# span dumps go to $CARGO_TARGET_DIR/perfbench. Only the last stdout line
# is the machine-readable result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline -p qn-serve --bin qnc >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --qnc "$CARGO_TARGET_DIR/release/qnc" \
    --out "$CARGO_TARGET_DIR/perfbench" \
    "$@"
