#!/usr/bin/env bash
# Builds the shipped binaries (qpl-decompose, qpl-serve) and the benchmark
# from source, then runs one benchmark workload from the repository root:
#
#   bash qplbench/run.sh --workload rows-gds --seed 1 --seconds 30 --trace 0
#
# Build artefacts go to $CARGO_TARGET_DIR (default .bench_build); the
# benchmark finds the binaries next to its own executable.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin qpl-decompose --bin qpl-serve
cargo build --release --offline --quiet --manifest-path qplbench/Cargo.toml
# Not `exec`: the benchmark reads its children's peak RSS from
# getrusage(RUSAGE_CHILDREN), which must not include the compilers above.
"$CARGO_TARGET_DIR/release/qplbench" "$@"
