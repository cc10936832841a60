#!/usr/bin/env bash
# Everything the benchmark package checks about itself: formatting,
# lints, its own tests (catalogue vs BENCHMARK.json, exact repeatability
# of two smoke runs per workload, oracle vs brute force), and one smoke
# run of all four workloads through the command line.
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --release --offline --all-targets -- -D warnings
cargo test --release --offline
cargo run --release --quiet --offline -- all --scale smoke >/dev/null
cargo run --release --quiet --offline -- all --scale smoke --trace >/dev/null
echo "benchmark: all checks passed"
