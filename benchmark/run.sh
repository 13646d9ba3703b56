#!/usr/bin/env bash
# The repo benchmark, one command: build the harness, then run it.
#
#   benchmark/run.sh                      all four workloads, end to end
#   benchmark/run.sh --traced             all four, per-layer (traced) run
#   benchmark/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#                                         one workload; the last line is
#                                         the JSON result BENCHMARK.json
#                                         describes
#   benchmark/run.sh --repeat-check       the set twice + seed 7, compared
#   benchmark/run.sh --quick              scale 10^4, 3 s: output shape only
#
# Run from anywhere; it works from the repo root, where BENCHMARK.json
# is. Offline: every dependency is a path inside the repo.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml
exec "$target/release/ssd-benchmark" "$@"
