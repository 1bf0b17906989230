#!/usr/bin/env bash
# The whole benchmark: six workloads x 5 repeats, then one traced run each.
# Prints every metric and writes benchmark/out/result.json. Arguments are
# passed on, e.g. `benchmark/run.sh --seed 7 --repeats 3`, `--smoke`.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- run "$@"
