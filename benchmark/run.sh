#!/usr/bin/env bash
# Builds the benchmark offline and runs every workload, untraced and traced.
#   benchmark/run.sh [--seed N] [--seconds S] [--quick] [--out FILE]
set -euo pipefail
cd "$(dirname "$0")/.."
args=("$@")
[[ " ${args[*]-} " == *" --seed "* ]] || args+=(--seed 1)
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    run --workload all "${args[@]}"
