#!/usr/bin/env bash
# Build accbench (release, offline) and hand it the arguments:
#
#   benchmarks/run.sh run --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmarks/run.sh all [--seed 42] [--runs 5] [--out benchmarks/out]
#   benchmarks/run.sh compare <a/results.json> <b/results.json>
#
# `run` is the command BENCHMARK.json names; its last line of standard
# output is the result object. Run from the root of the repository.
set -euo pipefail

manifest=benchmarks/accbench/Cargo.toml
target=${CARGO_TARGET_DIR:-benchmarks/accbench/target}
export CARGO_TARGET_DIR=$target

# Cargo's progress goes to standard error; standard output is the
# benchmark's alone.
cargo build --release --offline --quiet --manifest-path "$manifest" 1>&2
exec "$target/release/accbench" "$@"
