#!/usr/bin/env bash
# A/A check: one build measured against itself, the two sides' runs
# interleaved, then `compare` on the pair. Exit 0 means every exact metric
# repeated, every gated metric stayed inside its bound and none was
# unresolved (3: only unresolved pairs; 1: a regression or drift).
#
#   benchmarks/aa.sh [out-dir] [flags for `accbench all`, e.g. --runs 5 --seed 7]
set -euo pipefail

out=${1:-benchmarks/out/aa}
shift || true
exe=${CARGO_TARGET_DIR:-benchmarks/accbench/target}/release/accbench
benchmarks/run.sh all --versus "$exe" --out "$out" "$@"
benchmarks/run.sh compare "$out/results.json" "$out/versus/results.json"
