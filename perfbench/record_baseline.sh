#!/usr/bin/env bash
# Record a baseline: two untraced runs and one traced run of every workload
# at one seed, appended as JSON lines to perfbench/results/baseline.jsonl
# with the commit, seed and core count they were measured with.
#
#   perfbench/record_baseline.sh [SEED] [SECONDS]
#
# Run from the repository root.
set -euo pipefail
seed="${1:-42}"
seconds="${2:-20}"
cargo build --quiet --release --offline --manifest-path perfbench/Cargo.toml
exe="${CARGO_TARGET_DIR:-perfbench/target}/release/xpdl-perfbench"
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then commit="$commit+dirty"; fi
nproc="$(nproc)"
mkdir -p perfbench/results
for workload in build_fleet query_json query_binary query_reload; do
  for run in 1 2 traced; do
    trace=0
    if [ "$run" = traced ]; then trace=1; fi
    result="$("$exe" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1)"
    printf '{"workload":"%s","run":"%s","seed":%s,"seconds":%s,"trace":%s,"commit":"%s","nproc":%s,"date":"%s","result":%s}\n' \
      "$workload" "$run" "$seed" "$seconds" "$trace" "$commit" "$nproc" "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$result" \
      >> perfbench/results/baseline.jsonl
  done
done
