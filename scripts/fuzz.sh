#!/usr/bin/env bash
# Differential fuzz campaign: generate random workloads, run each query
# through every {planner} × {exec engine} combination under three
# scheduler shapes (one worker with 4,096-row and 7-row morsels, three
# workers with 7-row morsels) plus the prepared-statement path on the
# served configuration — all under BOTH adaptive-planning settings
# (per-partition specialization + cardinality feedback on, then off):
# 2 × (3 × 4 + 2) = 28 engine runs per query — and through the naive
# oracle, and diff results, error kinds, and partition-elimination
# soundness. The fuzz binary prints its wall time when it finishes. On failure
# the case is shrunk to a minimal reproducer (pinned to the adaptive
# setting that diverged, when one setting alone reproduces it) and
# written to testkit/corpus/.
#
#   scripts/fuzz.sh                          500 cases from seed 1
#   scripts/fuzz.sh --cases 200              200 cases from seed 1
#   scripts/fuzz.sh --seed from-git-sha      base seed from HEAD (CI uses
#                                            this so every push explores a
#                                            fresh region)
#   scripts/fuzz.sh --replay path/to.case    re-run one reproducer
#
# All arguments are forwarded to the fuzz binary (see
# crates/testkit/src/bin/fuzz.rs for the full list).
set -euo pipefail
cd "$(dirname "$0")/.."

args=("$@")
if [[ ${#args[@]} -eq 0 ]]; then
  args=(--cases 500 --seed 1)
fi

cargo build --release -p mpp-testkit --bin fuzz --quiet
exec ./target/release/fuzz "${args[@]}"
