#!/usr/bin/env bash
# The repo's benchmark, one command.
#
#   benchmark/run.sh [--seed N] [--seconds S]
#       Build, run each of the four workloads in its own process (the
#       end-to-end window, then the traced pass), print every metric as
#       `workload metric value unit`, check the results and overwrite
#       benchmark/out/latest.json.
#   benchmark/run.sh --twice [--seed N] [--seconds S]
#       Two sets, each the median of three such runs, then --compare them.
#   benchmark/run.sh --compare A.json B.json
#       Relative difference of every end-to-end metric beside its bound;
#       non-zero exit when one differs by more than the bound.
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       One workload, one pass: the form BENCHMARK.json's `command` takes.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

if [ "${1:-}" = "--compare" ]; then
    exec python3 benchmark/suite.py "$@"
fi

# A relative CARGO_TARGET_DIR is relative to the repo root, like cargo's.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$ROOT/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
BIN="$CARGO_TARGET_DIR/release/mpp-benchmark"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$BIN" "$@" --out benchmark/out
    fi
done
exec python3 benchmark/suite.py --bin "$BIN" "$@"
