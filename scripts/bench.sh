#!/usr/bin/env bash
# Hot-path benchmark suite for the per-row expression / routing work:
#
#   expr_eval   criterion bench: interpreted vs compiled evaluation on
#               the three fast-path filter shapes over 100k rows, plus
#               partition routing at 64 vs 1024 range partitions.
#               Appends a JSON record to results/BENCH_expr.json and
#               asserts the acceptance thresholds (compiled >= 2x on
#               col-op-const; 1024-way routing sublinear vs 64-way).
#   table2      the paper's Table 2 scan-overhead binary in --quick
#               mode, to catch SELECT-with-predicate regressions in
#               either execution mode.
#   bench_qps   statement throughput at 1/4/16 concurrent sessions:
#               unprepared (re-plan every call) vs the session layer's
#               plan cache vs explicit prepared statements. Appends a
#               JSON record to results/BENCH_qps.json and asserts plan
#               reuse beats re-planning at every session count.
#   batch_pipeline
#               vectorized block engine vs row-at-a-time engine on a
#               scan+filter+agg pipeline over 10k/100k/1M rows x
#               4/64/1024 partitions, both exec modes, plus the
#               skewed-partition scheduler benchmark (one partition
#               holding ~92% of 400k rows, 4 segments) and the
#               null-fraction axis: a 1M-row nullable column at
#               0/10/50% NULLs, validity-bitmap representation vs the
#               same data force-degraded to per-datum Any columns.
#               Appends records to results/BENCH_batch.json and asserts
#               the block engine is >= 2x on the 100k scan+filter
#               pipeline and the typed representation >= 2x the
#               degraded path on the 1M scan+filter at 10% NULLs. The
#               skewed aggregate checks that morsel and per-segment
#               schedules return the same rows and prints their ratio
#               without asserting it (both run the same aggregation
#               kernel, so it is bounded by the core count); that no
#               worker idles while unclaimed morsels remain is the unit
#               test `idle_workers_steal_queued_tasks` in morsel.rs. In
#               --test smoke mode only the result-equality checks run.
#   kernels     block-kernel microbenchmarks (no planner/storage):
#               filter word-mask, dual-bitmap 3VL AND/OR, and columnar
#               distribution hashing at 0/10/50% NULLs, typed vs
#               Any-degraded. Appends to results/BENCH_kernels.json.
#   join_order  cost-based join ordering vs the syntactic left-deep
#               baseline on a 6-table star schema with the selective
#               dimensions written last, after ANALYZE. Appends a JSON
#               record to results/BENCH_join_order.json and asserts the
#               acceptance criteria: cost-based >= 2x wall-clock on the
#               star query and < 10 ms planning for a 10-relation chain
#               (the DPsize ceiling). Also reports plans/sec at 2-10
#               relations, and runs the adaptive-planning benchmark:
#               per-partition join specialization vs the uniform plan
#               on a table whose DEFAULT partition holds ~98% of 400k
#               rows while every probe key falls in the covered range.
#               Appends to results/BENCH_adaptive.json and asserts
#               adaptive >= 1.5x (result-equality-gated: both plans
#               must return identical row multisets first). In --test
#               smoke mode only the result-equality checks run (both
#               orderings and both adaptive settings must agree).
#   bench_net_qps
#               the network service layer: point-lookup QPS and client
#               p50/p99 latency over the wire protocol at 1/16/128/512
#               concurrent connections against one in-process server on
#               a loopback socket, plus the server-side latency
#               histogram from a Stats frame. Appends a JSON record to
#               results/BENCH_net_qps.json.
#
# Pass --test to run everything in smoke mode (single samples, tiny row
# counts, no JSON output) — what CI uses.
#
# Pass --native to run with RUSTFLAGS="-C target-cpu=native" (fresh
# codegen against the host ISA — lets the autovectorizer use wider SIMD
# in the word-mask and hash lanes). Numbers land in the same JSON files;
# compare the last two runs. Off by default because the binaries stop
# being portable and the target/ cache is invalidated.
set -euo pipefail
cd "$(dirname "$0")/.."

args=()
native=0
for a in "$@"; do
  case "$a" in
    --native) native=1 ;;
    *) args+=("$a") ;;
  esac
done
if [[ "$native" == 1 ]]; then
  export RUSTFLAGS="${RUSTFLAGS:+$RUSTFLAGS }-C target-cpu=native"
  echo "== bench: native codegen (RUSTFLAGS=$RUSTFLAGS) =="
fi

echo "== bench: expr_eval =="
cargo bench -p mpp-bench --bench expr_eval -- ${args[@]+"${args[@]}"}

echo "== bench: table2 --quick =="
cargo run --release -p mpp-bench --bin table2 -- --quick

echo "== bench: bench_qps =="
cargo bench -p mpp-bench --bench bench_qps -- ${args[@]+"${args[@]}"}

echo "== bench: batch_pipeline =="
cargo bench -p mpp-bench --bench batch_pipeline -- ${args[@]+"${args[@]}"}

echo "== bench: kernels =="
cargo bench -p mpp-bench --bench kernels -- ${args[@]+"${args[@]}"}

echo "== bench: join_order =="
cargo bench -p mpp-bench --bench join_order -- ${args[@]+"${args[@]}"}

echo "== bench: bench_net_qps =="
cargo bench -p mpp-bench --bench bench_net_qps -- ${args[@]+"${args[@]}"}

echo "== bench: OK (see results/BENCH_expr.json, results/BENCH_qps.json, results/BENCH_batch.json, results/BENCH_kernels.json, results/BENCH_join_order.json, results/BENCH_adaptive.json, results/BENCH_net_qps.json and results/table2.json) =="
