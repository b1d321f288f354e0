//! Vectorized vs row-at-a-time execution of a scan → filter → aggregate
//! pipeline, over the ISSUE grid of 10k/100k/1M rows × 4/64/1024 range
//! partitions.
//!
//! Two pipeline shapes per cell, both engines interleaved
//! ([`time_median_pair`]) so the recorded number is a fair ratio:
//!
//! * `filter` — `SELECT * FROM r WHERE a < 20` (≈10% selectivity): the
//!   block engine refines selection vectors over the storage blocks and
//!   only materializes survivors at the root;
//! * `agg` — `SELECT b, COUNT(*), SUM(a) FROM r WHERE a < 150 GROUP BY b`:
//!   batch filter + vectorized aggregate input, with a near-empty root.
//!
//! Appends one record per cell to `results/BENCH_batch.json` and, outside
//! `--test` smoke mode, asserts the acceptance threshold: the block
//! engine at least 2x the row engine on the 100k-row filter pipeline.

use criterion::{black_box, Criterion};
use mpp_bench::{scaled, time_median_pair, write_result};
use mppart::core::OptimizerConfig;
use mppart::executor::{ExecEngine, ExecMode};
use mppart::testing::sorted;
use mppart::workloads::{setup_nullable, setup_rs, setup_skewed, SynthConfig};
use mppart::{MppDb, SchedConfig, SchedPolicy};

const SEGMENTS: usize = 3;

fn mk_db(rows: usize, parts: usize) -> MppDb {
    let db = MppDb::with_config(OptimizerConfig {
        num_segments: SEGMENTS,
        ..OptimizerConfig::default()
    });
    setup_rs(
        db.storage(),
        &SynthConfig {
            r_rows: rows,
            s_rows: 1,
            r_parts: Some(parts),
            s_parts: None,
            // Wide enough that even 1024 partitions get a non-empty range.
            b_domain: 4096,
            a_domain: 200,
            seed: 2014,
        },
    )
    .unwrap();
    db
}

/// Run one prepared pipeline on one engine, returning the row count so
/// the work cannot be optimized away.
fn run(db: &MppDb, q: &mppart::PreparedQuery, mode: ExecMode, engine: ExecEngine) -> usize {
    q.prepared_plan()
        .execute_engine(db.storage(), &[], mode, engine)
        .unwrap()
        .rows
        .len()
}

/// A table where one partition holds ~92% of the rows, hash-distributed
/// on the group column `b` so a group-by-`b` aggregate runs co-located:
/// the whole scan → filter → agg pipeline is one fused slice the morsel
/// scheduler can cut up, while the per-segment baseline serializes the
/// hot partition onto one task.
fn mk_skew_db(rows: usize) -> MppDb {
    let db = MppDb::with_config(OptimizerConfig {
        num_segments: 4,
        ..OptimizerConfig::default()
    })
    .with_exec_mode(ExecMode::Parallel)
    .with_exec_engine(ExecEngine::Batch);
    setup_skewed(
        db.storage(),
        "skew",
        &SynthConfig {
            r_rows: rows,
            s_rows: 0,
            r_parts: Some(16),
            s_parts: None,
            b_domain: 4096,
            a_domain: 200,
            seed: 2014,
        },
        92,
        1,
    )
    .unwrap();
    db
}

/// One batch-engine execution under an explicit scheduler config.
fn run_sched(db: &MppDb, q: &mppart::PreparedQuery, sched: &SchedConfig) -> usize {
    q.prepared_plan()
        .execute_engine_sched(
            db.storage(),
            &[],
            ExecMode::Parallel,
            ExecEngine::Batch,
            sched,
        )
        .unwrap()
        .rows
        .len()
}

/// Morsel-driven work stealing vs the per-segment-thread baseline on the
/// skewed table: checks that both schedules return the same rows and, out
/// of smoke mode, prints and records the measured ratio.
fn skew_bench(smoke: bool) {
    let rows = scaled(if smoke { 20_000 } else { 400_000 });
    let db = mk_skew_db(rows);
    let sql = "SELECT b, COUNT(*), SUM(a) FROM skew WHERE a < 150 GROUP BY b";
    let q = db.prepare(sql).unwrap();
    let morsel = SchedConfig {
        workers: Some(4),
        policy: SchedPolicy::Morsel,
        morsel_rows: 4096,
    };
    let baseline = SchedConfig {
        workers: None,
        policy: SchedPolicy::PerSegment,
        morsel_rows: 4096,
    };

    // Both schedules must agree exactly before any timing means a thing.
    let m = q
        .prepared_plan()
        .execute_engine_sched(
            db.storage(),
            &[],
            ExecMode::Parallel,
            ExecEngine::Batch,
            &morsel,
        )
        .unwrap();
    let b = q
        .prepared_plan()
        .execute_engine_sched(
            db.storage(),
            &[],
            ExecMode::Parallel,
            ExecEngine::Batch,
            &baseline,
        )
        .unwrap();
    assert_eq!(
        sorted(m.rows),
        sorted(b.rows),
        "schedulers disagree on {sql}"
    );

    if smoke {
        println!(
            "{rows:>9} rows  skew (hot part ~92%)  agg: morsel == per-segment rows ok (smoke)"
        );
        return;
    }

    let (t_base, t_morsel) = time_median_pair(
        9,
        || black_box(run_sched(&db, &q, &baseline)),
        || black_box(run_sched(&db, &q, &morsel)),
    );
    let speedup = t_base.as_secs_f64() / t_morsel.as_secs_f64().max(1e-9);
    println!(
        "{rows:>9} rows  skew (hot part ~92%)  agg Parallel: per-segment {:>9.3?}  \
         morsel {:>9.3?}  speedup {speedup:>5.2}x",
        t_base, t_morsel
    );
    write_result(
        "BENCH_batch",
        &serde_json::json!({
            "bench": "skew_pipeline",
            "rows": rows,
            "parts": 16,
            "hot_pct": 92,
            "query": "agg",
            "mode": "Parallel",
            "segments": 4,
            "per_segment_ms": t_base.as_secs_f64() * 1e3,
            "morsel_ms": t_morsel.as_secs_f64() * 1e3,
            "speedup": speedup,
            "smoke": smoke,
        }),
    );
}

/// The null-fraction axis: scan+filter and agg pipelines over a table
/// whose filtered column `v` carries 0/10/50% NULLs, comparing the
/// validity-bitmap representation against the same data force-degraded
/// to `Any` per-datum columns (the engine's pre-bitmap behavior, where
/// one NULL knocked the whole column off every typed kernel). Returns
/// the filter speedup at 10% NULLs for the acceptance gate (None in
/// smoke mode).
fn null_bench(smoke: bool) -> Option<f64> {
    let rows = scaled(if smoke { 10_000 } else { 1_000_000 });
    let iters = if smoke {
        2
    } else if rows >= 1_000_000 {
        3
    } else {
        9
    };
    let mk = |null_pct: u32, degrade: bool| {
        let db = MppDb::with_config(OptimizerConfig {
            num_segments: SEGMENTS,
            ..OptimizerConfig::default()
        })
        .with_exec_engine(ExecEngine::Batch);
        setup_nullable(
            db.storage(),
            "rn",
            &SynthConfig {
                r_rows: rows,
                s_rows: 0,
                r_parts: Some(64),
                s_parts: None,
                b_domain: 4096,
                a_domain: 200,
                seed: 2014,
            },
            null_pct,
        )
        .unwrap();
        if degrade {
            db.storage().degrade_blocks();
        }
        db
    };
    let queries: &[(&str, &str)] = &[
        ("filter", "SELECT * FROM rn WHERE v < 20"),
        (
            "agg",
            "SELECT b, COUNT(v), SUM(v) FROM rn WHERE v < 150 GROUP BY b",
        ),
    ];
    let mut acceptance: Option<f64> = None;
    println!();
    for &null_pct in &[0u32, 10, 50] {
        // Identical data (same seed), two representations.
        let typed = mk(null_pct, false);
        let degraded = mk(null_pct, true);
        for (label, sql) in queries {
            let qt = typed.prepare(sql).unwrap();
            let qd = degraded.prepare(sql).unwrap();
            // Representation must be invisible in the results.
            let rt = run(&typed, &qt, ExecMode::Sequential, ExecEngine::Batch);
            let rd = run(&degraded, &qd, ExecMode::Sequential, ExecEngine::Batch);
            assert_eq!(rt, rd, "representations disagree on {sql}");
            if smoke {
                println!(
                    "{rows:>9} rows  {null_pct:>3}% nulls  {label:<6}: \
                     typed == degraded rows ok (smoke)"
                );
                continue;
            }
            let (t_any, t_typed) = time_median_pair(
                iters,
                || black_box(run(&degraded, &qd, ExecMode::Sequential, ExecEngine::Batch)),
                || black_box(run(&typed, &qt, ExecMode::Sequential, ExecEngine::Batch)),
            );
            let speedup = t_any.as_secs_f64() / t_typed.as_secs_f64().max(1e-9);
            println!(
                "{rows:>9} rows  {null_pct:>3}% nulls  {label:<6} Sequential: \
                 degraded {:>9.3?}  typed {:>9.3?}  speedup {speedup:>5.2}x",
                t_any, t_typed
            );
            write_result(
                "BENCH_batch",
                &serde_json::json!({
                    "bench": "null_pipeline",
                    "rows": rows,
                    "parts": 64,
                    "null_pct": null_pct,
                    "query": *label,
                    "mode": "Sequential",
                    "segments": SEGMENTS,
                    "degraded_ms": t_any.as_secs_f64() * 1e3,
                    "typed_ms": t_typed.as_secs_f64() * 1e3,
                    "speedup": speedup,
                    "smoke": smoke,
                }),
            );
            if null_pct == 10 && *label == "filter" {
                acceptance = Some(speedup);
            }
        }
    }
    acceptance
}

fn main() {
    // Anchor at the workspace root so `results/` is shared with the
    // figure binaries.
    let _ = std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let smoke = std::env::args().any(|a| a == "--test");

    let grid_rows: &[usize] = if smoke {
        &[10_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let grid_parts: &[usize] = if smoke { &[4, 64] } else { &[4, 64, 1024] };
    let queries: &[(&str, &str)] = &[
        ("filter", "SELECT * FROM r WHERE a < 20"),
        (
            "agg",
            "SELECT b, COUNT(*), SUM(a) FROM r WHERE a < 150 GROUP BY b",
        ),
    ];

    println!("== batch_pipeline: block engine vs row engine (scan+filter+agg) ==\n");
    let mut speedup_100k_filter: Option<f64> = None;
    for &rows in grid_rows {
        let rows = scaled(rows);
        let iters = if smoke {
            2
        } else if rows >= 1_000_000 {
            3
        } else {
            9
        };
        for &parts in grid_parts {
            let db = mk_db(rows, parts);
            for (label, sql) in queries {
                let q = db.prepare(sql).unwrap();
                for mode in [ExecMode::Sequential, ExecMode::Parallel] {
                    let (t_row, t_batch) = time_median_pair(
                        iters,
                        || black_box(run(&db, &q, mode, ExecEngine::Row)),
                        || black_box(run(&db, &q, mode, ExecEngine::Batch)),
                    );
                    let speedup = t_row.as_secs_f64() / t_batch.as_secs_f64().max(1e-9);
                    println!(
                        "{rows:>9} rows  {parts:>5} parts  {label:<6} {mode:?}: \
                         row {:>9.3?}  batch {:>9.3?}  speedup {speedup:>5.2}x",
                        t_row, t_batch
                    );
                    write_result(
                        "BENCH_batch",
                        &serde_json::json!({
                            "bench": "batch_pipeline",
                            "rows": rows,
                            "parts": parts,
                            "query": *label,
                            "mode": format!("{mode:?}"),
                            "segments": SEGMENTS,
                            "row_engine_ms": t_row.as_secs_f64() * 1e3,
                            "batch_engine_ms": t_batch.as_secs_f64() * 1e3,
                            "speedup": speedup,
                            "smoke": smoke,
                        }),
                    );
                    if !smoke
                        && rows == 100_000
                        && parts == 64
                        && *label == "filter"
                        && mode == ExecMode::Sequential
                    {
                        speedup_100k_filter = Some(speedup);
                    }
                }
            }
        }
    }

    // A small criterion group on the mid-size cell, for `cargo bench`
    // comparability with the other benches.
    let db = mk_db(scaled(if smoke { 10_000 } else { 100_000 }), 64);
    let mut criterion = Criterion::default();
    let mut group = criterion.benchmark_group("batch_pipeline");
    group.sample_size(10);
    for (label, sql) in queries {
        let q = db.prepare(sql).unwrap();
        for engine in [ExecEngine::Row, ExecEngine::Batch] {
            group.bench_function(format!("{label}/{engine:?}"), |bench| {
                bench.iter(|| black_box(run(&db, &q, ExecMode::Sequential, engine)))
            });
        }
    }
    group.finish();

    let null_speedup = null_bench(smoke);
    // Printed and recorded, not asserted: both schedules run the same
    // typed aggregation kernel, so the ratio is what stealing alone buys
    // and is bounded by the core count. The property itself — no worker
    // idles while unclaimed morsels remain — is the deterministic test
    // `idle_workers_steal_queued_tasks` beside `run_tasks`.
    skew_bench(smoke);

    if let Some(speedup) = null_speedup {
        assert!(
            speedup >= 2.0,
            "acceptance: validity-bitmap columns must be >= 2x the Any-degraded \
             path on the 1M-row scan+filter with 10% NULLs, measured {speedup:.2}x"
        );
        println!("\nacceptance: 1M nullable scan+filter speedup {speedup:.2}x (>= 2x) ok");
    }
    if let Some(speedup) = speedup_100k_filter {
        assert!(
            speedup >= 2.0,
            "acceptance: block engine must be >= 2x the row engine on the \
             100k scan+filter pipeline, measured {speedup:.2}x"
        );
        println!("\nacceptance: 100k scan+filter speedup {speedup:.2}x (>= 2x) ok");
    }
}
