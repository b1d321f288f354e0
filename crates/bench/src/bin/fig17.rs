//! Paper Figure 17: relative execution-time improvement per query when
//! partition selection is enabled vs disabled (same optimizer, same
//! plans apart from the selector predicates).
//!
//! The shape to reproduce: improvements across the board for queries with
//! elimination opportunities, >50% for many, ~0% for full-scan queries.
//! Each pair is measured on 1 worker and on 4 workers (one per segment)
//! — elimination gains do not depend on the worker count. The JSON keys
//! keep their old names: `improvement_pct_parallel` is the 4-worker
//! column.

use mpp_bench::{print_table, scaled, time_median, write_result};
use mppart::core::OptimizerConfig;
use mppart::executor::execute_with_params_sched;
use mppart::workloads::{setup_tpcds, tpcds_workload, TpcdsConfig};
use mppart::{ExecEngine, MppDb, SchedConfig};

fn main() {
    let fact_rows = scaled(60_000);
    println!(
        "== Figure 17: runtime improvement from partition selection ({fact_rows} rows/fact) ==\n"
    );

    let mk = |enable: bool| {
        let db = MppDb::with_config(OptimizerConfig {
            num_segments: 4,
            enable_partition_selection: enable,
            ..OptimizerConfig::default()
        });
        setup_tpcds(
            db.storage(),
            &TpcdsConfig {
                fact_rows,
                parts_per_fact: 24,
                seed: 2014,
                ..TpcdsConfig::default()
            },
        )
        .unwrap();
        db
    };
    let on = mk(true);
    let off = mk(false);

    struct Entry {
        name: &'static str,
        off_us: u128,
        improvement_pct: f64,
        improvement_pct_parallel: f64,
    }
    let mut entries = Vec::new();
    for q in tpcds_workload() {
        let on_plan = on.plan(q.sql).unwrap();
        let off_plan = off.plan(q.sql).unwrap();
        let timed = |workers: usize| {
            let sched = SchedConfig::with_workers(workers);
            let exec = |db: &MppDb, plan| {
                execute_with_params_sched(
                    db.storage(),
                    plan,
                    &q.params,
                    ExecEngine::default(),
                    &sched,
                )
                .unwrap()
            };
            let t_on = time_median(3, || exec(&on, &on_plan));
            let t_off = time_median(3, || exec(&off, &off_plan));
            (t_on, t_off)
        };
        let (t_on, t_off) = timed(1);
        let (p_on, p_off) = timed(4);
        let improvement = (1.0 - t_on.as_secs_f64() / t_off.as_secs_f64()) * 100.0;
        let improvement_par = (1.0 - p_on.as_secs_f64() / p_off.as_secs_f64()) * 100.0;
        entries.push(Entry {
            name: q.name,
            off_us: t_off.as_micros(),
            improvement_pct: improvement,
            improvement_pct_parallel: improvement_par,
        });
    }
    // The paper orders queries by baseline runtime (short → long running).
    entries.sort_by_key(|e| e.off_us);

    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|e| {
            let bar_len = (e.improvement_pct.clamp(0.0, 100.0) / 5.0) as usize;
            vec![
                e.name.to_string(),
                format!("{:.0} us", e.off_us),
                format!("{:+.0}%", e.improvement_pct),
                format!("{:+.0}%", e.improvement_pct_parallel),
                "#".repeat(bar_len),
            ]
        })
        .collect();
    print_table(
        &[
            "query (by baseline runtime)",
            "disabled",
            "improvement (1 worker)",
            "improvement (4 workers)",
            "",
        ],
        &rows,
    );

    let improved_50 = entries.iter().filter(|e| e.improvement_pct >= 50.0).count();
    let improved_70 = entries.iter().filter(|e| e.improvement_pct >= 70.0).count();
    println!(
        "\n{} of {} queries improved ≥50%, {} improved ≥70% \
         (paper: >half ≥50%, >25% of queries ≥70%)",
        improved_50,
        entries.len(),
        improved_70
    );
    write_result(
        "fig17",
        &serde_json::json!({
            "fact_rows": fact_rows,
            "queries": entries
                .iter()
                .map(|e| serde_json::json!({
                    "query": e.name,
                    "baseline_us": e.off_us,
                    "improvement_pct": e.improvement_pct,
                    "improvement_pct_parallel": e.improvement_pct_parallel,
                }))
                .collect::<Vec<_>>(),
        }),
    );
}
