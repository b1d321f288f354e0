//! Paper Table 2: overhead of partitioning on a full table scan.
//!
//! `SELECT * FROM lineitem` (7 years of data) against an unpartitioned
//! baseline and the four partition grains of the paper: 42 two-month,
//! 84 monthly, 169 bi-weekly, 361 weekly partitions. The paper reports
//! 1–3% overhead; the *shape* to reproduce is "flat — partitioning does
//! not make full scans meaningfully slower, regardless of grain".
//!
//! Each scan is timed on 1 worker (the served default, root Gather
//! streamed per segment) and on 4 workers, one per segment (root staged).
//! 4 workers should be no slower than 1 on this full scan. The JSON keys
//! keep their old names: `*_parallel` is the 4-worker column.

use mpp_bench::{print_table, scaled, time_median_pair, write_result};
use mppart::executor::execute_with_params_sched;
use mppart::workloads::{setup_lineitem, LineitemConfig, TABLE2_GRAINS};
use mppart::{ExecEngine, MppDb, SchedConfig};

fn main() {
    // `--quick` is the CI / bench-script mode: a tenth of the rows and
    // fewer timing iterations, same shape of output.
    let quick = std::env::args().any(|a| a == "--quick");
    let rows = scaled(if quick { 20_000 } else { 200_000 });
    let iters = if quick { 3 } else { 5 };
    println!("== Table 2: partitioning overhead (lineitem, {rows} rows) ==\n");
    let db = MppDb::new(4);

    // Unpartitioned baseline.
    setup_lineitem(
        db.storage(),
        &LineitemConfig {
            rows,
            parts: None,
            seed: 42,
            name: "lineitem_flat".into(),
        },
    )
    .unwrap();
    // The four grains.
    for &parts in &TABLE2_GRAINS {
        setup_lineitem(
            db.storage(),
            &LineitemConfig {
                rows,
                parts: Some(parts),
                seed: 42,
                name: format!("lineitem_{parts}"),
            },
        )
        .unwrap();
    }

    // The paper's Table 2 workload: a plain full scan, rows gathered to
    // the master. (Not `count(*)` — an aggregate above the Gather would
    // measure the serial master-side fold, not the scan.) Both worker
    // counts are timed interleaved so slow drift cannot bias the
    // comparison.
    let (one, four) = (SchedConfig::with_workers(1), SchedConfig::with_workers(4));
    let run = |table: &str| {
        let plan = db.plan(&format!("SELECT * FROM {table}")).unwrap();
        let exec = |sched: &SchedConfig| {
            execute_with_params_sched(db.storage(), &plan, &[], ExecEngine::default(), sched)
                .unwrap()
        };
        time_median_pair(iters, || exec(&one), || exec(&four))
    };

    let (base_seq, base_par) = run("lineitem_flat");
    println!("unpartitioned baseline: 1 worker {base_seq:?}, 4 workers {base_par:?}\n");

    let descriptions = [
        "each part represents 2 months",
        "partitioned monthly",
        "partitioned bi-weekly",
        "partitioned weekly",
    ];
    let mut out_rows = Vec::new();
    let mut json = Vec::new();
    for (&parts, desc) in TABLE2_GRAINS.iter().zip(descriptions) {
        let table = format!("lineitem_{parts}");
        let (t_seq, t_par) = run(&table);
        let overhead = (t_seq.as_secs_f64() / base_seq.as_secs_f64() - 1.0) * 100.0;
        let overhead_par = (t_par.as_secs_f64() / base_par.as_secs_f64() - 1.0) * 100.0;
        out_rows.push(vec![
            parts.to_string(),
            desc.to_string(),
            format!("{:.1}%", overhead),
            format!("{:.2?}", t_seq),
            format!("{:.1}%", overhead_par),
            format!("{:.2?}", t_par),
        ]);
        json.push(serde_json::json!({
            "parts": parts,
            "overhead_pct": overhead,
            "elapsed_us": t_seq.as_micros(),
            "overhead_pct_parallel": overhead_par,
            "elapsed_us_parallel": t_par.as_micros(),
        }));
    }
    print_table(
        &[
            "#parts",
            "Description",
            "Overhead (1 worker)",
            "Elapsed (1 worker)",
            "Overhead (4 workers)",
            "Elapsed (4 workers)",
        ],
        &out_rows,
    );
    println!("\npaper reported: 3% / 3% / 1% / 2% — flat in the grain.");
    if base_par <= base_seq {
        println!(
            "4-worker full scan is {:.2}x the 1-worker one at 4 segments.",
            base_par.as_secs_f64() / base_seq.as_secs_f64()
        );
    } else {
        println!(
            "WARNING: 4-worker full scan slower than 1 worker ({base_par:?} vs {base_seq:?})."
        );
    }
    write_result(
        "table2",
        &serde_json::json!({
            "rows": rows,
            "baseline_us": base_seq.as_micros(),
            "baseline_us_parallel": base_par.as_micros(),
            "grains": json,
        }),
    );
}
