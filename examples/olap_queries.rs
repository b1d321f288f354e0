//! Per-statement timings and counters of the `tpcds_workload()` cycle.
//!
//! Loads the star schema at the `olap_dpe` benchmark workload's size (a
//! million rows per sales fact, 104 partitions each), scaled by
//! `MPPART_SCALE`. Each of the 26 statements is prepared once and
//! executed N times on the served default configuration. Per statement
//! it prints the best wall time beside the counters that say how much
//! work was done: tuples scanned, rows moved by Motions, partitions
//! scanned and blocks produced. The counters are the same on every run;
//! the times are what an executor change moves.
//!
//! ```bash
//! cargo run -q --release -p mppart --example olap_queries          # best of 5
//! MPPART_SCALE=0.05 cargo run -q --release -p mppart --example olap_queries -- 3
//! ```

use mppart::workloads::{setup_tpcds, tpcds_workload, TpcdsConfig};
use mppart::MppDb;
use std::time::{Duration, Instant};

/// `MPPART_SCALE`: unset means 1, anything else must be a finite number
/// above 0.
fn scale() -> f64 {
    match std::env::var("MPPART_SCALE") {
        Err(_) => 1.0,
        Ok(raw) => match raw.trim().parse::<f64>() {
            Ok(f) if f.is_finite() && f > 0.0 => f,
            _ => {
                eprintln!("MPPART_SCALE={raw:?} is not a finite row-count multiplier above 0");
                std::process::exit(2)
            }
        },
    }
}

fn main() -> Result<(), mppart::common::Error> {
    let runs: usize = match std::env::args().nth(1) {
        None => 5,
        Some(n) => n.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
            eprintln!("usage: olap_queries [RUNS > 0]");
            std::process::exit(2)
        }),
    };
    let f = scale();
    let scaled = |n: usize| ((n as f64 * f) as usize).max(1);
    let cfg = TpcdsConfig {
        fact_rows: scaled(1_000_000),
        customers: scaled(5_000),
        items: scaled(2_000),
        days: 730,
        parts_per_fact: 104,
        seed: 1,
    };
    let db = MppDb::new(4);
    setup_tpcds(db.storage(), &cfg)?;
    println!(
        "tpcds_workload() at {} fact rows, best of {runs} runs",
        cfg.fact_rows
    );
    println!(
        "{:<28} {:>9} {:>14} {:>11} {:>6} {:>7}",
        "query", "best_ms", "tuples_scanned", "rows_moved", "parts", "blocks"
    );
    let mut total = Duration::ZERO;
    for q in tpcds_workload() {
        let prepared = db.prepare(q.sql)?;
        let mut best = Duration::MAX;
        let mut last = None;
        for _ in 0..runs {
            let start = Instant::now();
            let out = db.execute_prepared(&prepared, &q.params)?;
            best = best.min(start.elapsed());
            last = Some(out.stats);
        }
        let stats = last.expect("at least one run");
        total += best;
        println!(
            "{:<28} {:>9.2} {:>14} {:>11} {:>6} {:>7}",
            q.name,
            best.as_secs_f64() * 1e3,
            stats.tuples_scanned,
            stats.rows_moved,
            stats.total_parts_scanned(),
            stats.blocks_produced
        );
    }
    println!("{:<28} {:>9.2}", "cycle", total.as_secs_f64() * 1e3);
    Ok(())
}
