//! One worker and one worker per segment, side by side.
//!
//! The same plan runs on the served default (one worker: the calling
//! thread interprets every segment's slice) and on four workers (one per
//! segment, with work stealing); both return the same rows and the same
//! partition-elimination statistics.
//!
//! ```bash
//! cargo run -p mppart --example parallel_execution
//! ```

use mppart::{MppDb, SchedConfig};

fn main() -> Result<(), mppart::common::Error> {
    let mut db = MppDb::new(4);
    db.sql(
        "CREATE TABLE orders (o_id bigint, amount double, date date NOT NULL) \
         DISTRIBUTED BY (o_id) \
         PARTITION BY RANGE (date) \
         (START ('2012-01-01') END ('2014-01-01') EVERY (1 MONTH))",
    )?;
    for m in 1..=12 {
        db.sql(&format!(
            "INSERT INTO orders VALUES ({m}, {m}.50, '2013-{m:02}-15')"
        ))?;
    }

    let query = "SELECT count(*) FROM orders \
                 WHERE date BETWEEN '2013-10-01' AND '2013-12-31'";

    let seq = db.sql(query)?;
    db.set_sched_config(SchedConfig::with_workers(4));
    let par = db.sql(query)?;

    println!(
        "1 worker:  {} (scanned {} partitions)",
        seq.rows[0],
        seq.stats.total_parts_scanned()
    );
    println!(
        "4 workers: {} (scanned {} partitions)",
        par.rows[0],
        par.stats.total_parts_scanned()
    );
    assert_eq!(seq.rows, par.rows);
    assert_eq!(seq.stats.parts_scanned, par.stats.parts_scanned);
    println!("worker counts agree.");
    Ok(())
}
