//! `olap_dpe`: the 26 statements of `tpcds_workload()` over a million-row
//! star schema. Plans are cached after the first pass and replies are one
//! row, so executor + storage do nearly all the work. The workload that
//! carries the paper's own metric, partitions eliminated.

use std::sync::Arc;

use mppart::common::{Datum, Row};
use mppart::workloads::{setup_tpcds, tpcds_workload, TpcdsConfig, WorkloadQuery};
use mppart::MppDb;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workload::{rows_match, rows_subset, Script, Stmt, Workload};

const TRACED_PASSES: usize = 5;

fn config(seed: u64) -> TpcdsConfig {
    TpcdsConfig {
        fact_rows: 1_000_000,
        customers: 5_000,
        items: 2_000,
        days: 730,
        parts_per_fact: 104,
        seed,
    }
}

/// `LIMIT n` at the end of a statement without `ORDER BY`: any `n` rows
/// of the unlimited answer are correct.
fn split_limit(sql: &str) -> (&str, Option<usize>) {
    match sql.rfind(" LIMIT ") {
        Some(at) => match sql[at + 7..].trim().parse() {
            Ok(n) => (&sql[..at], Some(n)),
            Err(_) => (sql, None),
        },
        None => (sql, None),
    }
}

struct Expected {
    /// The legacy planner's answer (to the statement without its LIMIT).
    rows: Vec<Row>,
    limit: Option<usize>,
}

pub struct OlapDpe {
    seed: u64,
    queries: Arc<Vec<WorkloadQuery>>,
    expected: Arc<Vec<Expected>>,
}

impl OlapDpe {
    pub fn new(seed: u64) -> OlapDpe {
        OlapDpe {
            seed,
            queries: Arc::new(tpcds_workload()),
            expected: Arc::default(),
        }
    }

    fn script(&self, offset: usize, left: Option<usize>) -> Box<dyn Script> {
        Box::new(Client {
            queries: Arc::clone(&self.queries),
            expected: Arc::clone(&self.expected),
            first: vec![None; self.queries.len()],
            next: offset,
            left,
        })
    }
}

impl Workload for OlapDpe {
    fn load(&self, db: &MppDb) {
        setup_tpcds(db.storage(), &config(self.seed)).expect("olap_dpe: data load");
    }

    fn reference(&mut self, db: &MppDb) {
        let expected = self
            .queries
            .iter()
            .map(|q| {
                let (sql, limit) = split_limit(q.sql);
                let out = db
                    .sql_legacy_with_params(sql, &q.params)
                    .unwrap_or_else(|e| panic!("olap_dpe: legacy reference for {}: {e}", q.name));
                Expected {
                    rows: out.rows,
                    limit,
                }
            })
            .collect();
        self.expected = Arc::new(expected);
    }

    /// Both connections cycle the same 26 statements, half a cycle apart.
    fn client(&self, conn: usize) -> Box<dyn Script> {
        self.script(conn * self.queries.len() / 2, None)
    }

    fn traced(&self) -> Box<dyn Script> {
        self.script(0, Some(TRACED_PASSES * self.queries.len()))
    }

    fn largest_table(&self) -> &'static str {
        "store_sales"
    }

    fn probe_rows(&self, n: usize) -> Vec<Row> {
        store_sales_rows(&config(self.seed), n)
    }
}

/// `n` fresh `store_sales` rows within the key domains of `cfg`.
pub fn store_sales_rows(cfg: &TpcdsConfig, n: usize) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xBEEF);
    (0..n)
        .map(|_| {
            Row::new(vec![
                Datum::Int32(rng.gen_range(1..=cfg.days as i32)),
                Datum::Int32(rng.gen_range(1..=cfg.items as i32)),
                Datum::Int32(rng.gen_range(1..=cfg.customers as i32)),
                Datum::Int32(rng.gen_range(1..=20)),
                Datum::Float64(f64::from(rng.gen_range(100..50_000)) / 100.0),
            ])
        })
        .collect()
}

struct Client {
    queries: Arc<Vec<WorkloadQuery>>,
    expected: Arc<Vec<Expected>>,
    /// This connection's first reply per statement: later replies must
    /// equal it exactly.
    first: Vec<Option<Vec<Row>>>,
    /// Position in the endless cycle of the statement to send next.
    next: usize,
    left: Option<usize>,
}

impl Script for Client {
    fn next(&mut self) -> Option<Stmt> {
        if let Some(left) = &mut self.left {
            if *left == 0 {
                return None;
            }
            *left -= 1;
        }
        let q = &self.queries[self.next % self.queries.len()];
        self.next += 1;
        Some(Stmt::read(q.sql, q.params.clone()))
    }

    /// Closed loop: the reply is to the statement sent last.
    fn check(&mut self, _stmt: &Stmt, rows: &[Row]) -> bool {
        let i = (self.next - 1) % self.queries.len();
        let want = &self.expected[i];
        if let Some(limit) = want.limit {
            return rows_subset(rows, &want.rows, limit);
        }
        match &self.first[i] {
            Some(first) => first == rows,
            None => {
                self.first[i] = Some(rows.to_vec());
                rows_match(rows, &want.rows)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limit_is_split_off() {
        assert_eq!(
            split_limit("SELECT a FROM t GROUP BY a LIMIT 50"),
            ("SELECT a FROM t GROUP BY a", Some(50))
        );
        assert_eq!(split_limit("SELECT a FROM t"), ("SELECT a FROM t", None));
    }
}
