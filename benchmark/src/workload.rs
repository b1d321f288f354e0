//! What a workload is: a seeded data set, a seeded statement stream per
//! connection, and the result checks that go with both.
//!
//! The seed drives the data generators and the statement parameters
//! only; the program under test never sees it.

use mppart::common::{Datum, Row};
use mppart::MppDb;

use crate::{adhoc_plan, olap_dpe, rolling_dml, wire_point};

/// How a statement's latency is booked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `SELECT`: `lat_*` metrics.
    Read,
    /// `INSERT` / `UPDATE` / `DELETE`: `write_lat_*` metrics.
    Write,
    /// `ALTER TABLE` / `ANALYZE`: counted in `qps` only.
    Ddl,
}

/// One statement as a client sends it: an ad-hoc `Query` frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub sql: String,
    pub params: Vec<Datum>,
    pub class: Class,
}

impl Stmt {
    pub fn read(sql: impl Into<String>, params: Vec<Datum>) -> Stmt {
        Stmt {
            sql: sql.into(),
            params,
            class: Class::Read,
        }
    }
}

/// Result checks made after the load has stopped.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

/// One connection's statement source and result checker.
pub trait Script: Send {
    /// The next statement; `None` once a finite (traced) sample is spent.
    fn next(&mut self) -> Option<Stmt>;
    /// Is `rows` a correct answer to `stmt`? Also advances whatever
    /// model of the data the script keeps.
    fn check(&mut self, stmt: &Stmt, rows: &[Row]) -> bool;
    /// Checks that need the quiesced database: run after every
    /// connection has stopped sending.
    fn finish(&mut self, _db: &MppDb) -> Checks {
        Checks::default()
    }
}

/// A benchmark workload. Construction is cheap and touches no database.
pub trait Workload {
    /// Create the tables, load the data, `ANALYZE`. This — plus starting
    /// the server — is what `setup_s` times.
    fn load(&self, db: &MppDb);
    /// Build the reference answers the scripts check replies against,
    /// from a loaded database. Harness work, outside `setup_s`.
    fn reference(&mut self, _db: &MppDb) {}
    /// Closed-loop script of connection `conn` (0 or 1).
    fn client(&self, conn: usize) -> Box<dyn Script>;
    /// The fixed single-connection sample of the traced pass.
    fn traced(&self) -> Box<dyn Script>;
    /// The workload's largest partitioned table, for the storage probes.
    fn largest_table(&self) -> &'static str;
    /// `n` fresh rows that route into existing partitions of
    /// [`Workload::largest_table`].
    fn probe_rows(&self, n: usize) -> Vec<Row>;
}

pub const WORKLOADS: [&str; 4] = ["wire_point", "olap_dpe", "adhoc_plan", "rolling_dml"];

pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "wire_point" => Box::new(wire_point::WirePoint::new(seed)),
        "olap_dpe" => Box::new(olap_dpe::OlapDpe::new(seed)),
        "adhoc_plan" => Box::new(adhoc_plan::AdhocPlan::new(seed)),
        "rolling_dml" => Box::new(rolling_dml::RollingDml::new(seed)),
        _ => return None,
    })
}

/// A [`Script`] cut off after `limit` statements: how an endless client
/// script becomes a traced sample.
pub struct Take {
    pub inner: Box<dyn Script>,
    pub left: usize,
}

impl Script for Take {
    fn next(&mut self) -> Option<Stmt> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        self.inner.next()
    }
    fn check(&mut self, stmt: &Stmt, rows: &[Row]) -> bool {
        self.inner.check(stmt, rows)
    }
    fn finish(&mut self, db: &MppDb) -> Checks {
        self.inner.finish(db)
    }
}

/// Per-connection generator seed: distinct streams from one `--seed`.
pub fn conn_seed(seed: u64, conn: usize) -> u64 {
    seed ^ (conn as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Row-multiset equality. Floats compare with a relative tolerance:
/// two planners may add the same numbers in a different order.
pub fn rows_match(a: &[Row], b: &[Row]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let sorted = |rows: &[Row]| {
        let mut v: Vec<Row> = rows.to_vec();
        v.sort_by(|x, y| x.values().cmp(y.values()));
        v
    };
    let (a, b) = (sorted(a), sorted(b));
    a.iter().zip(&b).all(|(x, y)| {
        x.len() == y.len()
            && x.values()
                .iter()
                .zip(y.values())
                .all(|(p, q)| datum_match(p, q))
    })
}

fn datum_match(a: &Datum, b: &Datum) -> bool {
    match (a, b) {
        (Datum::Float64(x), Datum::Float64(y)) => {
            (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
        }
        _ => a == b,
    }
}

/// Is `rows` a sub-multiset of `all` with exactly `min(limit, |all|)`
/// rows? The check for `LIMIT` without `ORDER BY`, whose answer is any
/// such subset.
pub fn rows_subset(rows: &[Row], all: &[Row], limit: usize) -> bool {
    if rows.len() != limit.min(all.len()) {
        return false;
    }
    let mut pool: std::collections::HashMap<&Row, usize> = std::collections::HashMap::new();
    for r in all {
        *pool.entry(r).or_default() += 1;
    }
    rows.iter().all(|r| match pool.get_mut(r) {
        Some(n) if *n > 0 => {
            *n -= 1;
            true
        }
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(name: &str, seed: u64, conn: usize, n: usize) -> Vec<Stmt> {
        let w = by_name(name, seed).unwrap();
        let mut s = w.client(conn);
        (0..n).map(|_| s.next().unwrap()).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for name in WORKLOADS {
            for conn in 0..2 {
                let a = stream(name, 2014, conn, 60);
                assert_eq!(a, stream(name, 2014, conn, 60), "{name} conn {conn}");
                // olap_dpe cycles the 26 fixed statements of
                // `tpcds_workload()`: its seed drives the data only.
                let seeded = name != "olap_dpe";
                assert_eq!(
                    a != stream(name, 2015, conn, 60),
                    seeded,
                    "{name} conn {conn}"
                );
            }
            // The two connections of one run send different streams.
            assert_ne!(stream(name, 2014, 0, 60), stream(name, 2014, 1, 60));
        }
    }

    #[test]
    fn traced_sample_is_finite_and_repeats() {
        for name in WORKLOADS {
            let sample = |seed| {
                let w = by_name(name, seed).unwrap();
                let mut s = w.traced();
                let mut out = Vec::new();
                while let Some(stmt) = s.next() {
                    out.push(stmt);
                    assert!(out.len() < 10_000, "{name}: traced sample must end");
                }
                out
            };
            let a = sample(7);
            assert!(!a.is_empty());
            assert_eq!(a, sample(7), "{name}");
        }
    }

    #[test]
    fn adhoc_statements_never_repeat() {
        let mut seen = std::collections::HashSet::new();
        for conn in 0..2 {
            for s in stream("adhoc_plan", 1, conn, 2_000) {
                assert!(seen.insert(s.sql), "literal repeated on conn {conn}");
            }
        }
    }

    #[test]
    fn row_matching() {
        let r = |v: Vec<Datum>| Row::new(v);
        let a = vec![r(vec![1.into(), 2.5.into()]), r(vec![0.into(), 1.0.into()])];
        let b = vec![
            r(vec![0.into(), 1.0.into()]),
            r(vec![1.into(), (2.5 + 1e-13).into()]),
        ];
        assert!(rows_match(&a, &b));
        assert!(!rows_match(&a, &b[..1]));
        assert!(!rows_match(
            &a,
            &[b[0].clone(), r(vec![1.into(), 2.6.into()])]
        ));
        assert!(rows_subset(&a[..1], &a, 1));
        assert!(!rows_subset(&a[..1], &a, 2), "fewer rows than the limit");
        assert!(!rows_subset(&[a[0].clone(), a[0].clone()], &a, 2));
    }
}
