//! `wire_point`: two cached statements, tiny replies. The plan cache
//! always hits, so the fixed per-statement cost of server + session +
//! executor start-up is most of the latency.

use std::sync::Arc;

use mppart::common::{Datum, Row};
use mppart::workloads::{setup_rs, SynthConfig};
use mppart::MppDb;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workload::{conn_seed, Script, Stmt, Take, Workload};

const R_ROWS: usize = 200_000;
const R_PARTS: usize = 200;
const B_DOMAIN: i32 = 10_000;
/// `count(*) … WHERE b < $1` draws `$1` below this: at most 6 partitions.
const RANGE_DOMAIN: i32 = 300;
const TRACED_STATEMENTS: usize = 2_000;

const POINT_SQL: &str = "SELECT * FROM r WHERE b = $1";
const RANGE_SQL: &str = "SELECT count(*) FROM r WHERE b < $1";

/// Per-`b` answer key, built from a raw storage scan at set-up.
#[derive(Default)]
struct Reference {
    /// `b` → (rows with that `b`, checksum over them).
    per_b: Vec<(u32, u64)>,
    /// `k` → rows with `b < k`.
    below: Vec<i64>,
}

fn checksum(a: i64, b: i64) -> u64 {
    (a.wrapping_mul(1_000_003).wrapping_add(b)) as u64
}

pub struct WirePoint {
    seed: u64,
    reference: Arc<Reference>,
}

impl WirePoint {
    pub fn new(seed: u64) -> WirePoint {
        WirePoint {
            seed,
            reference: Arc::default(),
        }
    }
}

impl Workload for WirePoint {
    fn load(&self, db: &MppDb) {
        let cfg = SynthConfig {
            r_rows: R_ROWS,
            r_parts: Some(R_PARTS),
            b_domain: B_DOMAIN,
            seed: self.seed,
            ..SynthConfig::default()
        };
        setup_rs(db.storage(), &cfg).expect("wire_point: data load");
    }

    fn reference(&mut self, db: &MppDb) {
        let r = db.catalog().table_by_name("r").expect("table r").oid;
        let mut per_b = vec![(0u32, 0u64); B_DOMAIN as usize];
        for phys in db.storage().physical_tables(r).expect("partitions of r") {
            for row in db.storage().scan_all_segments(phys) {
                let a = row.values()[0].as_i64().expect("r.a is an integer");
                let b = row.values()[1].as_i64().expect("r.b is an integer");
                let slot = &mut per_b[b as usize];
                slot.0 += 1;
                slot.1 = slot.1.wrapping_add(checksum(a, b));
            }
        }
        let mut below = vec![0i64; B_DOMAIN as usize + 1];
        for (b, (n, _)) in per_b.iter().enumerate() {
            below[b + 1] = below[b] + i64::from(*n);
        }
        self.reference = Arc::new(Reference { per_b, below });
    }

    fn client(&self, conn: usize) -> Box<dyn Script> {
        Box::new(Client {
            rng: StdRng::seed_from_u64(conn_seed(self.seed, conn)),
            sent: 0,
            reference: Arc::clone(&self.reference),
        })
    }

    fn traced(&self) -> Box<dyn Script> {
        Box::new(Take {
            inner: self.client(0),
            left: TRACED_STATEMENTS,
        })
    }

    fn largest_table(&self) -> &'static str {
        "r"
    }

    fn probe_rows(&self, n: usize) -> Vec<Row> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xBEEF);
        (0..n)
            .map(|_| {
                Row::new(vec![
                    Datum::Int32(rng.gen_range(0..1_000)),
                    Datum::Int32(rng.gen_range(0..B_DOMAIN)),
                ])
            })
            .collect()
    }
}

struct Client {
    rng: StdRng,
    sent: u64,
    reference: Arc<Reference>,
}

impl Script for Client {
    fn next(&mut self) -> Option<Stmt> {
        self.sent += 1;
        Some(if self.sent % 2 == 1 {
            let b = self.rng.gen_range(0..B_DOMAIN);
            Stmt::read(POINT_SQL, vec![Datum::Int32(b)])
        } else {
            let k = self.rng.gen_range(0..RANGE_DOMAIN);
            Stmt::read(RANGE_SQL, vec![Datum::Int32(k)])
        })
    }

    fn check(&mut self, stmt: &Stmt, rows: &[Row]) -> bool {
        let Ok(key) = stmt.params[0].as_i64() else {
            return false;
        };
        if stmt.sql == POINT_SQL {
            let (n, want) = self.reference.per_b[key as usize];
            let mut got = 0u64;
            for row in rows {
                match (row.values()[0].as_i64(), row.values()[1].as_i64()) {
                    (Ok(a), Ok(b)) if b == key => got = got.wrapping_add(checksum(a, b)),
                    _ => return false,
                }
            }
            rows.len() == n as usize && got == want
        } else {
            rows.len() == 1
                && rows[0].values() == [Datum::Int64(self.reference.below[key as usize])]
        }
    }
}
