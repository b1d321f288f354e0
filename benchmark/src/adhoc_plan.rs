//! `adhoc_plan`: tiny data, statements whose literals never repeat.
//! Every statement misses the plan cache and the 256-entry cache evicts
//! continuously, so parse + bind + optimize do most of the work.

use mppart::common::Row;
use mppart::workloads::{setup_tpcds, TpcdsConfig};
use mppart::MppDb;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::olap_dpe::store_sales_rows;
use crate::workload::{conn_seed, rows_match, Checks, Script, Stmt, Take, Workload};

const TRACED_STATEMENTS: usize = 1_000;
/// One reply in this many (about fifty; odd, so that the sample cycles
/// through all four statement shapes) is kept and compared with the
/// legacy planner.
const SAMPLE_EVERY: u64 = 51;

const STATES: [&str; 10] = ["CA", "NY", "TX", "WA", "OR", "MA", "IL", "FL", "CO", "GA"];
const CATEGORIES: [&str; 6] = ["Books", "Music", "Sports", "Home", "Toys", "Garden"];

fn config(seed: u64) -> TpcdsConfig {
    TpcdsConfig {
        fact_rows: 1_000,
        parts_per_fact: 104,
        seed,
        ..TpcdsConfig::default()
    }
}

pub struct AdhocPlan {
    seed: u64,
}

impl AdhocPlan {
    pub fn new(seed: u64) -> AdhocPlan {
        AdhocPlan { seed }
    }
}

impl Workload for AdhocPlan {
    fn load(&self, db: &MppDb) {
        setup_tpcds(db.storage(), &config(self.seed)).expect("adhoc_plan: data load");
    }

    fn client(&self, conn: usize) -> Box<dyn Script> {
        Box::new(Client {
            rng: StdRng::seed_from_u64(conn_seed(self.seed, conn)),
            conn: conn as u64,
            sent: 0,
            samples: Vec::new(),
        })
    }

    fn traced(&self) -> Box<dyn Script> {
        Box::new(Take {
            inner: self.client(0),
            left: TRACED_STATEMENTS,
        })
    }

    fn largest_table(&self) -> &'static str {
        "store_sales"
    }

    fn probe_rows(&self, n: usize) -> Vec<Row> {
        store_sales_rows(&config(self.seed), n)
    }
}

struct Client {
    rng: StdRng,
    conn: u64,
    sent: u64,
    samples: Vec<(String, Vec<Row>)>,
}

impl Script for Client {
    /// Equal shares of a 1-, 3-, 4- and 6-relation statement. `tag` is a
    /// literal no other statement of the run carries (quantities stop at
    /// 20, so `qty < tag` filters nothing): the text is always new. The
    /// 6-way FROM list starts with the fact table because the legacy
    /// planner, the reference for the result check, joins in FROM order
    /// and would otherwise start with a 365,000-row cross product.
    fn next(&mut self) -> Option<Stmt> {
        let tag = 100 + 2 * self.sent + self.conn;
        let rng = &mut self.rng;
        let year: i32 = rng.gen_range(2012..=2013);
        let month: i32 = rng.gen_range(1..=12);
        let state = STATES[rng.gen_range(0..STATES.len())];
        let shape = self.sent % 4;
        let sql = match shape {
            0 => {
                let lo: i32 = rng.gen_range(1..=700);
                let hi = lo + rng.gen_range(0..=30i32);
                format!(
                    "SELECT count(*), sum(ss_amount) FROM store_sales \
                     WHERE ss_date_id BETWEEN {lo} AND {hi} AND ss_qty < {tag}"
                )
            }
            1 => {
                let last = (month + rng.gen_range(0..=2i32)).min(12);
                format!(
                    "SELECT count(*) FROM customer_dim, date_dim, store_sales \
                     WHERE c_id = ss_cust_id AND d_id = ss_date_id AND c_state = '{state}' \
                     AND d_year = {year} AND d_month BETWEEN {month} AND {last} \
                     AND ss_qty < {tag}"
                )
            }
            2 => {
                let category = CATEGORIES[rng.gen_range(0..CATEGORIES.len())];
                format!(
                    "SELECT sum(ws_amount) FROM item_dim, date_dim, web_sales, customer_dim \
                     WHERE i_id = ws_item_id AND d_id = ws_date_id AND c_id = ws_cust_id \
                     AND i_category = '{category}' AND d_year = {year} AND d_month = {month} \
                     AND ws_qty < {tag}"
                )
            }
            _ => format!(
                "SELECT count(*) FROM store_sales, date_dim, customer_dim, item_dim, \
                 store_returns, web_sales \
                 WHERE d_id = ss_date_id AND c_id = ss_cust_id AND i_id = ss_item_id \
                 AND sr_item_id = ss_item_id AND sr_cust_id = ss_cust_id \
                 AND ws_item_id = ss_item_id AND ws_date_id = ss_date_id \
                 AND d_year = {year} AND d_month = {month} AND c_state = '{state}' \
                 AND ss_qty < {tag}"
            ),
        };
        self.sent += 1;
        Some(Stmt::read(sql, Vec::new()))
    }

    fn check(&mut self, stmt: &Stmt, rows: &[Row]) -> bool {
        if self.sent.is_multiple_of(SAMPLE_EVERY) {
            self.samples.push((stmt.sql.clone(), rows.to_vec()));
        }
        rows.len() == 1
    }

    fn finish(&mut self, db: &MppDb) -> Checks {
        let mut checks = Checks::default();
        for (sql, rows) in self.samples.drain(..) {
            checks.attempted += 1;
            match db.sql_legacy(&sql) {
                Ok(out) if rows_match(&rows, &out.rows) => {}
                _ => checks.failed += 1,
            }
        }
        checks
    }
}
