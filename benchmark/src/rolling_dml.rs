//! `rolling_dml`: one table of 48 one-day partitions that rolls forward.
//! Connection W adds a day, drops the oldest, inserts, updates, deletes
//! and analyzes; connection R reads the newest 40 days. Uses the layers
//! the read workloads use, differently: storage append and routing, not
//! scan; catalog epoch bumps and plan-cache invalidation, not hits; the
//! row-engine DML path, not the block engine.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use mppart::catalog::{Distribution, PartTree, PartitionLevel, PartitionPiece, TableDesc};
use mppart::common::{Column, DataType, Datum, Row, Schema};
use mppart::expr::interval::{Interval, IntervalSet};
use mppart::MppDb;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workload::{conn_seed, Checks, Class, Script, Stmt, Workload};

const LIVE_DAYS: i64 = 48;
const ROWS_PER_DAY: usize = 2_500;
const ROWS_PER_INSERT: usize = 250;
const CUST_DOMAIN: i32 = 1_000;
/// `UPDATE … WHERE cust < 50`, `DELETE … WHERE cust >= 990`.
const UPDATE_BELOW: i32 = 50;
const DELETE_FROM: i32 = 990;
/// R reads days `newest - 39 ..= newest`.
const READ_DAYS: i64 = 40;
const TRACED_DAYS: i64 = 10;
/// Reads sent after each statement of W in the single-connection traced
/// sample (in the end-to-end run R is a connection of its own).
const TRACED_READS_PER_WRITE: usize = 4;

const DAY_SQL: &str = "SELECT count(*), sum(amt) FROM ev WHERE day = $1";
const SPAN_SQL: &str =
    "SELECT cust, count(*) FROM ev WHERE day BETWEEN $1 AND $2 GROUP BY cust LIMIT 20";
const TOTAL_SQL: &str = "SELECT count(*), sum(amt) FROM ev";

/// `(id, cust, amt)` of every row ever inserted for `day`: a function of
/// the seed and the day alone, so loader, writer and reader agree.
fn day_rows(seed: u64, day: i64) -> Vec<(i32, i32, i32)> {
    let mut rng =
        StdRng::seed_from_u64(seed ^ (day as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    (0..ROWS_PER_DAY)
        .map(|k| {
            (
                (day * 10_000 + k as i64) as i32,
                rng.gen_range(0..CUST_DOMAIN),
                rng.gen_range(1..=1_000),
            )
        })
        .collect()
}

/// What the statements of the script do to one day's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Day {
    count: i64,
    sum: i64,
    /// Rows the day's UPDATE touches (each gains 1).
    updated: i64,
    /// Rows, and their `amt` total, the next day's DELETE removes.
    deleted: i64,
    deleted_sum: i64,
}

impl Day {
    fn of(seed: u64, day: i64) -> Day {
        let mut d = Day {
            count: 0,
            sum: 0,
            updated: 0,
            deleted: 0,
            deleted_sum: 0,
        };
        for (_, cust, amt) in day_rows(seed, day) {
            d.count += 1;
            d.sum += i64::from(amt);
            if cust < UPDATE_BELOW {
                d.updated += 1;
            }
            if cust >= DELETE_FROM {
                d.deleted += 1;
                d.deleted_sum += i64::from(amt);
            }
        }
        d
    }

    /// `(count, sum)` once the day is complete. Days of the bulk load
    /// (before `LIVE_DAYS`) never saw an UPDATE.
    fn complete(&self, day: i64) -> (i64, i64) {
        let gained = if day >= LIVE_DAYS { self.updated } else { 0 };
        (self.count, self.sum + gained)
    }

    /// `(count, sum)` after the following day's DELETE.
    fn after_delete(&self, day: i64) -> (i64, i64) {
        let (count, sum) = self.complete(day);
        (count - self.deleted, sum - self.deleted_sum)
    }
}

fn count_sum_row(rows: &[Row]) -> Option<(i64, i64)> {
    match rows {
        [row] if row.len() == 2 => Some((
            row.values()[0].as_i64().ok()?,
            row.values()[1].as_i64().ok()?,
        )),
        _ => None,
    }
}

pub struct RollingDml {
    seed: u64,
    /// Last day W has completed; R reads at or below it.
    newest: Arc<AtomicI64>,
}

impl RollingDml {
    pub fn new(seed: u64) -> RollingDml {
        RollingDml {
            seed,
            newest: Arc::new(AtomicI64::new(LIVE_DAYS - 1)),
        }
    }

    fn writer(&self, last_day: Option<i64>) -> Writer {
        Writer {
            seed: self.seed,
            newest: Arc::clone(&self.newest),
            day: LIVE_DAYS,
            last_day,
            queue: Vec::new(),
            pending: Effect::None,
            // The bulk load: 48 complete days, no DELETE yet.
            live: (0..LIVE_DAYS)
                .map(|d| (d, Day::of(self.seed, d).complete(d)))
                .collect(),
        }
    }

    fn reader(&self) -> Reader {
        Reader {
            seed: self.seed,
            rng: StdRng::seed_from_u64(conn_seed(self.seed, 1)),
            newest: Arc::clone(&self.newest),
            sent: 0,
            days: HashMap::new(),
        }
    }
}

impl Workload for RollingDml {
    /// Bulk load through `Storage::insert` and one `ANALYZE`, so set-up
    /// stays cheap; the partitions are explicitly named `d0..d47` so the
    /// script can drop them by name.
    fn load(&self, db: &MppDb) {
        let cat = db.catalog();
        let schema = Schema::new(
            ["id", "day", "cust", "amt"]
                .into_iter()
                .map(|c| Column::new(c, DataType::Int32).not_null())
                .collect(),
        );
        let pieces = (0..LIVE_DAYS)
            .map(|d| {
                PartitionPiece::new(
                    format!("d{d}"),
                    IntervalSet::interval(Interval::half_open(
                        Datum::Int32(d as i32),
                        Datum::Int32(d as i32 + 1),
                    )),
                )
            })
            .collect();
        let oid = cat.allocate_table_oid();
        let first = cat.allocate_part_oids(LIVE_DAYS as u32);
        let level = PartitionLevel::new(1, pieces).expect("rolling_dml: partition level");
        cat.register(TableDesc {
            oid,
            name: "ev".into(),
            schema,
            distribution: Distribution::Hashed(vec![0]),
            partitioning: Some(PartTree::new(vec![level], first).expect("rolling_dml: tree")),
        })
        .expect("rolling_dml: register ev");
        let rows = (0..LIVE_DAYS).flat_map(|d| {
            day_rows(self.seed, d)
                .into_iter()
                .map(move |(id, cust, amt)| {
                    Row::new(vec![
                        Datum::Int32(id),
                        Datum::Int32(d as i32),
                        Datum::Int32(cust),
                        Datum::Int32(amt),
                    ])
                })
        });
        db.storage()
            .insert(oid, rows)
            .expect("rolling_dml: bulk load");
        db.storage().analyze(oid).expect("rolling_dml: analyze");
    }

    fn client(&self, conn: usize) -> Box<dyn Script> {
        match conn {
            0 => Box::new(self.writer(None)),
            _ => Box::new(self.reader()),
        }
    }

    fn traced(&self) -> Box<dyn Script> {
        Box::new(Interleaved {
            writer: self.writer(Some(LIVE_DAYS + TRACED_DAYS - 1)),
            reader: self.reader(),
            reads_due: 0,
            last_was_read: false,
        })
    }

    fn largest_table(&self) -> &'static str {
        "ev"
    }

    /// Rows for days of the bulk load that outlive the traced sample,
    /// with ids no script uses.
    fn probe_rows(&self, n: usize) -> Vec<Row> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xBEEF);
        (0..n)
            .map(|k| {
                Row::new(vec![
                    Datum::Int32(-1 - k as i32),
                    Datum::Int32(rng.gen_range(TRACED_DAYS..LIVE_DAYS) as i32),
                    Datum::Int32(rng.gen_range(0..CUST_DOMAIN)),
                    Datum::Int32(rng.gen_range(1..=1_000)),
                ])
            })
            .collect()
    }
}

/// What an acknowledged statement of W does to the model of the table.
#[derive(Debug, Clone, Copy)]
enum Effect {
    None,
    DropDay(i64),
    /// `rows` more rows on `day`, worth `sum` (negative for a DELETE;
    /// an UPDATE adds to the sum only). `affected` is the count the
    /// server must report.
    Change {
        day: i64,
        rows: i64,
        sum: i64,
        affected: i64,
    },
    /// `ANALYZE` ends the day.
    DayDone(i64),
}

/// Connection W. One "day": add a partition, drop the oldest, ten
/// inserts, one update, one delete, one analyze — table size is
/// stationary.
struct Writer {
    seed: u64,
    newest: Arc<AtomicI64>,
    /// The next day to write.
    day: i64,
    /// Stop after this day (traced sample); `None` = run on.
    last_day: Option<i64>,
    /// The rest of the current day's statements, last first.
    queue: Vec<(Stmt, Effect)>,
    /// Effect of the statement just sent, applied when it is acknowledged.
    pending: Effect,
    /// Model of the table: live day → `(count, sum)`.
    live: HashMap<i64, (i64, i64)>,
}

impl Writer {
    fn plan_day(&mut self) {
        let n = self.day;
        self.day += 1;
        let stmt = |class: Class, sql: String| Stmt {
            sql,
            params: Vec::new(),
            class,
        };
        let today = Day::of(self.seed, n);
        let yesterday = Day::of(self.seed, n - 1);
        let mut day = vec![
            (
                stmt(
                    Class::Ddl,
                    format!(
                        "ALTER TABLE ev ADD PARTITION d{n} START ({n}) END ({})",
                        n + 1
                    ),
                ),
                Effect::None,
            ),
            (
                stmt(
                    Class::Ddl,
                    format!("ALTER TABLE ev DROP PARTITION d{}", n - LIVE_DAYS),
                ),
                Effect::DropDay(n - LIVE_DAYS),
            ),
        ];
        for chunk in day_rows(self.seed, n).chunks(ROWS_PER_INSERT) {
            let values: Vec<String> = chunk
                .iter()
                .map(|(id, cust, amt)| format!("({id}, {n}, {cust}, {amt})"))
                .collect();
            day.push((
                stmt(
                    Class::Write,
                    format!("INSERT INTO ev VALUES {}", values.join(", ")),
                ),
                Effect::Change {
                    day: n,
                    rows: chunk.len() as i64,
                    sum: chunk.iter().map(|r| i64::from(r.2)).sum(),
                    affected: chunk.len() as i64,
                },
            ));
        }
        day.push((
            stmt(
                Class::Write,
                format!("UPDATE ev SET amt = amt + 1 WHERE day = {n} AND cust < {UPDATE_BELOW}"),
            ),
            Effect::Change {
                day: n,
                rows: 0,
                sum: today.updated,
                affected: today.updated,
            },
        ));
        day.push((
            stmt(
                Class::Write,
                format!(
                    "DELETE FROM ev WHERE day = {} AND cust >= {DELETE_FROM}",
                    n - 1
                ),
            ),
            Effect::Change {
                day: n - 1,
                rows: -yesterday.deleted,
                sum: -yesterday.deleted_sum,
                affected: yesterday.deleted,
            },
        ));
        day.push((stmt(Class::Ddl, "ANALYZE ev".into()), Effect::DayDone(n)));
        day.reverse();
        self.queue = day;
    }
}

impl Script for Writer {
    fn next(&mut self) -> Option<Stmt> {
        if self.queue.is_empty() {
            if self.last_day.is_some_and(|last| self.day > last) {
                return None;
            }
            self.plan_day();
        }
        let (stmt, effect) = self.queue.pop().expect("a planned day has statements");
        self.pending = effect;
        Some(stmt)
    }

    fn check(&mut self, _stmt: &Stmt, rows: &[Row]) -> bool {
        match self.pending {
            Effect::None => rows.is_empty(),
            Effect::DropDay(day) => {
                self.live.remove(&day);
                rows.is_empty()
            }
            Effect::Change {
                day,
                rows: delta,
                sum,
                affected,
            } => {
                let slot = self.live.entry(day).or_insert((0, 0));
                slot.0 += delta;
                slot.1 += sum;
                rows.len() == 1 && rows[0].values() == [Datum::Int64(affected)]
            }
            Effect::DayDone(day) => {
                self.newest.store(day, Ordering::SeqCst);
                rows.is_empty()
            }
        }
    }

    /// The table must hold exactly what the model says.
    fn finish(&mut self, db: &MppDb) -> Checks {
        let want = self
            .live
            .values()
            .fold((0, 0), |acc, d| (acc.0 + d.0, acc.1 + d.1));
        let got = db
            .sql(TOTAL_SQL)
            .ok()
            .and_then(|out| count_sum_row(&out.rows));
        Checks {
            attempted: 1,
            failed: u64::from(got != Some(want)),
        }
    }
}

/// Connection R.
struct Reader {
    seed: u64,
    rng: StdRng,
    newest: Arc<AtomicI64>,
    sent: u64,
    days: HashMap<i64, Day>,
}

impl Script for Reader {
    fn next(&mut self) -> Option<Stmt> {
        let newest = self.newest.load(Ordering::SeqCst);
        let day = newest - self.rng.gen_range(0..READ_DAYS);
        self.sent += 1;
        Some(if self.sent % 2 == 1 {
            Stmt::read(DAY_SQL, vec![Datum::Int32(day as i32)])
        } else {
            let last = (day + self.rng.gen_range(0..4i64)).min(newest);
            Stmt::read(
                SPAN_SQL,
                vec![Datum::Int32(day as i32), Datum::Int32(last as i32)],
            )
        })
    }

    /// A complete day is in a known state until the next day's DELETE
    /// reaches it, and in another known state after. W runs beside R and
    /// the engine has no snapshot reads, so a reply may also fall between
    /// the two.
    fn check(&mut self, stmt: &Stmt, rows: &[Row]) -> bool {
        if stmt.sql == DAY_SQL {
            let Ok(day) = stmt.params[0].as_i64() else {
                return false;
            };
            let seed = self.seed;
            let d = self.days.entry(day).or_insert_with(|| Day::of(seed, day));
            let Some((count, sum)) = count_sum_row(rows) else {
                return false;
            };
            let hi = d.complete(day);
            let lo = if day >= LIVE_DAYS - 1 {
                d.after_delete(day)
            } else {
                hi
            };
            (lo.0..=hi.0).contains(&count) && (lo.1..=hi.1).contains(&sum)
        } else {
            rows.len() <= 20
                && rows.iter().all(|r| {
                    matches!(
                        (r.values()[0].as_i64(), r.values()[1].as_i64()),
                        (Ok(cust), Ok(n)) if (0..i64::from(CUST_DOMAIN)).contains(&cust) && n >= 1
                    )
                })
        }
    }
}

/// The traced sample: W's statements with R's reads between them, on one
/// connection.
struct Interleaved {
    writer: Writer,
    reader: Reader,
    reads_due: usize,
    last_was_read: bool,
}

impl Script for Interleaved {
    fn next(&mut self) -> Option<Stmt> {
        self.last_was_read = self.reads_due > 0;
        if self.last_was_read {
            self.reads_due -= 1;
            return self.reader.next();
        }
        self.reads_due = TRACED_READS_PER_WRITE;
        self.writer.next()
    }

    fn check(&mut self, stmt: &Stmt, rows: &[Row]) -> bool {
        if self.last_was_read {
            self.reader.check(stmt, rows)
        } else {
            self.writer.check(stmt, rows)
        }
    }

    fn finish(&mut self, db: &MppDb) -> Checks {
        self.writer.finish(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_day_is_fifteen_statements_and_the_model_follows() {
        let w = RollingDml::new(3);
        let mut s = w.writer(Some(LIVE_DAYS));
        let mut classes = Vec::new();
        while let Some(stmt) = s.next() {
            let reply = match s.pending {
                Effect::Change { affected, .. } => vec![Row::new(vec![Datum::Int64(affected)])],
                _ => Vec::new(),
            };
            assert!(s.check(&stmt, &reply), "{}", &stmt.sql[..30]);
            classes.push(stmt.class);
        }
        assert_eq!(classes.len(), 15);
        assert_eq!(classes.iter().filter(|c| **c == Class::Write).count(), 12);
        assert_eq!(w.newest.load(Ordering::SeqCst), LIVE_DAYS);
        // One day in, one day out, one day's DELETE applied.
        assert_eq!(s.live.len() as i64, LIVE_DAYS);
        assert!(!s.live.contains_key(&0));
        let d47 = Day::of(3, LIVE_DAYS - 1);
        assert_eq!(s.live[&(LIVE_DAYS - 1)], d47.after_delete(LIVE_DAYS - 1));
        assert!(d47.deleted > 0 && d47.updated > 0);
    }
}
