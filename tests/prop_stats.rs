//! Incrementally maintained statistics equal a from-scratch pass.
//!
//! Random schedules of INSERT / UPDATE / DELETE / ADD PARTITION / DROP
//! PARTITION / ANALYZE run through SQL against a single-level, a
//! multi-level-with-DEFAULT, a replicated and an unpartitioned table.
//! After **every** step the catalog's row counts (total and per leaf) must
//! equal the rows actually stored — DML keeps them exact without ANALYZE —
//! and after every ANALYZE the installed statistics must equal a reference
//! pass over all the rows: `row_count`, `part_rows`, `null_frac`, min/max
//! exactly; NDV exactly up to `NDV_EXACT_CAP` and within ±5% above it;
//! `le_frac` within 2/32 at every bound of the exact equi-depth histogram.
//! Each schedule runs twice: as generated (dirty leaves pile up between
//! the scheduled ANALYZEs) and with an ANALYZE after every step.

use mppart::catalog::{TableStats, NDV_EXACT_CAP};
use mppart::common::{Datum, PartOid, Row, SegmentId, TableOid};
use mppart::storage::PhysId;
use mppart::MppDb;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

#[derive(Debug, Clone, Copy)]
enum Kind {
    SingleLevel,
    MultiLevelDefault,
    Replicated,
    Unpartitioned,
}

#[derive(Debug, Clone)]
enum Action {
    Insert { seed: u64, rows: usize },
    Update { seed: u64 },
    Delete { seed: u64 },
    AddPartition,
    DropPartition { pick: usize },
    Analyze,
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (any::<u64>(), 1..240usize).prop_map(|(seed, rows)| Action::Insert { seed, rows }),
        (any::<u64>(), 1..240usize).prop_map(|(seed, rows)| Action::Insert { seed, rows }),
        any::<u64>().prop_map(|seed| Action::Update { seed }),
        any::<u64>().prop_map(|seed| Action::Delete { seed }),
        Just(Action::AddPartition),
        (0..8usize).prop_map(|pick| Action::DropPartition { pick }),
        Just(Action::Analyze),
    ]
}

fn kind() -> impl Strategy<Value = Kind> {
    prop_oneof![
        Just(Kind::SingleLevel),
        Just(Kind::MultiLevelDefault),
        Just(Kind::Replicated),
        Just(Kind::Unpartitioned),
    ]
}

/// xorshift64*, so a generated seed expands into rows at execution time,
/// when the partitions that exist are known.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0 | 1;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545f4914f6cdd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Width of one level-0 range piece on `k`.
const PIECE: i64 = 10;

struct Table {
    db: MppDb,
    oid: TableOid,
    kind: Kind,
    /// Low bound of the next range piece ADD PARTITION will create.
    next_lo: i64,
    added: usize,
}

impl Table {
    fn create(kind: Kind) -> Table {
        let db = MppDb::new(3);
        let columns = "(id int, k int, v int, s text)";
        let ddl = match kind {
            Kind::SingleLevel => format!(
                "CREATE TABLE t {columns} DISTRIBUTED BY (id) \
                 PARTITION BY RANGE (k) (START (0) END (40) EVERY ({PIECE}))"
            ),
            Kind::MultiLevelDefault => format!(
                "CREATE TABLE t {columns} DISTRIBUTED BY (id) \
                 PARTITION BY RANGE (k) (START (0) END (40) EVERY ({PIECE})) \
                 SUBPARTITION BY LIST (s) \
                 (PARTITION sa VALUES ('a'), DEFAULT PARTITION rest)"
            ),
            Kind::Replicated => format!("CREATE TABLE t {columns} DISTRIBUTED REPLICATED"),
            Kind::Unpartitioned => format!("CREATE TABLE t {columns} DISTRIBUTED BY (id)"),
        };
        db.sql(&ddl).unwrap();
        let oid = db.catalog().table_by_name("t").unwrap().oid;
        Table {
            db,
            oid,
            kind,
            next_lo: 40,
            added: 0,
        }
    }

    fn partitioned(&self) -> bool {
        matches!(self.kind, Kind::SingleLevel | Kind::MultiLevelDefault)
    }

    /// Names and low bounds of the level-0 pieces that exist now.
    fn pieces(&self) -> Vec<(String, i64)> {
        let desc = self.db.catalog().table(self.oid).unwrap();
        let Some(tree) = &desc.partitioning else {
            return Vec::new();
        };
        let pieces = tree.levels()[0].pieces.iter();
        pieces
            .map(|p| {
                let lo = (0..self.next_lo)
                    .step_by(PIECE as usize)
                    .find(|&lo| p.constraint.contains(&Datum::Int32(lo as i32)));
                (p.name.clone(), lo.expect("every piece is one decade of k"))
            })
            .collect()
    }

    /// A `k` that routes (almost always): inside a piece that exists.
    fn some_k(&self, rng: &mut Rng) -> i64 {
        let pieces = self.pieces();
        if pieces.is_empty() {
            return rng.below(60) as i64;
        }
        if rng.below(4_000) == 0 {
            return self.next_lo + 5; // no partition accepts this one
        }
        let (_, lo) = &pieces[rng.below(pieces.len() as u64) as usize];
        lo + rng.below(PIECE as u64) as i64
    }

    fn apply(&mut self, action: &Action) {
        // A statement may fail (a key no partition accepts, dropping the
        // last partition): then it must have changed nothing, which the
        // checks after the step see.
        let _ = match action {
            Action::Insert { seed, rows } => {
                let mut rng = Rng(*seed);
                let values: Vec<String> = (0..*rows)
                    .map(|_| {
                        let id = rng.below(200_000);
                        let k = self.some_k(&mut rng);
                        let v = match rng.below(5) {
                            0 => "NULL".to_string(),
                            1 => "7".to_string(),
                            _ => rng.below(1_000).to_string(),
                        };
                        let s = ["a", "b", "c"][rng.below(3) as usize];
                        format!("({id}, {k}, {v}, '{s}')")
                    })
                    .collect();
                self.db
                    .sql(&format!("INSERT INTO t VALUES {}", values.join(", ")))
            }
            Action::Update { seed } => {
                let mut rng = Rng(*seed);
                let k = self.some_k(&mut rng);
                if rng.below(3) == 0 {
                    // Moves rows to the neighbouring partition (or fails).
                    self.db
                        .sql(&format!("UPDATE t SET k = k + {PIECE} WHERE k = {k}"))
                } else {
                    let v = rng.below(1_000);
                    self.db.sql(&format!(
                        "UPDATE t SET v = {v} WHERE k BETWEEN {k} AND {}",
                        k + 3
                    ))
                }
            }
            Action::Delete { seed } => {
                let mut rng = Rng(*seed);
                let k = self.some_k(&mut rng);
                let cut = rng.below(1_200);
                self.db.sql(&format!(
                    "DELETE FROM t WHERE k BETWEEN {k} AND {} AND id < {}",
                    k + 6,
                    cut * 200
                ))
            }
            Action::AddPartition if self.partitioned() => {
                let (lo, name) = (self.next_lo, format!("added{}", self.added));
                self.next_lo += PIECE;
                self.added += 1;
                self.db.sql(&format!(
                    "ALTER TABLE t ADD PARTITION {name} START ({lo}) END ({})",
                    lo + PIECE
                ))
            }
            Action::DropPartition { pick } if self.partitioned() => {
                let pieces = self.pieces();
                let (name, _) = &pieces[pick % pieces.len()];
                self.db.sql(&format!("ALTER TABLE t DROP PARTITION {name}"))
            }
            Action::AddPartition | Action::DropPartition { .. } => return,
            Action::Analyze => self.db.sql("ANALYZE t"),
        };
    }

    /// The rows actually stored, per leaf (one copy of a replicated table).
    fn stored(&self) -> Vec<(Option<PartOid>, Vec<Row>)> {
        let storage = self.db.storage();
        storage
            .physical_tables(self.oid)
            .unwrap()
            .into_iter()
            .map(|phys| {
                let rows = match self.kind {
                    Kind::Replicated => storage.scan(phys, SegmentId(0)),
                    _ => storage.scan_all_segments(phys),
                };
                let part = match phys {
                    PhysId::Part(p) => Some(p),
                    PhysId::Table(_) => None,
                };
                (part, rows)
            })
            .collect()
    }
}

/// Row counts are exact after every statement, analyzed or not.
fn check_counts(
    stats: &TableStats,
    stored: &[(Option<PartOid>, Vec<Row>)],
) -> Result<(), TestCaseError> {
    let total: usize = stored.iter().map(|(_, rows)| rows.len()).sum();
    prop_assert_eq!(stats.row_count, total as u64, "row_count");
    let leaves: HashSet<PartOid> = stored.iter().filter_map(|(p, _)| *p).collect();
    for (part, rows) in stored {
        if let Some(p) = part {
            let counted = stats.part_rows.get(p).copied().unwrap_or(0);
            prop_assert_eq!(counted, rows.len() as u64, "part_rows of {}", p);
        }
    }
    for p in stats.part_rows.keys() {
        prop_assert!(leaves.contains(p), "part_rows names the dropped leaf {}", p);
    }
    Ok(())
}

/// What ANALYZE installed equals a from-scratch pass over the rows.
fn check_analyzed(
    stats: &TableStats,
    stored: &[(Option<PartOid>, Vec<Row>)],
) -> Result<(), TestCaseError> {
    check_counts(stats, stored)?;
    for (part, _) in stored {
        if let Some(p) = part {
            prop_assert!(stats.part_rows.contains_key(p), "leaf {} not registered", p);
        }
    }
    let rows: Vec<&Row> = stored.iter().flat_map(|(_, rows)| rows).collect();
    for c in 0..4 {
        let col = stats
            .columns
            .get(&c)
            .expect("ANALYZE describes every column");
        let values: Vec<&Datum> = rows
            .iter()
            .map(|r| r.get(c).unwrap())
            .filter(|d| !d.is_null())
            .collect();
        let null_frac = if rows.is_empty() {
            0.0
        } else {
            (rows.len() - values.len()) as f64 / rows.len() as f64
        };
        prop_assert!(
            (col.null_frac - null_frac).abs() < 1e-12,
            "null_frac of #{}",
            c
        );
        prop_assert_eq!(
            col.min.as_ref(),
            values.iter().copied().min(),
            "min of #{}",
            c
        );
        prop_assert_eq!(
            col.max.as_ref(),
            values.iter().copied().max(),
            "max of #{}",
            c
        );

        let ndv = values.iter().copied().collect::<HashSet<&Datum>>().len();
        if ndv <= NDV_EXACT_CAP {
            prop_assert_eq!(col.ndv, ndv.max(1) as u64, "exact ndv of #{}", c);
        } else {
            let off = col.ndv as f64 / ndv as f64 - 1.0;
            prop_assert!(off.abs() <= 0.05, "ndv of #{}: {} for {}", c, col.ndv, ndv);
        }

        let mut ints: Vec<i64> = values.iter().filter_map(|d| d.as_i64().ok()).collect();
        ints.sort_unstable();
        let Some(hist) = &col.histogram else {
            prop_assert!(ints.is_empty(), "no histogram over {} values", ints.len());
            continue;
        };
        prop_assert_eq!(hist.total, ints.len() as u64, "histogram total of #{}", c);
        // The exact equi-depth bounds, and the exact mass at or below each.
        for b in 0..=32usize {
            let bound = ints[(b * ints.len()).div_ceil(32).saturating_sub(1)];
            let exact = ints.partition_point(|&v| v <= bound) as f64 / ints.len() as f64;
            let got = hist.le_frac(bound);
            prop_assert!(
                (got - exact).abs() <= 2.0 / 32.0 + 1e-9,
                "le_frac({}) of #{} is {}, exactly {}",
                bound,
                c,
                got,
                exact
            );
        }
    }
    Ok(())
}

fn run(kind: Kind, actions: &[Action], analyze_every_step: bool) -> Result<(), TestCaseError> {
    let mut t = Table::create(kind);
    // Install (empty) statistics, so the counts are tracked from zero.
    t.db.sql("ANALYZE t").unwrap();
    for action in actions {
        t.apply(action);
        let stored = t.stored();
        check_counts(&t.db.catalog().stats(t.oid), &stored)?;
        if analyze_every_step || matches!(action, Action::Analyze) {
            t.db.sql("ANALYZE t").unwrap();
            check_analyzed(&t.db.catalog().stats(t.oid), &stored)?;
            // Nothing changed since: a second ANALYZE is a no-op.
            let epoch = t.db.planning_epoch();
            t.db.sql("ANALYZE t").unwrap();
            prop_assert_eq!(t.db.planning_epoch(), epoch, "no-op ANALYZE bumped");
        }
    }
    t.db.sql("ANALYZE t").unwrap();
    check_analyzed(&t.db.catalog().stats(t.oid), &t.stored())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_stats_equal_a_reference_pass(
        kind in kind(),
        actions in prop::collection::vec(action(), 4..20),
    ) {
        run(kind, &actions, false)?;
        run(kind, &actions, true)?;
    }
}

/// The per-leaf counts the optimizer specializes on stay exact through a
/// rolling window: the shape of the benchmark's `rolling_dml`.
#[test]
fn rolling_window_keeps_leaf_counts_exact_without_analyze() {
    let mut t = Table::create(Kind::SingleLevel);
    t.db.sql("ANALYZE t").unwrap();
    let epoch = t.db.planning_epoch().1;
    for day in 0..6u64 {
        t.apply(&Action::AddPartition);
        t.apply(&Action::DropPartition { pick: 0 });
        t.apply(&Action::Insert {
            seed: 100 + day,
            rows: 120,
        });
        t.apply(&Action::Delete { seed: 200 + day });
        let stats = t.db.catalog().stats(t.oid);
        let counts: HashMap<PartOid, u64> = t
            .stored()
            .into_iter()
            .map(|(p, rows)| (p.unwrap(), rows.len() as u64))
            .collect();
        assert_eq!(stats.part_rows, counts, "day {day}");
    }
    assert_eq!(
        t.db.planning_epoch().1,
        epoch,
        "DML and partition DDL never move the statistics epoch"
    );
}
