//! Property-based equivalence of the two execution engines: over random
//! data, random predicates, both planners and 1 or 1-per-segment workers, the
//! vectorized block engine (`ExecEngine::Batch`) must be observationally
//! identical to the row-at-a-time interpreter (`ExecEngine::Row`) — the
//! same multiset of rows, the same partitions scanned and tuples read,
//! and, for queries whose expressions fail at runtime, the same error.

use mppart::common::Datum;
use mppart::core::OptimizerConfig;
use mppart::testing::sorted;
use mppart::workloads::{setup_nullable, setup_rs, setup_skewed, SynthConfig};
use mppart::{ExecEngine, MppDb, Planner, SchedConfig};
use proptest::prelude::*;

/// A small random single-table predicate over `a` and the partition key
/// `b`, rendered as SQL.
#[derive(Debug, Clone)]
enum Pred {
    Cmp(&'static str, i32, bool /* on partition key b */),
    Between(i32, i32, bool),
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
    Not(Box<Pred>),
}

impl Pred {
    fn to_sql(&self) -> String {
        match self {
            Pred::Cmp(op, v, on_b) => format!("{} {op} {v}", if *on_b { "b" } else { "a" }),
            Pred::Between(lo, hi, on_b) => {
                format!("{} BETWEEN {lo} AND {hi}", if *on_b { "b" } else { "a" })
            }
            Pred::And(l, r) => format!("({} AND {})", l.to_sql(), r.to_sql()),
            Pred::Or(l, r) => format!("({} OR {})", l.to_sql(), r.to_sql()),
            Pred::Not(p) => format!("NOT {}", p.to_sql()),
        }
    }
}

fn arb_pred() -> impl Strategy<Value = Pred> {
    let leaf = prop_oneof![
        (
            prop_oneof![
                Just("="),
                Just("<"),
                Just("<="),
                Just(">"),
                Just(">="),
                Just("<>")
            ],
            0i32..200,
            any::<bool>()
        )
            .prop_map(|(op, v, on_b)| Pred::Cmp(op, v, on_b)),
        (0i32..200, 0i32..200, any::<bool>()).prop_map(|(lo, hi, on_b)| Pred::Between(
            lo.min(hi),
            lo.max(hi),
            on_b
        )),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Pred::And(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Pred::Or(Box::new(l), Box::new(r))),
            inner.prop_map(|p| Pred::Not(Box::new(p))),
        ]
    })
}

/// Two databases with identical synthetic data: one running the block
/// engine, one running the row engine, both on `workers` workers.
fn engine_pair(segs: usize, parts: usize, seed: u64, workers: usize) -> (MppDb, MppDb) {
    let cfg = SynthConfig {
        r_rows: 300,
        s_rows: 120,
        r_parts: Some(parts),
        s_parts: None,
        b_domain: 200,
        a_domain: 200,
        seed,
    };
    let mk = |engine| {
        let db = MppDb::with_config(OptimizerConfig {
            num_segments: segs,
            ..OptimizerConfig::default()
        })
        .with_sched_config(SchedConfig::with_workers(workers))
        .with_exec_engine(engine);
        setup_rs(db.storage(), &cfg).unwrap();
        db
    };
    (mk(ExecEngine::Batch), mk(ExecEngine::Row))
}

/// Run one statement on both engines and both planners, asserting the
/// observable outcome is identical.
fn assert_engines_agree(
    batch: &MppDb,
    row: &MppDb,
    sql: &str,
    params: &[Datum],
) -> Result<(), TestCaseError> {
    for planner in [Planner::Orca, Planner::Legacy] {
        let b = batch.run_sql(sql, params, planner);
        let r = row.run_sql(sql, params, planner);
        match (b, r) {
            (Ok(b), Ok(r)) => {
                prop_assert_eq!(
                    sorted(b.rows),
                    sorted(r.rows),
                    "rows differ for {} ({:?})",
                    sql,
                    planner
                );
                prop_assert_eq!(
                    &b.stats.parts_scanned,
                    &r.stats.parts_scanned,
                    "parts_scanned differ for {} ({:?})",
                    sql,
                    planner
                );
                prop_assert_eq!(
                    b.stats.tuples_scanned,
                    r.stats.tuples_scanned,
                    "tuples_scanned differ for {} ({:?})",
                    sql,
                    planner
                );
                prop_assert_eq!(
                    b.stats.rows_moved,
                    r.stats.rows_moved,
                    "rows_moved differ for {} ({:?})",
                    sql,
                    planner
                );
                // The row engine never touches vectorized paths.
                prop_assert_eq!(r.stats.rows_vectorized, 0);
                prop_assert_eq!(r.stats.blocks_produced, 0);
            }
            (Err(b), Err(r)) => {
                // Same failure, same message — the block engine's
                // fallback must surface the row engine's exact error.
                prop_assert_eq!(
                    b.to_string(),
                    r.to_string(),
                    "error differs for {} ({:?})",
                    sql,
                    planner
                );
            }
            (b, r) => {
                return Err(TestCaseError::fail(format!(
                    "engines disagree on success for {sql} ({planner:?}): \
                     batch={:?} row={:?}",
                    b.map(|o| o.rows.len()),
                    r.map(|o| o.rows.len())
                )));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Selections over random predicates: identical rows, identical
    /// partition-elimination work, on one worker and one per segment.
    #[test]
    fn batch_matches_row_on_selections(
        pred in arb_pred(),
        seed in 0u64..100,
        parts in 1usize..20,
        segs in 1usize..4,
    ) {
        let sql = format!("SELECT * FROM r WHERE {}", pred.to_sql());
        for workers in [1, segs] {
            let (batch, row) = engine_pair(segs, parts, seed, workers);
            assert_engines_agree(&batch, &row, &sql, &[])?;
        }
    }

    /// Joins (hash-join key vectorization + motions) and aggregates
    /// (vectorized key extraction and accumulator input).
    #[test]
    fn batch_matches_row_on_joins_and_aggs(
        cutoff in 0i32..200,
        seed in 0u64..50,
        parts in 1usize..16,
    ) {
        let (batch, row) = engine_pair(3, parts, seed, 3);
        for sql in [
            format!("SELECT * FROM r, s WHERE r.b = s.y AND r.a < {cutoff}"),
            format!("SELECT b, COUNT(*), SUM(a) FROM r WHERE a < {cutoff} GROUP BY b"),
            format!("SELECT COUNT(*), MIN(a), MAX(b), AVG(a) FROM r WHERE b >= {cutoff}"),
            format!("SELECT a + b, a * 2 FROM r WHERE b < {cutoff} ORDER BY a + b LIMIT 7"),
        ] {
            assert_engines_agree(&batch, &row, &sql, &[])?;
        }
    }

    /// Runtime expression errors (division by zero somewhere mid-block)
    /// must surface identically: same error kind and message, whichever
    /// engine hit it. Exercises the strict-eval row fallback.
    #[test]
    fn batch_matches_row_on_runtime_errors(
        k in 1i32..40,
        seed in 0u64..50,
        parts in 1usize..12,
    ) {
        for workers in [1, 2] {
            let (batch, row) = engine_pair(2, parts, seed, workers);
            for sql in [
                // Errors on rows where a % k == 0 (if any survive the filter).
                format!("SELECT b / (a % {k}) FROM r WHERE b < 120"),
                // Error in a filter predicate.
                format!("SELECT a FROM r WHERE 100 / (a % {k}) > 1"),
                // Error inside an aggregate argument.
                format!("SELECT SUM(b / (a % {k})) FROM r"),
            ] {
                assert_engines_agree(&batch, &row, &sql, &[])?;
            }
        }
    }

    /// The block engine under the morsel scheduler, across worker counts
    /// and heavy skew (one partition holding ~90% of the rows), stays
    /// observationally identical to the row interpreter: same rows, same
    /// partition work, same error outcome — the fused pipeline and its
    /// row fallback must not depend on how morsels were distributed.
    #[test]
    fn batch_matches_row_across_worker_counts_on_skew(
        seed in 0u64..20,
        cutoff in 20i32..180,
        k in 1i32..24,
    ) {
        let cfg = SynthConfig {
            r_rows: 400,
            s_rows: 0,
            r_parts: Some(12),
            s_parts: None,
            b_domain: 200,
            a_domain: 200,
            seed,
        };
        let queries = [
            format!("SELECT * FROM r WHERE a < {cutoff}"),
            format!("SELECT b, COUNT(*), SUM(a), AVG(a) FROM r WHERE a < {cutoff} GROUP BY b"),
            format!("SELECT SUM(100 / (a % {k})) FROM r WHERE b < {cutoff}"),
        ];
        for workers in [1usize, 2, 4, 8] {
            let mk = |engine, sched: SchedConfig| {
                let db = MppDb::with_config(OptimizerConfig {
                    num_segments: 4,
                    ..OptimizerConfig::default()
                })
                .with_exec_engine(engine)
                .with_sched_config(sched);
                setup_skewed(db.storage(), "r", &cfg, 90, 0).unwrap();
                db
            };
            let batch = mk(
                ExecEngine::Batch,
                SchedConfig {
                    workers: Some(workers),
                    morsel_rows: 48,
                },
            );
            let row = mk(ExecEngine::Row, SchedConfig::default());
            for sql in &queries {
                assert_engines_agree(&batch, &row, sql, &[])?;
            }
        }
    }

    /// Nullable typed columns: the validity-bitmap representation keeps a
    /// null-bearing `v` column on the word-mask / typed-kernel paths, and
    /// every 3VL shape — comparisons, BETWEEN, IN, IS [NOT] NULL, AND/OR,
    /// arithmetic with NULL propagation, aggregates skipping NULLs, NULL
    /// group keys, deferred division errors — must stay observationally
    /// identical to the row interpreter.
    #[test]
    fn batch_matches_row_on_nullable_columns(
        cutoff in 0i32..200,
        k in 1i32..24,
        null_pct in prop_oneof![Just(0u32), Just(10), Just(50), Just(95)],
        seed in 0u64..50,
        parts in 1usize..12,
    ) {
        let cfg = SynthConfig {
            r_rows: 300,
            s_rows: 0,
            r_parts: Some(parts),
            s_parts: None,
            b_domain: 200,
            a_domain: 200,
            seed,
        };
        let mk = |engine| {
            let db = MppDb::with_config(OptimizerConfig {
                num_segments: 3,
                ..OptimizerConfig::default()
            })
            .with_sched_config(SchedConfig::with_workers(3))
            .with_exec_engine(engine);
            setup_nullable(db.storage(), "rn", &cfg, null_pct).unwrap();
            db
        };
        let (batch, row) = (mk(ExecEngine::Batch), mk(ExecEngine::Row));
        for sql in [
            format!("SELECT * FROM rn WHERE v < {cutoff}"),
            format!("SELECT * FROM rn WHERE v BETWEEN {} AND {}", cutoff / 2, cutoff),
            "SELECT * FROM rn WHERE v IS NULL".to_string(),
            format!("SELECT * FROM rn WHERE v IS NOT NULL AND v >= {cutoff}"),
            format!("SELECT * FROM rn WHERE v IN (1, 7, {cutoff}) OR v IS NULL"),
            format!("SELECT v + a, v * 2 FROM rn WHERE b < {cutoff}"),
            format!("SELECT b, COUNT(*), COUNT(v), SUM(v), AVG(v) FROM rn WHERE a < {cutoff} GROUP BY b"),
            "SELECT v, COUNT(*) FROM rn GROUP BY v".to_string(),
            "SELECT MIN(v), MAX(v), SUM(v) FROM rn".to_string(),
            format!("SELECT 100 / (v % {k}) FROM rn WHERE b < {cutoff}"),
            format!("SELECT SUM(100 / (v % {k})) FROM rn"),
        ] {
            assert_engines_agree(&batch, &row, &sql, &[])?;
        }
    }

    /// Prepared statements: one handle, many parameter bindings, both
    /// engines — rows and partition elimination must match per binding.
    #[test]
    fn batch_matches_row_on_prepared_params(
        bounds in proptest::collection::vec(0i32..200, 1..4),
        seed in 0u64..50,
        parts in 2usize..16,
    ) {
        let (batch, row) = engine_pair(3, parts, seed, 3);
        let sql = "SELECT * FROM r WHERE b < $1";
        let bq = batch.prepare(sql).unwrap();
        let rq = row.prepare(sql).unwrap();
        for v in bounds {
            let params = [Datum::Int32(v)];
            let b = batch.execute_prepared(&bq, &params).unwrap();
            let r = row.execute_prepared(&rq, &params).unwrap();
            prop_assert_eq!(sorted(b.rows), sorted(r.rows), "v={}", v);
            prop_assert_eq!(&b.stats.parts_scanned, &r.stats.parts_scanned, "v={}", v);
            prop_assert_eq!(b.stats.tuples_scanned, r.stats.tuples_scanned, "v={}", v);
        }
        // Template reuse is engine-independent: sites compiled once.
        prop_assert_eq!(bq.compiled_sites(), rq.compiled_sites());
    }
}

/// The block engine actually vectorizes: a filtered scan+agg pipeline
/// reports vectorized rows and produced blocks, with no row fallback.
#[test]
fn batch_engine_reports_vectorized_work() {
    let (batch, row) = engine_pair(3, 8, 7, 1);
    let sql = "SELECT b, COUNT(*) FROM r WHERE a < 150 GROUP BY b";
    let b = batch.sql(sql).unwrap();
    let r = row.sql(sql).unwrap();
    assert_eq!(sorted(b.rows), sorted(r.rows));
    assert!(b.stats.rows_vectorized > 0, "{:?}", b.stats);
    assert!(b.stats.blocks_produced > 0, "{:?}", b.stats);
    assert_eq!(b.stats.rows_row_fallback, 0, "{:?}", b.stats);
    assert_eq!(r.stats.rows_vectorized, 0);
}

/// DML always runs on the row engine, and a batch-engine session still
/// executes it correctly (insert → vectorized read-back).
#[test]
fn dml_on_batch_session_falls_back_to_row_engine() {
    let db = MppDb::new(2).with_exec_engine(ExecEngine::Batch);
    db.sql("CREATE TABLE t (k INT, v INT) DISTRIBUTED BY (k)")
        .unwrap();
    for i in 0..50 {
        db.sql(&format!("INSERT INTO t VALUES ({i}, {})", i * 3))
            .unwrap();
    }
    db.sql("UPDATE t SET v = v + 1 WHERE k < 10").unwrap();
    db.sql("DELETE FROM t WHERE k >= 40").unwrap();
    let got = db.sql("SELECT COUNT(*), SUM(v) FROM t").unwrap();
    let want: i64 = (0..40).map(|i| i * 3 + i64::from(i < 10)).sum();
    assert_eq!(
        got.rows[0].values(),
        &[Datum::Int64(40), Datum::Int64(want)]
    );
}

// ---------------------------------------------------------------------
// The typed aggregation kernel behind `exec_block`'s HashAgg arm
// ---------------------------------------------------------------------

/// Bit-identical comparison of the block engine's aggregation arm
/// against the row engine over *multi-chunk* inputs: rows in order, datum
/// variants, `f64` bits, error messages and the scan / motion counters.
///
/// Mutation-checked: each of these, applied alone, fails
/// `agg_arm_is_bit_identical_to_row_engine` — keep typed keys when a
/// later block brings another key variant (drop the degrade); emit groups
/// in reverse of first-seen order; fold a block's values back to front
/// (float sums accumulate in a different order); fold typed min/max into
/// the datum form only at finalize; let a float sum that also took typed
/// ints finalize; surface the kernel's own absorb error instead of
/// replaying the chunks through `AggExec`.
mod agg_arm {
    use super::*;
    use mppart::common::value::ArithOp;
    use mppart::common::Row;
    use mppart::executor::{execute_with_params_sched, QueryResult};
    use mppart::expr::{ColRef, Expr};
    use mppart::plan::{AggCall, AggFunc, PhysicalPlan};

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Kind {
        I32,
        I64,
        Date,
        F64,
    }

    impl Kind {
        fn datum(self, v: i64) -> Datum {
            match self {
                Kind::I32 => Datum::Int32(v as i32),
                Kind::I64 => Datum::Int64(v),
                Kind::Date => Datum::Date(v as i32),
                Kind::F64 => Datum::Float64(v as f64),
            }
        }
    }

    /// One row: `(k1, k2, x, f, z)`; `None` = NULL.
    type GenRow = (Option<i64>, i64, Option<i64>, Option<f64>, i64);

    /// One chunk of input: the column variants it arrives in and its rows.
    #[derive(Debug, Clone)]
    struct Chunk {
        k1: Kind,
        k2: Kind,
        x: Kind,
        rows: Vec<GenRow>,
    }

    const HUGE: i64 = i64::MAX / 2 + 1;
    const INT_KINDS: [Kind; 3] = [Kind::I32, Kind::I64, Kind::Date];

    /// Raw draws for one row / one chunk (the vendored proptest has no
    /// weighted or dependent strategies, so the weighting is in `decode`).
    type RawRow = (u8, i64, u8, i64, u8, f64, i64);
    type RawChunk = ((usize, usize, usize), (u8, u8, u8), Vec<RawRow>);

    fn arb_chunks() -> impl Strategy<Value = Vec<RawChunk>> {
        let row = (
            0u8..8,
            0i64..3,
            0u8..10,
            -50i64..50,
            0u8..8,
            0f64..1.0,
            0i64..4,
        );
        let chunk = (
            (0usize..15, 0usize..15, 0usize..16),
            (0u8..4, 0u8..7, 0u8..3),
            proptest::collection::vec(row, 0..10),
        );
        proptest::collection::vec(chunk, 0..6)
    }

    impl Chunk {
        /// Chunks mostly arrive in the case's base variants (typed keys
        /// survive several chunks) and now and then flip one (a later
        /// chunk degrades a typed start, or a float lane follows an int
        /// lane); a quarter carry NULL keys, some a zero divisor (a
        /// row-fallback chunk, which errors) or sum-overflowing values.
        fn decode(raw: &RawChunk, base: (usize, usize, usize)) -> Chunk {
            let ((f1, f2, fx), (null_keys, zeros, huge), rows) = raw;
            let pick = |flip: usize, base: usize| INT_KINDS[if flip < 3 { flip } else { base }];
            let x = if *fx == 3 {
                Kind::F64
            } else {
                pick(*fx, base.2)
            };
            let (null_keys, zeros, huge) = (*null_keys == 0, *zeros == 0, *huge == 0);
            let rows = rows
                .iter()
                .map(|&(k1, k2, xp, xs, fp, fu, z)| {
                    let k1 = (!(null_keys && k1 >= 6)).then_some(k1 as i64 % 4);
                    let xv = match xp {
                        0 => None,
                        1..=3 if huge && x == Kind::I64 => Some(HUGE),
                        _ => Some(xs),
                    };
                    let fv = match fp {
                        0 => None,
                        1..=3 => Some(-1e3 + fu * 2e3),
                        4 | 5 => Some(1e12 + fu * 9e12),
                        _ => Some(0.1),
                    };
                    (k1, k2, xv, fv, if zeros { z } else { z.max(1) })
                })
                .collect();
            Chunk {
                k1: pick(*f1, base.0),
                k2: pick(*f2, base.1),
                x,
                rows,
            }
        }

        fn datums(&self) -> Vec<Vec<Datum>> {
            self.rows
                .iter()
                .map(|&(k1, k2, x, f, z)| {
                    vec![
                        k1.map_or(Datum::Null, |v| self.k1.datum(v)),
                        self.k2.datum(k2),
                        x.map_or(Datum::Null, |v| self.x.datum(v)),
                        f.map_or(Datum::Null, Datum::Float64),
                        Datum::Int32(z as i32),
                    ]
                })
                .collect()
        }
    }

    fn cols() -> Vec<ColRef> {
        ["k1", "k2", "x", "f", "z"]
            .iter()
            .enumerate()
            .map(|(i, n)| ColRef::new(i as u32 + 1, *n))
            .collect()
    }

    const FUNCS: [AggFunc; 5] = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
    ];

    /// `(function, argument)` picks: argument 0 = `x`, 1 = `f`,
    /// 2 = `100 / z`, 3 = none (`count(*)`).
    fn arb_calls() -> impl Strategy<Value = Vec<(usize, usize)>> {
        proptest::collection::vec((0usize..5, 0usize..4), 1..5)
    }

    fn agg_calls(picks: &[(usize, usize)]) -> Vec<AggCall> {
        let c = cols();
        picks
            .iter()
            .map(|&(func, arg)| match arg {
                0 => AggCall::new(FUNCS[func], Expr::col(c[2].clone())),
                1 => AggCall::new(FUNCS[func], Expr::col(c[3].clone())),
                2 => AggCall::new(
                    FUNCS[func],
                    Expr::Arith {
                        op: ArithOp::Div,
                        left: Box::new(Expr::lit(Datum::Int64(100))),
                        right: Box::new(Expr::col(c[4].clone())),
                    },
                ),
                _ => AggCall::count_star(),
            })
            .collect()
    }

    fn sql_calls(picks: &[(usize, usize)]) -> Vec<String> {
        picks
            .iter()
            .map(|&(func, arg)| {
                let f = ["COUNT", "SUM", "AVG", "MIN", "MAX"][func];
                match arg {
                    0 => format!("{f}(x)"),
                    1 => format!("{f}(f)"),
                    2 => format!("{f}(100 / z)"),
                    _ => "COUNT(*)".to_string(),
                }
            })
            .collect()
    }

    /// Rows rendered so that datum variants and float bits both count.
    fn render(rows: &[Row]) -> Vec<String> {
        rows.iter()
            .map(|r| {
                let vals: Vec<String> = r
                    .values()
                    .iter()
                    .map(|d| match d {
                        Datum::Float64(f) => format!("Float64({:#018x})", f.to_bits()),
                        d => format!("{d:?}"),
                    })
                    .collect();
                vals.join(", ")
            })
            .collect()
    }

    fn assert_identical(
        batch: mppart::common::Result<QueryResult>,
        row: mppart::common::Result<QueryResult>,
        what: &str,
    ) -> Result<(), TestCaseError> {
        match (batch, row) {
            (Ok(b), Ok(r)) => {
                prop_assert_eq!(render(&b.rows), render(&r.rows), "rows of {}", what);
                prop_assert_eq!(&b.stats.parts_scanned, &r.stats.parts_scanned, "{}", what);
                prop_assert_eq!(b.stats.tuples_scanned, r.stats.tuples_scanned, "{}", what);
                prop_assert_eq!(b.stats.rows_moved, r.stats.rows_moved, "{}", what);
            }
            (Err(b), Err(r)) => prop_assert_eq!(b.to_string(), r.to_string(), "{}", what),
            (b, r) => {
                return Err(TestCaseError::fail(format!(
                    "engines disagree on success for {what}: batch={:?} row={:?}",
                    b.map(|o| render(&o.rows)),
                    r.map(|o| render(&o.rows))
                )))
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn agg_arm_is_bit_identical_to_row_engine(
            raw in arb_chunks(),
            base in (0usize..3, 0usize..3, 0usize..3),
            picks in arb_calls(),
            n_keys in 0usize..3,
            segs in 1usize..4,
        ) {
            // Leg 1: a hand-built `HashAgg(Append[Values..])`. Each
            // non-empty `Values` is one chunk on segment 0 in exactly the
            // generated column variants; every other segment aggregates
            // empty input (and an all-empty case puts the scalar default
            // row on segment 0 only).
            let chunks: Vec<Chunk> = raw.iter().map(|r| Chunk::decode(r, base)).collect();
            let c = cols();
            let calls = agg_calls(&picks);
            let mut output: Vec<ColRef> = c[..n_keys].to_vec();
            output.extend((0..calls.len()).map(|i| ColRef::new(10 + i as u32, "agg")));
            let plan = PhysicalPlan::HashAgg {
                group_by: c[..n_keys].to_vec(),
                aggs: calls,
                output,
                child: Box::new(PhysicalPlan::Append {
                    output: c.clone(),
                    children: chunks
                        .iter()
                        .map(|ch| PhysicalPlan::Values { rows: ch.datums(), output: c.clone() })
                        .collect(),
                }),
            };
            let db = MppDb::new(segs);
            for workers in [1, segs] {
                let sched = SchedConfig::with_workers(workers);
                let run = |engine| execute_with_params_sched(db.storage(), &plan, &[], engine, &sched);
                assert_identical(
                    run(ExecEngine::Batch),
                    run(ExecEngine::Row),
                    &format!("{workers} worker(s) values plan"),
                )?;
            }

            // Leg 2: the same rows in a stored table, one range partition
            // per chunk, through SQL: the aggregate sits above a Motion,
            // its input is one chunk per (segment, partition), and the
            // scan / motion counters are live. Segments the hash
            // distribution leaves empty — segment 0 included — aggregate
            // empty input.
            let keys = ["", "k1", "k1, k2"][n_keys];
            let select: Vec<String> =
                keys.split(", ").filter(|k| !k.is_empty()).map(String::from)
                    .chain(sql_calls(&picks)).collect();
            let mut sql = format!("SELECT {} FROM t", select.join(", "));
            if n_keys > 0 {
                sql.push_str(&format!(" GROUP BY {keys}"));
            }
            let mk = |engine| {
                let db = MppDb::new(segs).with_exec_engine(engine);
                db.sql("CREATE TABLE t (p INT, k1 INT, k2 BIGINT, x BIGINT, f FLOAT8, z INT) \
                        DISTRIBUTED BY (k2) \
                        PARTITION BY RANGE (p) (START (0) END (6) EVERY (1))").unwrap();
                let t = db.catalog().table_by_name("t").unwrap().oid;
                for (p, ch) in chunks.iter().enumerate() {
                    let typed = Chunk { k1: Kind::I32, k2: Kind::I64, x: Kind::I64, ..ch.clone() };
                    db.storage().insert(t, typed.datums().into_iter().map(|mut vals| {
                        vals.insert(0, Datum::Int32(p as i32));
                        Row::new(vals)
                    })).unwrap();
                }
                db
            };
            let (batch, row) = (mk(ExecEngine::Batch), mk(ExecEngine::Row));
            for planner in [Planner::Orca, Planner::Legacy] {
                assert_identical(
                    batch.run_sql(&sql, &[], planner).map(into_result),
                    row.run_sql(&sql, &[], planner).map(into_result),
                    &format!("{sql} ({planner:?})"),
                )?;
            }
        }
    }

    fn into_result(o: mppart::QueryOutcome) -> QueryResult {
        QueryResult {
            rows: o.rows,
            stats: o.stats,
        }
    }
}
