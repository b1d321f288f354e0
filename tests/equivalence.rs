//! Property-based equivalence: over random data and random predicates,
//! the Orca-style optimizer, the Memo path, the legacy planner and a
//! brute-force reference must all return the same rows — partition
//! elimination must never change results, only work done.

use mppart::common::{Datum, Row};
use mppart::core::OptimizerConfig;
use mppart::testing::{approx_same_bag, sorted};
use mppart::workloads::{setup_nullable, setup_rs, setup_skewed, SynthConfig};
use mppart::{ExecEngine, MppDb, Planner, SchedConfig};
use proptest::prelude::*;

/// A randomly generated single-table predicate over `b` (the partition
/// key) and `a`, rendered as SQL and as a closure for brute force.
#[derive(Debug, Clone)]
enum Pred {
    Cmp(&'static str, i32, bool /* on partition key b */),
    Between(i32, i32, bool),
    InList(Vec<i32>, bool),
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
    Not(Box<Pred>),
}

impl Pred {
    fn to_sql(&self) -> String {
        match self {
            Pred::Cmp(op, v, on_b) => {
                format!("{} {op} {v}", if *on_b { "b" } else { "a" })
            }
            Pred::Between(lo, hi, on_b) => {
                format!("{} BETWEEN {lo} AND {hi}", if *on_b { "b" } else { "a" })
            }
            Pred::InList(vals, on_b) => format!(
                "{} IN ({})",
                if *on_b { "b" } else { "a" },
                vals.iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            Pred::And(l, r) => format!("({} AND {})", l.to_sql(), r.to_sql()),
            Pred::Or(l, r) => format!("({} OR {})", l.to_sql(), r.to_sql()),
            Pred::Not(p) => format!("NOT {}", p.to_sql()),
        }
    }

    fn eval(&self, a: i32, b: i32) -> bool {
        match self {
            Pred::Cmp(op, v, on_b) => {
                let x = if *on_b { b } else { a };
                match *op {
                    "=" => x == *v,
                    "<" => x < *v,
                    "<=" => x <= *v,
                    ">" => x > *v,
                    ">=" => x >= *v,
                    "<>" => x != *v,
                    _ => unreachable!(),
                }
            }
            Pred::Between(lo, hi, on_b) => {
                let x = if *on_b { b } else { a };
                x >= *lo && x <= *hi
            }
            Pred::InList(vals, on_b) => {
                let x = if *on_b { b } else { a };
                vals.contains(&x)
            }
            Pred::And(l, r) => l.eval(a, b) && r.eval(a, b),
            Pred::Or(l, r) => l.eval(a, b) || r.eval(a, b),
            Pred::Not(p) => !p.eval(a, b),
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
            0..200i32,
            any::<bool>()
        )
            .prop_map(|(op, v, on_b)| Pred::Cmp(op, v, on_b)),
        (0..200i32, 0..200i32, any::<bool>())
            .prop_map(|(x, y, on_b)| { Pred::Between(x.min(y), x.max(y), on_b) }),
        (prop::collection::vec(0..200i32, 1..5), any::<bool>())
            .prop_map(|(vals, on_b)| Pred::InList(vals, on_b)),
    ];
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Pred::And(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Pred::Or(Box::new(l), Box::new(r))),
            inner.prop_map(|p| Pred::Not(Box::new(p))),
        ]
    })
}

/// Brute-force reference: filter every stored row.
fn brute_force(db: &MppDb, table: &str, pred: &Pred) -> Vec<Row> {
    let desc = db.catalog().table_by_name(table).unwrap();
    let mut out = Vec::new();
    for phys in db.storage().physical_tables(desc.oid).unwrap() {
        for row in db.storage().scan_all_segments(phys) {
            let a = row.values()[0].as_i64().unwrap() as i32;
            let b = row.values()[1].as_i64().unwrap() as i32;
            if pred.eval(a, b) {
                out.push(row);
            }
        }
    }
    out
}

fn fresh_db(seed: u64, use_memo: bool) -> MppDb {
    let db = MppDb::with_config(OptimizerConfig {
        num_segments: 3,
        use_memo,
        ..OptimizerConfig::default()
    });
    setup_rs(
        db.storage(),
        &SynthConfig {
            r_rows: 400,
            s_rows: 150,
            r_parts: Some(20),
            s_parts: None,
            b_domain: 200,
            a_domain: 200,
            seed,
        },
    )
    .unwrap();
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Selection over the partition key: optimized result == brute force,
    /// for the pipeline, the memo and the legacy planner alike.
    #[test]
    fn selection_equivalence(pred in arb_pred(), seed in 0u64..100) {
        let db = fresh_db(seed, false);
        let sql = format!("SELECT * FROM r WHERE {}", pred.to_sql());
        let expected = sorted(brute_force(&db, "r", &pred));

        let orca = db.sql(&sql).unwrap();
        prop_assert_eq!(sorted(orca.rows), expected.clone());

        let legacy = db.sql_legacy(&sql).unwrap();
        prop_assert_eq!(sorted(legacy.rows), expected.clone());

        let memo_db = fresh_db(seed, true);
        let memo = memo_db.sql(&sql).unwrap();
        prop_assert_eq!(sorted(memo.rows), expected);
    }

    /// Join on the partition key (dynamic elimination): all planners match
    /// the brute-force join.
    #[test]
    fn join_equivalence(cutoff in 0i32..200, seed in 0u64..50) {
        let db = fresh_db(seed, false);
        let sql = format!(
            "SELECT count(*) FROM s, r WHERE r.b = s.b AND s.a < {cutoff}"
        );
        // Brute force.
        let r_rows = brute_force(&db, "r", &Pred::Cmp(">=", i32::MIN + 1, false));
        let s_rows = brute_force(&db, "s", &Pred::Cmp("<", cutoff, false));
        let mut expected = 0i64;
        for s in &s_rows {
            for r in &r_rows {
                if r.values()[1] == s.values()[1] {
                    expected += 1;
                }
            }
        }
        let orca = db.sql(&sql).unwrap();
        prop_assert_eq!(&orca.rows[0].values()[0], &Datum::Int64(expected));
        let legacy = db.sql_legacy(&sql).unwrap();
        prop_assert_eq!(&legacy.rows[0].values()[0], &Datum::Int64(expected));
        let memo_db = fresh_db(seed, true);
        let memo = memo_db.sql(&sql).unwrap();
        prop_assert_eq!(&memo.rows[0].values()[0], &Datum::Int64(expected));
    }

    /// Partition elimination soundness: the pruned scan never loses rows
    /// relative to the selection-disabled configuration.
    #[test]
    fn pruning_never_loses_rows(pred in arb_pred(), seed in 0u64..50) {
        let on = fresh_db(seed, false);
        let off = MppDb::with_config(OptimizerConfig {
            num_segments: 3,
            enable_partition_selection: false,
            ..OptimizerConfig::default()
        });
        setup_rs(
            off.storage(),
            &SynthConfig {
                r_rows: 400,
                s_rows: 150,
                r_parts: Some(20),
                s_parts: None,
                b_domain: 200,
                a_domain: 200,
                seed,
            },
        )
        .unwrap();
        let sql = format!("SELECT * FROM r WHERE {}", pred.to_sql());
        let pruned = on.sql(&sql).unwrap();
        let full = off.sql(&sql).unwrap();
        prop_assert!(approx_same_bag(pruned.rows, full.rows));
    }

    /// Aggregates agree between planners on random group-by queries.
    #[test]
    fn aggregate_equivalence(cutoff in 0i32..200, seed in 0u64..50) {
        let db = fresh_db(seed, false);
        let sql = format!(
            "SELECT a, count(*), sum(b), min(b), max(b) FROM r WHERE b < {cutoff} GROUP BY a"
        );
        let orca = db.sql(&sql).unwrap();
        let legacy = db.sql_legacy(&sql).unwrap();
        prop_assert!(approx_same_bag(orca.rows, legacy.rows));
    }
}

/// Two databases over the identical random schema and data: the served
/// default (one worker, streamed root Gather) and one worker per segment
/// (staged root).
fn worker_pair(segs: usize, parts: usize, seed: u64) -> (MppDb, MppDb) {
    let cfg = SynthConfig {
        r_rows: 300,
        s_rows: 120,
        r_parts: Some(parts),
        s_parts: None,
        b_domain: 200,
        a_domain: 200,
        seed,
    };
    let seq = MppDb::with_config(OptimizerConfig {
        num_segments: segs,
        ..OptimizerConfig::default()
    });
    setup_rs(seq.storage(), &cfg).unwrap();
    let par = MppDb::with_config(OptimizerConfig {
        num_segments: segs,
        ..OptimizerConfig::default()
    })
    .with_sched_config(SchedConfig::with_workers(segs));
    setup_rs(par.storage(), &cfg).unwrap();
    (seq, par)
}

/// Assert both worker counts returned the same multiset of rows and did
/// the same partition-elimination work.
fn assert_worker_counts_agree(
    seq: &MppDb,
    par: &MppDb,
    sql: &str,
    params: &[Datum],
) -> Result<(), TestCaseError> {
    let s = seq.sql_with_params(sql, params).unwrap();
    let p = par.sql_with_params(sql, params).unwrap();
    prop_assert_eq!(sorted(s.rows), sorted(p.rows), "rows differ for {}", sql);
    prop_assert_eq!(
        &s.stats.parts_scanned,
        &p.stats.parts_scanned,
        "parts_scanned differ for {}",
        sql
    );
    prop_assert_eq!(
        s.stats.tuples_scanned,
        p.stats.tuples_scanned,
        "tuples_scanned differ for {}",
        sql
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tentpole equivalence: one worker per segment is observationally
    /// identical to one worker — same
    /// multiset of rows, identical `parts_scanned` — over random
    /// schemas (segment count, partition count) and random predicates.
    #[test]
    fn parallel_matches_sequential_on_selections(
        pred in arb_pred(),
        seed in 0u64..100,
        parts in 1usize..24,
        segs in 1usize..5,
    ) {
        let (seq, par) = worker_pair(segs, parts, seed);
        let sql = format!("SELECT * FROM r WHERE {}", pred.to_sql());
        assert_worker_counts_agree(&seq, &par, &sql, &[])?;
    }

    /// Nullable typed columns (validity bitmaps): three-valued predicate
    /// logic, NULL-skipping aggregates, and NULL group keys must behave
    /// identically on one worker and on one per segment, on both
    /// planners' plans.
    #[test]
    fn parallel_matches_sequential_on_nullable_columns(
        cutoff in 0i32..200,
        null_pct in prop_oneof![Just(0u32), Just(10), Just(50)],
        seed in 0u64..50,
        parts in 1usize..16,
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
        let mk = |workers| {
            let db = MppDb::with_config(OptimizerConfig {
                num_segments: 3,
                ..OptimizerConfig::default()
            })
            .with_sched_config(SchedConfig::with_workers(workers));
            setup_nullable(db.storage(), "rn", &cfg, null_pct).unwrap();
            db
        };
        let (seq, par) = (mk(1), mk(3));
        for sql in [
            format!("SELECT * FROM rn WHERE v < {cutoff} OR v IS NULL"),
            format!("SELECT * FROM rn WHERE v IS NOT NULL AND b < {cutoff}"),
            format!("SELECT b, COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v) \
                     FROM rn WHERE a < {cutoff} GROUP BY b"),
            "SELECT v, COUNT(*) FROM rn GROUP BY v".to_string(),
        ] {
            assert_worker_counts_agree(&seq, &par, &sql, &[])?;
        }
    }

    /// Joins exercise Motion staging and dynamic partition elimination;
    /// both worker counts must agree there too.
    #[test]
    fn parallel_matches_sequential_on_joins(
        cutoff in 0i32..200,
        seed in 0u64..50,
        segs in 1usize..5,
    ) {
        let (seq, par) = worker_pair(segs, 16, seed);
        let sql = format!(
            "SELECT count(*) FROM s, r WHERE r.b = s.b AND s.a < {cutoff}"
        );
        assert_worker_counts_agree(&seq, &par, &sql, &[])?;
    }

    /// Prepared-statement parameters (paper §4.1): partition selection
    /// driven by `$1` behaves identically at both worker counts, on the
    /// Orca-style and the legacy (init-plan OID gate) paths.
    #[test]
    fn parallel_matches_sequential_with_params(
        v in 0i32..200,
        hi in 0i32..200,
        seed in 0u64..50,
    ) {
        let (seq, par) = worker_pair(4, 20, seed);
        let params = [Datum::Int32(v), Datum::Int32(hi)];
        assert_worker_counts_agree(
            &seq,
            &par,
            "SELECT * FROM r WHERE b = $1 OR b > $2",
            &params,
        )?;

        // Legacy planner path: Append of gated PartScans behind an
        // InitPlanOids OID-set parameter. One `$n`, so exactly one datum.
        let sql = "SELECT count(*) FROM r WHERE b < $1";
        let one = [Datum::Int32(v)];
        let s = seq.sql_legacy_with_params(sql, &one).unwrap();
        let p = par.sql_legacy_with_params(sql, &one).unwrap();
        prop_assert_eq!(sorted(s.rows), sorted(p.rows));
        prop_assert_eq!(&s.stats.parts_scanned, &p.stats.parts_scanned);
    }

    /// The morsel scheduler's worker count is invisible to results: over
    /// heavily skewed data (one partition holding ~90% of the rows),
    /// every worker count returns the identical multiset of rows, does
    /// the identical partition-elimination work and surfaces the
    /// identical error outcome as the row engine on one worker, on both
    /// planners.
    #[test]
    fn worker_count_is_invisible_on_skewed_data(
        seed in 0u64..20,
        cutoff in 20i32..180,
        k in 1i32..24,
    ) {
        let mk = |sched: SchedConfig| {
            let db = MppDb::with_config(OptimizerConfig {
                num_segments: 4,
                ..OptimizerConfig::default()
            })
            .with_sched_config(sched);
            let cfg = SynthConfig {
                r_rows: 400,
                s_rows: 0,
                r_parts: Some(12),
                s_parts: None,
                b_domain: 200,
                a_domain: 200,
                seed,
            };
            setup_skewed(db.storage(), "r", &cfg, 90, 0).unwrap();
            db
        };
        let queries = [
            format!("SELECT * FROM r WHERE a < {cutoff}"),
            format!("SELECT b, count(*), sum(a), min(a), max(a) FROM r WHERE a < {cutoff} GROUP BY b"),
            // Division by zero on some rows (whenever a % k hits 0).
            format!("SELECT 100 / (a % {k}) FROM r WHERE b < {cutoff}"),
        ];
        let baseline = mk(SchedConfig::default()).with_exec_engine(ExecEngine::Row);
        for workers in [1usize, 2, 4, 8] {
            let db = mk(SchedConfig {
                workers: Some(workers),
                // Small morsels so skewed partitions split into many.
                morsel_rows: 48,
            });
            for sql in &queries {
                for planner in [Planner::Orca, Planner::Legacy] {
                    let want = baseline.run_sql(sql, &[], planner);
                    let got = db.run_sql(sql, &[], planner);
                    match (want, got) {
                        (Ok(w), Ok(g)) => {
                            prop_assert_eq!(
                                sorted(w.rows), sorted(g.rows),
                                "rows differ: {} w={} {:?}", sql, workers, planner
                            );
                            prop_assert_eq!(
                                &w.stats.parts_scanned, &g.stats.parts_scanned,
                                "parts_scanned differ: {} w={} {:?}", sql, workers, planner
                            );
                            prop_assert_eq!(
                                w.stats.tuples_scanned, g.stats.tuples_scanned,
                                "tuples_scanned differ: {} w={} {:?}", sql, workers, planner
                            );
                        }
                        (Err(w), Err(g)) => {
                            prop_assert_eq!(
                                w.kind(), g.kind(),
                                "error kind differs: {} w={} {:?}", sql, workers, planner
                            );
                            prop_assert_eq!(
                                w.to_string(), g.to_string(),
                                "error message differs: {} w={} {:?}", sql, workers, planner
                            );
                        }
                        (w, g) => {
                            return Err(TestCaseError::fail(format!(
                                "outcomes disagree for {sql} (workers={workers} \
                                 {planner:?}): baseline={:?} got={:?}",
                                w.map(|o| o.rows.len()),
                                g.map(|o| o.rows.len()),
                            )));
                        }
                    }
                }
            }
        }
    }

    /// Compiled expression evaluation is invisible to results: every
    /// planner × worker count combination (Orca/legacy × one worker / one
    /// per segment) still equals the brute-force reference, which bypasses
    /// `mpp_expr` evaluation entirely.
    #[test]
    fn compilation_unchanged_across_planners_and_modes(
        pred in arb_pred(),
        seed in 0u64..100,
        parts in 1usize..24,
        segs in 1usize..5,
    ) {
        let (seq, par) = worker_pair(segs, parts, seed);
        let sql = format!("SELECT * FROM r WHERE {}", pred.to_sql());
        let expected = sorted(brute_force(&seq, "r", &pred));
        for db in [&seq, &par] {
            let orca = db.sql(&sql).unwrap();
            prop_assert_eq!(
                sorted(orca.rows),
                expected.clone(),
                "orca rows changed under compilation for {}",
                sql
            );
            let legacy = db.sql_legacy(&sql).unwrap();
            prop_assert_eq!(
                sorted(legacy.rows),
                expected.clone(),
                "legacy rows changed under compilation for {}",
                sql
            );
        }
    }
}
