//! Property-based equivalence for adaptive planning: per-partition plan
//! specialization plus runtime cardinality feedback may change plan
//! *shape* — never results. Over random skew, random predicates and
//! random seeds, an adaptive database and an adaptive-off database over
//! identical data must agree in every {planner} × {worker count} × {exec
//! engine} cell, on the prepared path with parameters, and across a
//! mid-sequence feedback-triggered re-optimization.

use mppart::common::{Datum, Row};
use mppart::core::OptimizerConfig;
use mppart::testing::{approx_same_bag, sorted};
use mppart::workloads::{setup_rs, setup_skewed, setup_skewed_default, SynthConfig};
use mppart::{ExecEngine, MppDb, Planner, SchedConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// All eight {Orca,Legacy} × {1 worker, 1 per segment} × {Row,Batch}
/// cells (the databases below have 4 segments).
fn combos() -> Vec<(Planner, usize, ExecEngine)> {
    let mut v = Vec::new();
    for planner in [Planner::Orca, Planner::Legacy] {
        for workers in [1, 4] {
            for engine in [ExecEngine::Row, ExecEngine::Batch] {
                v.push((planner, workers, engine));
            }
        }
    }
    v
}

/// One database with the skewed join workload: `t` is range-partitioned
/// on `b` with `hot_pct` percent of its rows in a single hot partition
/// (the shape that makes per-partition specialization fire), `s` is a
/// small unpartitioned join partner. Both sides are ANALYZEd so the
/// optimizer sees the skew.
fn skewed_db(seed: u64, hot_pct: u32, adaptive: bool) -> MppDb {
    let mut db = MppDb::new(4);
    db.set_adaptive_plans(adaptive);
    let cfg = SynthConfig {
        r_rows: 60,
        s_rows: 40,
        r_parts: None,
        s_parts: None,
        b_domain: 100,
        a_domain: 50,
        seed,
    };
    setup_rs(db.storage(), &cfg).unwrap();
    let skew_cfg = SynthConfig {
        r_rows: 300,
        r_parts: Some(10),
        ..cfg
    };
    setup_skewed(db.storage(), "t", &skew_cfg, hot_pct, 0).unwrap();
    db.sql("ANALYZE t").unwrap();
    db.sql("ANALYZE s").unwrap();
    db
}

/// Run `sql` in every combo on both databases and require identical row
/// multisets cell by cell (within float epsilon — distributed
/// aggregation may reorder summation).
fn assert_equiv_all_combos(
    on: &mut MppDb,
    off: &mut MppDb,
    sql: &str,
    params: &[Datum],
) -> std::result::Result<(), TestCaseError> {
    for (planner, workers, engine) in combos() {
        for db in [&mut *on, &mut *off] {
            db.set_sched_config(SchedConfig::with_workers(workers));
            db.set_exec_engine(engine);
        }
        let a = on.run_sql(sql, params, planner).unwrap();
        let b = off.run_sql(sql, params, planner).unwrap();
        prop_assert!(
            approx_same_bag(a.rows.clone(), b.rows.clone()),
            "adaptive vs non-adaptive rows differ in {planner:?}/{workers}w/{engine:?}: \
             {} vs {} row(s)\n  sql: {sql}",
            a.rows.len(),
            b.rows.len()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Skewed join: the adaptive optimizer may split the partitioned side
    /// into per-group Append branches with different join strategies; the
    /// row multiset must match the uniform plan in all eight cells.
    #[test]
    fn skewed_join_equivalence(seed in 0u64..40, hot_pct in 55u32..95) {
        let mut on = skewed_db(seed, hot_pct, true);
        let mut off = skewed_db(seed, hot_pct, false);
        // Join on t's partition key: the shape per-partition
        // specialization rewrites.
        let sql = "SELECT s.a, t.a, t.b FROM s JOIN t ON s.b = t.b";
        assert_equiv_all_combos(&mut on, &mut off, sql, &[])?;
    }

    /// Partition-key filters compose with specialization: each Append
    /// branch carries its own residual restriction, so static pruning on
    /// top of the split must not lose or duplicate rows.
    #[test]
    fn filtered_skewed_join_equivalence(
        seed in 0u64..40,
        hot_pct in 55u32..95,
        cutoff in 1i32..100,
    ) {
        let mut on = skewed_db(seed, hot_pct, true);
        let mut off = skewed_db(seed, hot_pct, false);
        let sql = format!(
            "SELECT t.b, count(*) FROM t JOIN s ON t.a = s.a WHERE t.b < {cutoff} GROUP BY t.b"
        );
        assert_equiv_all_combos(&mut on, &mut off, &sql, &[])?;
    }

    /// Prepared statements with parameters: prepare once on each side,
    /// execute with the same binding, both planners.
    #[test]
    fn prepared_params_equivalence(
        seed in 0u64..40,
        hot_pct in 55u32..95,
        cutoff in 1i32..100,
    ) {
        let on = skewed_db(seed, hot_pct, true);
        let off = skewed_db(seed, hot_pct, false);
        let sql = "SELECT s.a, t.b FROM s JOIN t ON s.b = t.b WHERE t.a < $1";
        let params = [Datum::Int32(cutoff)];
        for planner in [Planner::Orca, Planner::Legacy] {
            let qa = on.prepare_with(sql, planner).unwrap();
            let qb = off.prepare_with(sql, planner).unwrap();
            let a = on.execute_prepared(&qa, &params).unwrap();
            let b = off.execute_prepared(&qb, &params).unwrap();
            prop_assert!(
                approx_same_bag(a.rows.clone(), b.rows.clone()),
                "prepared adaptive vs non-adaptive rows differ under {planner:?}: \
                 {} vs {} row(s)",
                a.rows.len(),
                b.rows.len()
            );
        }
    }

    /// Feedback-triggered re-optimization mid-sequence: execute a
    /// prepared plan, grow the join partner far past its planned-for
    /// cardinality (a >10× under-estimate the executor's scan counters
    /// expose), and keep going. The stale prepared handle, the
    /// re-prepared plan, and the one-shot path must all keep agreeing
    /// with the adaptive-off database fed the identical inserts.
    #[test]
    fn feedback_reoptimization_mid_sequence(seed in 0u64..20, hot_pct in 60u32..90) {
        let mut on = skewed_db(seed, hot_pct, true);
        let mut off = skewed_db(seed, hot_pct, false);
        let sql = "SELECT t.a, s.b FROM t JOIN s ON t.a = s.a";

        let stale_on = on.prepare_with(sql, Planner::Orca).unwrap();
        let stale_off = off.prepare_with(sql, Planner::Orca).unwrap();
        let a = on.execute_prepared(&stale_on, &[]).unwrap();
        let b = off.execute_prepared(&stale_off, &[]).unwrap();
        prop_assert!(approx_same_bag(a.rows, b.rows));

        // Grow s by >10× what the prepared plan expected. Same rows into
        // both databases; only the adaptive side may react.
        let s_oid = on.catalog().table_by_name("s").unwrap().oid;
        let s_off = off.catalog().table_by_name("s").unwrap().oid;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfeedbac);
        let grown: Vec<Row> = (0..1_000)
            .map(|_| {
                Row::new(vec![
                    Datum::Int32(rng.gen_range(0..50)),
                    Datum::Int32(rng.gen_range(0..100)),
                ])
            })
            .collect();
        on.storage().insert(s_oid, grown.iter().cloned()).unwrap();
        off.storage().insert(s_off, grown.iter().cloned()).unwrap();

        // Stale handle still answers correctly and, on the adaptive side,
        // reports the miss into the feedback store.
        let a = on.execute_prepared(&stale_on, &[]).unwrap();
        let b = off.execute_prepared(&stale_off, &[]).unwrap();
        prop_assert!(approx_same_bag(a.rows, b.rows));
        prop_assert!(
            on.catalog().feedback_override(s_oid).is_some(),
            "a >10x under-estimate must install a feedback override"
        );
        prop_assert!(
            off.catalog().feedback_override(s_off).is_none(),
            "adaptive-off must never record feedback"
        );

        // Re-optimized (fresh prepare + one-shot) plans see the observed
        // cardinality; results must stay identical in every cell.
        let fresh_on = on.prepare_with(sql, Planner::Orca).unwrap();
        let a = on.execute_prepared(&fresh_on, &[]).unwrap();
        let b = off.execute_prepared(&stale_off, &[]).unwrap();
        prop_assert!(approx_same_bag(a.rows, b.rows));
        assert_equiv_all_combos(&mut on, &mut off, sql, &[])?;
    }
}

/// Deterministic anchor: with heavy skew and fresh statistics, the
/// adaptive Orca plan for the skewed join actually specializes (EXPLAIN
/// shows an Append with per-group strategies) while the adaptive-off
/// plan does not — guarding against the axis silently testing two
/// identical plans.
#[test]
fn adaptive_plan_actually_differs_under_skew() {
    let on = skewed_db(7, 90, true);
    let off = skewed_db(7, 90, false);
    let sql = "SELECT s.a, t.a, t.b FROM s JOIN t ON s.b = t.b";
    let plan_on = on.explain_sql(sql).unwrap();
    let plan_off = off.explain_sql(sql).unwrap();
    assert_ne!(
        plan_on, plan_off,
        "90% skew with analyzed stats should trigger per-partition specialization"
    );
    assert!(
        plan_on.contains("Append"),
        "specialized plan stitches groups with Append:\n{plan_on}"
    );
    let a = on.sql(sql).unwrap();
    let b = off.sql(sql).unwrap();
    assert!(approx_same_bag(a.rows, b.rows));
}

/// One database with the skewed-DEFAULT workload: `big` is
/// range-partitioned on `b` with explicit parts covering only
/// `[0, 100_000)` and a DEFAULT partition holding 98% of the rows;
/// `probe` is unpartitioned with every key inside the covered range.
fn skewed_default_db(adaptive: bool) -> MppDb {
    let (big_rows, probe_rows, cover) = (4_000, 1_500, 100_000);
    let db = MppDb::with_config(OptimizerConfig {
        num_segments: 4,
        adaptive_plans: adaptive,
        ..OptimizerConfig::default()
    });
    let cfg = SynthConfig {
        r_rows: big_rows,
        r_parts: Some(10),
        b_domain: 1_000_000,
        a_domain: 1_000,
        seed: 2014,
        ..SynthConfig::default()
    };
    setup_skewed_default(db.storage(), "big", &cfg, 98, cover).unwrap();
    db.sql("CREATE TABLE probe (a int, b int) DISTRIBUTED BY (a)")
        .unwrap();
    let mut g = StdRng::seed_from_u64(2014 ^ 0xada);
    for chunk in (0..probe_rows).collect::<Vec<_>>().chunks(500) {
        let tuples: Vec<String> = chunk
            .iter()
            .map(|_| format!("({}, {})", g.gen_range(0..1_000), g.gen_range(0..cover)))
            .collect();
        db.sql(&format!("INSERT INTO probe VALUES {}", tuples.join(", ")))
            .unwrap();
    }
    db.sql("ANALYZE probe").unwrap();
    db
}

/// Plan quality of per-partition specialization, measured as
/// intermediate result size rather than time. The uniform plan prices
/// one strategy off aggregate row counts and redistributes both sides,
/// dragging the 98% DEFAULT partition through a Motion; the adaptive
/// plan gives DEFAULT its own Append branch, whose empty filtered outer
/// side lets run-time partition selection skip it. Replies must be
/// identical; the adaptive plan must move at most a tenth of the rows
/// and scan fewer tuples (measured 69 vs 5,501 moved, 3,068 vs 5,500
/// scanned).
#[test]
fn adaptive_plan_shrinks_intermediate_results_on_skewed_default() {
    let adaptive = skewed_default_db(true);
    let uniform = skewed_default_db(false);
    let sql = "SELECT count(*), sum(big.a) FROM probe JOIN big ON probe.b = big.b";
    let probe = "SELECT probe.a, big.a FROM probe JOIN big ON probe.b = big.b WHERE probe.a < 20";
    for q in [sql, probe] {
        let a = adaptive.sql(q).unwrap().rows;
        let u = uniform.sql(q).unwrap().rows;
        assert_eq!(
            sorted(a),
            sorted(u),
            "adaptive and uniform plans disagree on: {q}"
        );
    }
    let plan = adaptive.explain_sql(sql).unwrap();
    assert!(
        plan.contains("Append"),
        "adaptive plan should specialize into Append branches:\n{plan}"
    );

    let ad = adaptive.sql(sql).unwrap().stats;
    let un = uniform.sql(sql).unwrap().stats;
    assert!(
        ad.rows_moved * 10 <= un.rows_moved,
        "adaptive must move <= 1/10 the rows of uniform: {} vs {}",
        ad.rows_moved,
        un.rows_moved
    );
    assert!(
        ad.tuples_scanned < un.tuples_scanned,
        "adaptive must scan fewer tuples than uniform: {} vs {}",
        ad.tuples_scanned,
        un.tuples_scanned
    );
}
