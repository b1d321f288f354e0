//! Optimizer-level integration: plan shapes, plan-size scaling (the
//! Figure 18 claims), memo-vs-pipeline agreement, and §3.1 validity of
//! every plan the optimizers emit.

use mppart::core::validate_selector_pairing;
use mppart::core::{Optimizer, OptimizerConfig};
use mppart::plan::{plan_node_count, plan_size_bytes, PhysicalPlan};
use mppart::testing::{approx_same_bag, setup_orders};
use mppart::workloads::{
    setup_lineitem, setup_rs, setup_tpcds, tpcds_workload, LineitemConfig, SynthConfig, TpcdsConfig,
};
use mppart::MppDb;

/// Figure 18(a): with static elimination, Orca's plan size is flat in the
/// fraction of partitions scanned, the legacy planner's grows linearly.
#[test]
fn fig18a_static_plan_size_scaling() {
    let db = MppDb::new(4);
    setup_lineitem(
        db.storage(),
        &LineitemConfig {
            rows: 500,
            parts: Some(361),
            ..LineitemConfig::default()
        },
    )
    .unwrap();
    let mut orca_sizes = Vec::new();
    let mut legacy_sizes = Vec::new();
    // l_shipdate thresholds selecting ~1%, 25%, 50%, 75%, 100% of parts.
    for pct in [1, 25, 50, 75, 100] {
        let cutoff_year = 1992 + (7 * pct) / 100;
        let cutoff_month = 1 + ((7 * pct) % 100) * 12 / 100;
        let sql = format!(
            "SELECT * FROM lineitem WHERE l_shipdate < '{:04}-{:02}-01'",
            cutoff_year,
            cutoff_month.min(12)
        );
        orca_sizes.push(plan_size_bytes(&db.plan(&sql).unwrap()));
        legacy_sizes.push(plan_size_bytes(&db.plan_legacy(&sql).unwrap()));
    }
    // Orca: flat (identical plans except the literal).
    let orca_spread = orca_sizes.iter().max().unwrap() - orca_sizes.iter().min().unwrap();
    assert!(
        orca_spread < 16,
        "orca plan size should be constant: {orca_sizes:?}"
    );
    // Legacy: grows with the percentage.
    assert!(
        legacy_sizes[4] > legacy_sizes[0] * 20,
        "legacy should grow linearly: {legacy_sizes:?}"
    );
    // And at 100% the legacy plan dwarfs Orca's.
    assert!(legacy_sizes[4] > orca_sizes[4] * 50);
}

/// Figure 18(b): with join-driven (dynamic) elimination the legacy plan
/// grows with the *total* partition count; Orca's stays flat.
#[test]
fn fig18b_dynamic_plan_size_scaling() {
    let sizes = |parts: usize| {
        let db = MppDb::new(4);
        setup_rs(
            db.storage(),
            &SynthConfig {
                r_parts: Some(parts),
                s_parts: None,
                r_rows: 100,
                s_rows: 50,
                ..SynthConfig::default()
            },
        )
        .unwrap();
        let sql = "SELECT * FROM s, r WHERE r.b = s.b AND s.a < 100";
        (
            plan_size_bytes(&db.plan(sql).unwrap()),
            plan_size_bytes(&db.plan_legacy(sql).unwrap()),
        )
    };
    let (orca_50, legacy_50) = sizes(50);
    let (orca_300, legacy_300) = sizes(300);
    assert!(
        orca_300 < orca_50 + 16,
        "orca flat: {orca_50} -> {orca_300}"
    );
    assert!(
        legacy_300 > legacy_50 * 4,
        "legacy linear: {legacy_50} -> {legacy_300}"
    );
}

/// Figure 18(c): DML over two partitioned tables — quadratic for the
/// legacy planner, flat for Orca.
#[test]
fn fig18c_dml_plan_size_scaling() {
    let counts = |parts: usize| {
        let db = MppDb::new(4);
        setup_rs(
            db.storage(),
            &SynthConfig {
                r_parts: Some(parts),
                s_parts: Some(parts),
                r_rows: 50,
                s_rows: 50,
                ..SynthConfig::default()
            },
        )
        .unwrap();
        let sql = "UPDATE r SET b = s.b FROM s WHERE r.a = s.a";
        (
            plan_node_count(&db.plan(sql).unwrap()),
            plan_node_count(&db.plan_legacy(sql).unwrap()),
        )
    };
    let (orca_10, legacy_10) = counts(10);
    let (orca_20, legacy_20) = counts(20);
    assert_eq!(orca_10, orca_20, "orca DML plans are partition-count-free");
    assert!(
        legacy_20 as f64 > legacy_10 as f64 * 3.2,
        "legacy quadratic: {legacy_10} -> {legacy_20}"
    );
}

/// Every workload plan both optimizers emit satisfies the §3.1 pairing
/// rules (when it contains dynamic scans at all).
#[test]
fn all_workload_plans_validate() {
    let db = MppDb::new(4);
    setup_tpcds(
        db.storage(),
        &TpcdsConfig {
            fact_rows: 500,
            parts_per_fact: 8,
            ..TpcdsConfig::default()
        },
    )
    .unwrap();
    for q in tpcds_workload() {
        let plan = db.plan(q.sql).unwrap_or_else(|e| panic!("{}: {e}", q.name));
        validate_selector_pairing(&plan).unwrap_or_else(|e| panic!("{}: {e}", q.name));
    }
}

/// The Memo path and the deterministic pipeline must agree on results.
#[test]
fn memo_and_pipeline_agree_on_results() {
    let pipeline_db = MppDb::new(4);
    setup_tpcds(
        pipeline_db.storage(),
        &TpcdsConfig {
            fact_rows: 2_000,
            parts_per_fact: 12,
            seed: 5,
            ..TpcdsConfig::default()
        },
    )
    .unwrap();
    let memo_db = MppDb::with_config(OptimizerConfig {
        num_segments: 4,
        use_memo: true,
        ..OptimizerConfig::default()
    });
    setup_tpcds(
        memo_db.storage(),
        &TpcdsConfig {
            fact_rows: 2_000,
            parts_per_fact: 12,
            seed: 5,
            ..TpcdsConfig::default()
        },
    )
    .unwrap();
    for q in tpcds_workload() {
        if !q.params.is_empty() {
            continue; // same coverage, simpler harness
        }
        let a = pipeline_db
            .sql(q.sql)
            .unwrap_or_else(|e| panic!("{} pipeline: {e}", q.name));
        let b = memo_db
            .sql(q.sql)
            .unwrap_or_else(|e| panic!("{} memo: {e}", q.name));
        assert!(
            approx_same_bag(a.rows, b.rows),
            "{}: memo and pipeline disagree",
            q.name
        );
    }
}

/// The memo also eliminates partitions on the flagship dynamic case.
#[test]
fn memo_eliminates_partitions() {
    let db = MppDb::with_config(OptimizerConfig {
        num_segments: 4,
        use_memo: true,
        ..OptimizerConfig::default()
    });
    let t = setup_tpcds(
        db.storage(),
        &TpcdsConfig {
            fact_rows: 2_000,
            parts_per_fact: 24,
            ..TpcdsConfig::default()
        },
    )
    .unwrap();
    let out = db
        .sql(
            "SELECT count(*) FROM store_sales WHERE ss_date_id IN \
             (SELECT d_id FROM date_dim WHERE d_year = 2013 AND d_month = 12)",
        )
        .unwrap();
    assert!(
        out.stats.parts_scanned_for(t.facts[0].1) <= 2,
        "memo DPE should prune december to ≤2 parts, got {}",
        out.stats.parts_scanned_for(t.facts[0].1)
    );
}

/// Disabling partition selection (Figure 17's baseline) keeps results
/// identical but scans every partition.
#[test]
fn disabled_selection_scans_everything_but_agrees() {
    let on = MppDb::new(4);
    let orders_on = setup_orders(&on, 2_000, 21).unwrap();
    let off = MppDb::with_config(OptimizerConfig {
        num_segments: 4,
        enable_partition_selection: false,
        ..OptimizerConfig::default()
    });
    let orders_off = setup_orders(&off, 2_000, 21).unwrap();

    let sql = "SELECT count(*) FROM orders WHERE date BETWEEN '2013-10-01' AND '2013-12-31'";
    let a = on.sql(sql).unwrap();
    let b = off.sql(sql).unwrap();
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.stats.parts_scanned_for(orders_on), 3);
    assert_eq!(b.stats.parts_scanned_for(orders_off), 24);
    assert!(b.stats.tuples_scanned > a.stats.tuples_scanned * 5);
}

/// The optimizer is deterministic: same statement, same plan.
#[test]
fn planning_is_deterministic() {
    let db = MppDb::new(4);
    setup_rs(db.storage(), &SynthConfig::default()).unwrap();
    let sql = "SELECT count(*) FROM s, r WHERE r.b = s.b AND s.a < 100";
    let p1 = db.plan(sql).unwrap();
    let p2 = db.plan(sql).unwrap();
    // Colref ids differ between bindings; compare shapes via explain with
    // ids stripped.
    let strip = |p: &PhysicalPlan| {
        mppart::plan::explain(p)
            .chars()
            .filter(|c| !c.is_ascii_digit())
            .collect::<String>()
    };
    assert_eq!(strip(&p1), strip(&p2));
}

/// Plans from a standalone `Optimizer` (no MppDb) work too — the library
/// API is usable without the facade.
#[test]
fn standalone_optimizer_api() {
    let db = MppDb::new(2);
    setup_rs(db.storage(), &SynthConfig::default()).unwrap();
    let opt = Optimizer::new(db.catalog().clone(), OptimizerConfig::default());
    let gen = mppart::expr::ColRefGenerator::starting_at(10_000);
    let bound = mppart::sql::plan_sql("SELECT * FROM r WHERE b < 50", db.catalog(), &gen).unwrap();
    let plan = opt.optimize(&bound.plan).unwrap();
    validate_selector_pairing(&plan).unwrap();
    assert!(plan.count_op("PartitionSelector") == 1);
}

const STAR_SEED: u64 = 2014;
const STAR_DIMS: usize = 5;

/// Reply as a sorted multiset of rendered rows.
fn reply(db: &MppDb, sql: &str) -> Vec<String> {
    let mut rows: Vec<String> = db
        .sql(sql)
        .unwrap()
        .rows
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    rows.sort();
    rows
}

/// Star schema `f(id, k1..k5, v)` plus `d1..d5(id, w)` with `w = id`, so
/// `w < t` keeps exactly `t / dim_rows` of a dimension; loaded
/// identically into every db, then ANALYZEd.
fn setup_star(dbs: &[&MppDb], fact_rows: usize, dim_rows: usize) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut g = StdRng::seed_from_u64(STAR_SEED);
    let mut stmts: Vec<String> = Vec::new();
    for d in 1..=STAR_DIMS {
        stmts.push(format!(
            "CREATE TABLE d{d} (id int, w int) DISTRIBUTED BY (id)"
        ));
        for chunk in (0..dim_rows).collect::<Vec<_>>().chunks(500) {
            let tuples: Vec<String> = chunk.iter().map(|i| format!("({i}, {i})")).collect();
            stmts.push(format!("INSERT INTO d{d} VALUES {}", tuples.join(", ")));
        }
    }
    stmts.push(
        "CREATE TABLE f (id int, k1 int, k2 int, k3 int, k4 int, k5 int, v int) \
         DISTRIBUTED BY (id)"
            .into(),
    );
    for chunk in (0..fact_rows).collect::<Vec<_>>().chunks(500) {
        let tuples: Vec<String> = chunk
            .iter()
            .map(|i| {
                let ks: Vec<String> = (0..STAR_DIMS)
                    .map(|_| g.gen_range(0..dim_rows as i64).to_string())
                    .collect();
                format!("({i}, {}, {})", ks.join(", "), g.gen_range(0..100))
            })
            .collect();
        stmts.push(format!("INSERT INTO f VALUES {}", tuples.join(", ")));
    }
    for d in 1..=STAR_DIMS {
        stmts.push(format!("ANALYZE d{d}"));
    }
    stmts.push("ANALYZE f".into());
    for db in dbs {
        for s in &stmts {
            db.sql(s).unwrap();
        }
    }
}

fn join_order_db(join_order_search: bool) -> MppDb {
    MppDb::with_config(OptimizerConfig {
        num_segments: 4,
        join_order_search,
        ..OptimizerConfig::default()
    })
}

/// Plan quality of cost-based join ordering, measured as intermediate
/// result size rather than time. The selective dimensions come last in
/// syntactic order (d4 keeps 10%, d5 keeps 1%), so the left-deep
/// baseline carries the whole fact through three joins; the enumerator
/// starts from d5. Replies must be identical; the cost-based plan must
/// move and vectorize at most half the rows the left-deep plan does
/// (measured 21 vs 624 moved, 3,050 vs 11,089 vectorized).
#[test]
fn cost_based_star_join_shrinks_intermediate_results() {
    let (fact_rows, dim_rows) = (2_000, 200);
    let cost_based = join_order_db(true);
    let left_deep = join_order_db(false);
    setup_star(&[&cost_based, &left_deep], fact_rows, dim_rows);
    let joins: String = (1..=STAR_DIMS)
        .map(|d| format!(" JOIN d{d} ON f.k{d} = d{d}.id"))
        .collect();
    let star = format!(
        "SELECT count(*), sum(f.v) FROM f{joins} WHERE d4.w < {} AND d5.w < {}",
        dim_rows / 10,
        dim_rows / 100
    );
    let probe = "SELECT f.id, d5.w FROM f JOIN d4 ON f.k4 = d4.id JOIN d5 ON f.k5 = d5.id \
                 WHERE d5.w < 20 AND d4.w < 40";
    for q in [star.as_str(), probe] {
        assert_eq!(
            reply(&cost_based, q),
            reply(&left_deep, q),
            "orderings disagree on: {q}"
        );
    }

    let cb = cost_based.sql(&star).unwrap().stats;
    let ld = left_deep.sql(&star).unwrap().stats;
    assert!(
        cb.rows_moved * 2 <= ld.rows_moved,
        "cost-based must move <= 1/2 the rows of left-deep: {} vs {}",
        cb.rows_moved,
        ld.rows_moved
    );
    assert!(
        cb.rows_vectorized * 2 <= ld.rows_vectorized,
        "cost-based must vectorize <= 1/2 the rows of left-deep: {} vs {}",
        cb.rows_vectorized,
        ld.rows_vectorized
    );
}

/// Chains of 2..=11 relations plan and agree with the syntactic order:
/// 10 is the DPccp ceiling (`MAX_DP_RELATIONS`), 11 takes the greedy
/// fallback. How long planning takes is the benchmark's
/// `core.optimize_us.r*`, not a test's business.
#[test]
fn chain_joins_across_the_dp_ceiling_match_syntactic_order() {
    use mppart::core::optimizer::MAX_DP_RELATIONS;
    let max = MAX_DP_RELATIONS + 1;
    let cost_based = join_order_db(true);
    let syntactic = join_order_db(false);
    for db in [&cost_based, &syntactic] {
        for i in 0..max {
            db.sql(&format!("CREATE TABLE c{i} (a int, b int)"))
                .unwrap();
            // Two rows per `a`; a sixth of the `b`s dangle, so the reply
            // changes with every hop.
            let tuples: Vec<String> = (0..50)
                .map(|j| format!("({}, {})", j % 25, (j * 7 + i) % 30))
                .collect();
            db.sql(&format!("INSERT INTO c{i} VALUES {}", tuples.join(", ")))
                .unwrap();
            db.sql(&format!("ANALYZE c{i}")).unwrap();
        }
    }
    for n in 2..=max {
        let from: Vec<String> = (0..n).map(|i| format!("c{i}")).collect();
        let conds: Vec<String> = (0..n - 1)
            .map(|i| format!("c{i}.b = c{}.a", i + 1))
            .collect();
        let q = format!(
            "SELECT count(*), sum(c0.a) FROM {} WHERE {}",
            from.join(", "),
            conds.join(" AND ")
        );
        validate_selector_pairing(&cost_based.plan(&q).unwrap()).unwrap();
        assert_eq!(
            reply(&cost_based, &q),
            reply(&syntactic, &q),
            "{n} relations"
        );
    }
}
