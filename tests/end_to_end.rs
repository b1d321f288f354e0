//! End-to-end scenarios from the paper: SQL in, rows and scan statistics
//! out, across the simulated MPP cluster.

use mppart::common::{Datum, Row};
use mppart::executor::execute_with_params_sched;
use mppart::plan::PhysicalPlan;
use mppart::testing::{approx_same_bag, setup_orders, setup_orders_multilevel, sorted};
use mppart::workloads::{setup_tpcds, tpcds_workload, TpcdsConfig};
use mppart::{ExecEngine, MppDb, SchedConfig};

/// Paper Figure 2: a constant date range over monthly partitions must
/// scan only the last quarter's three partitions.
#[test]
fn figure2_static_elimination_scans_three_partitions() {
    let db = MppDb::new(4);
    let orders = setup_orders(&db, 5_000, 1).unwrap();
    let out = db
        .sql("SELECT avg(amount) FROM orders WHERE date BETWEEN '2013-10-01' AND '2013-12-31'")
        .unwrap();
    assert_eq!(out.rows.len(), 1);
    assert_eq!(out.stats.parts_scanned_for(orders), 3, "Q4 = 3 partitions");

    // Cross-check the average against a brute-force full scan.
    let all = db.sql("SELECT avg(amount) FROM orders").unwrap();
    assert_eq!(all.stats.parts_scanned_for(orders), 24);
    let pruned_avg = out.rows[0].values()[0].as_f64().unwrap();
    // Recompute by hand from raw storage.
    let lo = Datum::date_ymd(2013, 10, 1);
    let hi = Datum::date_ymd(2013, 12, 31);
    let mut sum = 0.0;
    let mut n = 0usize;
    for phys in db.storage().physical_tables(orders).unwrap() {
        for row in db.storage().scan_all_segments(phys) {
            let d = &row.values()[2];
            if *d >= lo && *d <= hi {
                sum += row.values()[1].as_f64().unwrap();
                n += 1;
            }
        }
    }
    assert!(n > 0);
    assert!((pruned_avg - sum / n as f64).abs() < 1e-9);
}

/// Paper Figure 4: the same quarter expressed through the date dimension —
/// dynamic elimination must kick in and the result must match the
/// equivalent static query.
#[test]
fn figure4_dynamic_elimination_through_subquery() {
    let db = MppDb::new(4);
    let t = setup_tpcds(
        db.storage(),
        &TpcdsConfig {
            fact_rows: 8_000,
            parts_per_fact: 24,
            ..TpcdsConfig::default()
        },
    )
    .unwrap();
    let ss = t.facts[0].1;

    let dynamic = db
        .sql(
            "SELECT count(*), sum(ss_amount) FROM store_sales WHERE ss_date_id IN \
             (SELECT d_id FROM date_dim WHERE d_year = 2013 AND d_month BETWEEN 10 AND 12)",
        )
        .unwrap();
    // Q4-2013 = d_id 640..=731 of 730 days → at most 4 of 24 partitions.
    let scanned = dynamic.stats.parts_scanned_for(ss);
    assert!(
        scanned <= 4,
        "dynamic elimination should prune to ≤4 of 24 partitions, scanned {scanned}"
    );

    // Equivalent static formulation must agree (2013-10-01 is day 640).
    let static_q = db
        .sql(
            "SELECT count(*), sum(ss_amount) FROM store_sales WHERE ss_date_id BETWEEN 640 AND 731",
        )
        .unwrap();
    assert_eq!(sorted(dynamic.rows), sorted(static_q.rows));
}

/// Paper Figure 6: three-way join with selections on both dimensions.
#[test]
fn figure6_three_way_join() {
    let db = MppDb::new(4);
    let t = setup_tpcds(
        db.storage(),
        &TpcdsConfig {
            fact_rows: 6_000,
            parts_per_fact: 24,
            ..TpcdsConfig::default()
        },
    )
    .unwrap();
    let ss = t.facts[0].1;
    let out = db
        .sql(
            "SELECT count(*) FROM customer_dim, date_dim, store_sales \
             WHERE c_id = ss_cust_id AND d_id = ss_date_id \
             AND c_state = 'CA' AND d_year = 2013 AND d_month BETWEEN 10 AND 12",
        )
        .unwrap();
    assert!(out.stats.parts_scanned_for(ss) <= 4);

    // Brute force over raw storage.
    let ca_ids: std::collections::HashSet<i64> = db
        .storage()
        .scan_all_segments(mppart::storage::PhysId::Table(t.customer_dim))
        .iter()
        .filter(|r| r.values()[1] == Datum::str("CA"))
        .map(|r| r.values()[0].as_i64().unwrap())
        .collect();
    let q4_ids: std::collections::HashSet<i64> = db
        .storage()
        .scan_all_segments(mppart::storage::PhysId::Table(t.date_dim))
        .iter()
        .filter(|r| {
            r.values()[2].as_i64().unwrap() == 2013
                && (10..=12).contains(&r.values()[3].as_i64().unwrap())
        })
        .map(|r| r.values()[0].as_i64().unwrap())
        .collect();
    let mut expected = 0i64;
    for phys in db.storage().physical_tables(ss).unwrap() {
        for row in db.storage().scan_all_segments(phys) {
            let date_id = row.values()[0].as_i64().unwrap();
            let cust_id = row.values()[2].as_i64().unwrap();
            if q4_ids.contains(&date_id) && ca_ids.contains(&cust_id) {
                expected += 1;
            }
        }
    }
    assert_eq!(out.rows[0].values()[0], Datum::Int64(expected));
}

/// Paper §2.4 / Figure 10: multi-level partitioning selects per level.
#[test]
fn multilevel_selection_per_level() {
    let db = MppDb::new(4);
    let regions = ["Region 1", "Region 2"];
    let t = setup_orders_multilevel(&db, &regions, 4_000, 3).unwrap();
    let total = db.catalog().table(t).unwrap().num_leaves(); // 48

    // Date-only predicate: one month × all regions = 2 leaves.
    let out = db
        .sql("SELECT count(*) FROM orders_ml WHERE date BETWEEN '2012-01-01' AND '2012-01-31'")
        .unwrap();
    assert_eq!(out.stats.parts_scanned_for(t), 2);

    // Region-only predicate: 24 months × 1 region.
    let out = db
        .sql("SELECT count(*) FROM orders_ml WHERE region = 'Region 1'")
        .unwrap();
    assert_eq!(out.stats.parts_scanned_for(t), 24);

    // Both: exactly one leaf.
    let out = db
        .sql(
            "SELECT count(*) FROM orders_ml \
             WHERE date BETWEEN '2012-01-01' AND '2012-01-31' AND region = 'Region 2'",
        )
        .unwrap();
    assert_eq!(out.stats.parts_scanned_for(t), 1);

    // No predicate: everything.
    let out = db.sql("SELECT count(*) FROM orders_ml").unwrap();
    assert_eq!(out.stats.parts_scanned_for(t), total);
}

/// Prepared statements: the partition choice happens at execution time,
/// per parameter binding (paper §1).
#[test]
fn prepared_statement_selection_at_runtime() {
    let db = MppDb::new(4);
    let orders = setup_orders(&db, 3_000, 9).unwrap();
    let sql = "SELECT count(*) FROM orders WHERE date = $1";
    let jan = db
        .sql_with_params(sql, &[Datum::date_ymd(2012, 1, 15)])
        .unwrap();
    assert_eq!(jan.stats.parts_scanned_for(orders), 1);
    let dec = db
        .sql_with_params(sql, &[Datum::date_ymd(2013, 12, 24)])
        .unwrap();
    assert_eq!(dec.stats.parts_scanned_for(orders), 1);

    // Counts agree with literal versions.
    let jan_lit = db
        .sql("SELECT count(*) FROM orders WHERE date = '2012-01-15'")
        .unwrap();
    assert_eq!(jan.rows, jan_lit.rows);
}

/// The whole TPC-DS-style workload runs through parse → optimize →
/// execute without errors, and Orca never returns different rows than the
/// legacy planner.
#[test]
fn full_workload_runs_and_matches_legacy() {
    let db = MppDb::new(4);
    setup_tpcds(
        db.storage(),
        &TpcdsConfig {
            fact_rows: 3_000,
            parts_per_fact: 12,
            ..TpcdsConfig::default()
        },
    )
    .unwrap();
    for q in tpcds_workload() {
        let orca = db
            .sql_with_params(q.sql, &q.params)
            .unwrap_or_else(|e| panic!("{} failed on orca: {e}", q.name));
        let legacy = db
            .sql_legacy_with_params(q.sql, &q.params)
            .unwrap_or_else(|e| panic!("{} failed on legacy: {e}", q.name));
        assert!(
            approx_same_bag(orca.rows, legacy.rows),
            "{}: orca and legacy disagree",
            q.name
        );
    }
}

/// Every Motion materializes exactly once per statement — the ones inside
/// Legacy init plans included, which run before the main plan's stages
/// and must not run again in them — at every worker count on both
/// engines.
#[test]
fn every_motion_materializes_once_per_statement() {
    let db = MppDb::new(4);
    setup_tpcds(db.storage(), &TpcdsConfig::default()).unwrap();
    let (mut init_plans, mut init_plans_with_motion) = (0, Vec::new());
    for q in tpcds_workload() {
        let plan = db.plan_legacy(q.sql).unwrap();
        plan.visit(&mut |node| {
            if let PhysicalPlan::InitPlanOids { child, .. } = node {
                init_plans += 1;
                if child.count_op("Motion") > 0 {
                    init_plans_with_motion.push(q.name);
                }
            }
        });
        let runs: Vec<_> = [ExecEngine::Row, ExecEngine::Batch]
            .into_iter()
            .flat_map(|engine| [1, 4].map(|workers| (engine, workers)))
            .map(|(engine, workers)| {
                let sched = SchedConfig::with_workers(workers);
                let res = execute_with_params_sched(db.storage(), &plan, &q.params, engine, &sched)
                    .unwrap_or_else(|e| panic!("{} {engine:?} w={workers}: {e}", q.name));
                assert_eq!(
                    res.stats.motions,
                    plan.count_op("Motion") as u64,
                    "{} {engine:?} w={workers}",
                    q.name
                );
                (sorted(res.rows), res.stats.rows_moved)
            })
            .collect();
        for run in &runs[1..] {
            assert_eq!(run, &runs[0], "{}: rows or rows_moved differ", q.name);
        }
    }
    assert_eq!(init_plans, 6);
    assert_eq!(
        init_plans_with_motion,
        ["q18_ss_three_way", "q19_ws_three_way"]
    );
}

/// Grouped aggregation over a partitioned fact joins up correctly across
/// motions.
#[test]
fn group_by_with_join_and_limit() {
    let db = MppDb::new(4);
    setup_tpcds(
        db.storage(),
        &TpcdsConfig {
            fact_rows: 2_000,
            parts_per_fact: 12,
            ..TpcdsConfig::default()
        },
    )
    .unwrap();
    let out = db
        .sql(
            "SELECT d_month, count(*) FROM date_dim, store_sales \
             WHERE d_id = ss_date_id AND d_year = 2012 GROUP BY d_month",
        )
        .unwrap();
    assert_eq!(out.rows.len(), 12, "12 months in 2012");
    let total: i64 = out
        .rows
        .iter()
        .map(|r| r.values()[1].as_i64().unwrap())
        .sum();
    let year_total = db
        .sql(
            "SELECT count(*) FROM date_dim, store_sales \
             WHERE d_id = ss_date_id AND d_year = 2012",
        )
        .unwrap();
    assert_eq!(Datum::Int64(total), year_total.rows[0].values()[0]);

    let limited = db
        .sql(
            "SELECT d_month, count(*) FROM date_dim, store_sales \
             WHERE d_id = ss_date_id AND d_year = 2012 GROUP BY d_month LIMIT 5",
        )
        .unwrap();
    assert_eq!(limited.rows.len(), 5);
}

/// An empty partition range yields empty results and zero scans.
#[test]
fn empty_selection_scans_nothing() {
    let db = MppDb::new(4);
    let orders = setup_orders(&db, 1_000, 5).unwrap();
    let out = db
        .sql("SELECT * FROM orders WHERE date > '2020-01-01'")
        .unwrap();
    assert!(out.rows.is_empty());
    assert_eq!(out.stats.parts_scanned_for(orders), 0);
}

/// Rows land on the right segments: the same query must return identical
/// results regardless of cluster size.
#[test]
fn results_independent_of_segment_count() {
    let collect = |segments: usize| -> Vec<Row> {
        let db = MppDb::new(segments);
        setup_orders(&db, 2_000, 11).unwrap();
        sorted(
            db.sql("SELECT o_id, amount FROM orders WHERE date < '2012-04-01'")
                .unwrap()
                .rows,
        )
    };
    let one = collect(1);
    assert_eq!(one, collect(3));
    assert_eq!(one, collect(8));
}

/// DDL end to end: the paper's Figure 1 schema created from SQL, loaded,
/// queried with ORDER BY, and dropped.
#[test]
fn ddl_create_load_query_drop() {
    let db = MppDb::new(4);
    db.sql(
        "CREATE TABLE orders (o_id bigint NOT NULL, amount double, date date NOT NULL) \
         DISTRIBUTED BY (o_id) \
         PARTITION BY RANGE (date) \
         (START ('2012-01-01') END ('2014-01-01') EVERY (1 MONTH))",
    )
    .unwrap();
    let oid = db.catalog().table_by_name("orders").unwrap().oid;
    assert_eq!(db.catalog().table(oid).unwrap().num_leaves(), 24);

    db.sql(
        "INSERT INTO orders VALUES \
         (1, 10.0, '2012-01-05'), (2, 30.0, '2013-11-20'), \
         (3, 20.0, '2013-10-02'), (4, 40.0, '2013-12-31')",
    )
    .unwrap();

    let out = db
        .sql(
            "SELECT o_id, amount FROM orders \
             WHERE date BETWEEN '2013-10-01' AND '2013-12-31' \
             ORDER BY amount DESC LIMIT 2",
        )
        .unwrap();
    assert_eq!(out.rows.len(), 2);
    assert_eq!(out.rows[0].values()[1], Datum::Float64(40.0));
    assert_eq!(out.rows[1].values()[1], Datum::Float64(30.0));
    assert_eq!(out.stats.parts_scanned_for(oid), 3);

    db.sql("DROP TABLE orders").unwrap();
    assert!(db.sql("SELECT * FROM orders").is_err());
}

/// Multi-level DDL: SUBPARTITION BY builds the Figure 9 hierarchy.
#[test]
fn ddl_multilevel_subpartition() {
    let db = MppDb::new(2);
    db.sql(
        "CREATE TABLE sales (id int, date date NOT NULL, region text NOT NULL) \
         PARTITION BY RANGE (date) \
         (START ('2012-01-01') END ('2013-01-01') EVERY (1 MONTH)) \
         SUBPARTITION BY LIST (region) \
         (PARTITION r1 VALUES ('east'), PARTITION r2 VALUES ('west'))",
    )
    .unwrap();
    let oid = db.catalog().table_by_name("sales").unwrap().oid;
    assert_eq!(db.catalog().table(oid).unwrap().num_leaves(), 24);
    db.sql("INSERT INTO sales VALUES (1, '2012-06-15', 'east'), (2, '2012-06-16', 'west')")
        .unwrap();
    let out = db
        .sql("SELECT count(*) FROM sales WHERE date = '2012-06-15' AND region = 'east'")
        .unwrap();
    assert_eq!(out.rows[0].values()[0], Datum::Int64(1));
    assert_eq!(out.stats.parts_scanned_for(oid), 1);
}

/// ORDER BY is correct across segments: global order after the gather.
#[test]
fn order_by_is_global() {
    let db = MppDb::new(4);
    setup_orders(&db, 500, 77).unwrap();
    let out = db.sql("SELECT o_id FROM orders ORDER BY o_id").unwrap();
    let ids: Vec<i64> = out
        .rows
        .iter()
        .map(|r| r.values()[0].as_i64().unwrap())
        .collect();
    let mut sorted_ids = ids.clone();
    sorted_ids.sort();
    assert_eq!(ids, sorted_ids);
    assert_eq!(ids.len(), 500);
}
