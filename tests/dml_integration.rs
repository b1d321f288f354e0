//! DML over partitioned tables: inserts route through `f_T`, updates can
//! move tuples across partitions, deletes honor partition elimination —
//! and the legacy planner's pair-expanded DML plans compute the same
//! effects.

use mppart::common::{Datum, Row};
use mppart::testing::{setup_orders, sorted};
use mppart::workloads::{setup_rs, SynthConfig};
use mppart::{MppDb, Planner, SchedConfig};

fn table_rows(db: &MppDb, name: &str) -> Vec<Row> {
    let desc = db.catalog().table_by_name(name).unwrap();
    let mut out = Vec::new();
    for phys in db.storage().physical_tables(desc.oid).unwrap() {
        out.extend(db.storage().scan_all_segments(phys));
    }
    sorted(out)
}

#[test]
fn insert_routes_to_correct_partition() {
    let db = MppDb::new(4);
    let orders = setup_orders(&db, 100, 1).unwrap();
    let before = db.storage().row_count(orders).unwrap();
    let out = db
        .sql("INSERT INTO orders VALUES (9001, 42.5, '2013-07-04'), (9002, 10.0, '2012-02-29')")
        .unwrap();
    assert_eq!(out.rows[0].values()[0], Datum::Int64(2));
    assert_eq!(db.storage().row_count(orders).unwrap(), before + 2);

    // The July 2013 row is findable by a one-partition query.
    let q = db
        .sql("SELECT amount FROM orders WHERE date = '2013-07-04' AND o_id = 9001")
        .unwrap();
    assert_eq!(q.rows.len(), 1);
    assert_eq!(q.stats.parts_scanned_for(orders), 1);
}

#[test]
fn insert_outside_all_partitions_fails() {
    let db = MppDb::new(4);
    let orders = setup_orders(&db, 10, 2).unwrap();
    let err = db
        .sql("INSERT INTO orders VALUES (1, 1.0, '2031-01-01')")
        .unwrap_err();
    assert_eq!(err.kind(), "no_matching_partition");
    assert_eq!(db.storage().row_count(orders).unwrap(), 10);
}

#[test]
fn delete_uses_partition_elimination() {
    let db = MppDb::new(4);
    let orders = setup_orders(&db, 2_000, 3).unwrap();
    let jan_count = db
        .sql("SELECT count(*) FROM orders WHERE date < '2012-02-01'")
        .unwrap()
        .rows[0]
        .values()[0]
        .as_i64()
        .unwrap();
    let out = db
        .sql("DELETE FROM orders WHERE date < '2012-02-01'")
        .unwrap();
    assert_eq!(out.rows[0].values()[0], Datum::Int64(jan_count));
    // Only the January partition was touched.
    assert_eq!(out.stats.parts_scanned_for(orders), 1);
    let remaining = db.sql("SELECT count(*) FROM orders").unwrap();
    assert_eq!(
        remaining.rows[0].values()[0],
        Datum::Int64(2_000 - jan_count)
    );
    // Nothing left in January.
    let jan = db
        .sql("SELECT count(*) FROM orders WHERE date < '2012-02-01'")
        .unwrap();
    assert_eq!(jan.rows[0].values()[0], Datum::Int64(0));
}

#[test]
fn update_moves_rows_across_partitions() {
    let db = MppDb::new(4);
    setup_orders(&db, 1_000, 4).unwrap();
    let dec_before = db
        .sql("SELECT count(*) FROM orders WHERE date BETWEEN '2013-12-01' AND '2013-12-31'")
        .unwrap()
        .rows[0]
        .values()[0]
        .as_i64()
        .unwrap();
    let jan_before = db
        .sql("SELECT count(*) FROM orders WHERE date BETWEEN '2012-01-01' AND '2012-01-31'")
        .unwrap()
        .rows[0]
        .values()[0]
        .as_i64()
        .unwrap();
    // Move every December 2013 order back to January 2012 — a
    // cross-partition update.
    let out = db
        .sql(
            "UPDATE orders SET date = '2012-01-15' \
             WHERE date BETWEEN '2013-12-01' AND '2013-12-31'",
        )
        .unwrap();
    assert_eq!(out.rows[0].values()[0], Datum::Int64(dec_before));
    let dec_after = db
        .sql("SELECT count(*) FROM orders WHERE date BETWEEN '2013-12-01' AND '2013-12-31'")
        .unwrap()
        .rows[0]
        .values()[0]
        .as_i64()
        .unwrap();
    let jan_after = db
        .sql("SELECT count(*) FROM orders WHERE date BETWEEN '2012-01-01' AND '2012-01-31'")
        .unwrap()
        .rows[0]
        .values()[0]
        .as_i64()
        .unwrap();
    assert_eq!(dec_after, 0);
    assert_eq!(jan_after, jan_before + dec_before);
}

#[test]
fn update_from_join_matches_between_planners() {
    // The paper's §4.4.3 statement: update R set b=S.b from S where R.a=S.a.
    // Run it on two identical databases, once per planner, and compare the
    // final table contents.
    let build = || {
        let db = MppDb::new(3);
        setup_rs(
            db.storage(),
            &SynthConfig {
                r_rows: 300,
                s_rows: 100,
                r_parts: Some(10),
                s_parts: Some(10),
                b_domain: 100,
                a_domain: 50,
                seed: 99,
            },
        )
        .unwrap();
        db
    };
    // NOTE: with duplicate a-values the join picks arbitrary matches, so
    // restrict S to unique a values first for determinism.
    let orca_db = build();
    let legacy_db = build();
    // Deterministic variant: set b to a constant for matched rows.
    let sql = "UPDATE r SET b = 7 FROM s WHERE r.a = s.a AND s.b < 50";
    let a = orca_db.sql(sql).unwrap();
    let b = legacy_db.sql_legacy(sql).unwrap();
    // Legacy expands the update into per-partition-pair joins; matched row
    // multiplicity can differ from Orca's single join when S has duplicate
    // (a) values, so compare the final table states, not the counts.
    let _ = (a, b);
    assert_eq!(table_rows(&orca_db, "r"), table_rows(&legacy_db, "r"));
}

#[test]
fn legacy_dml_executes_correctly() {
    let db = MppDb::new(3);
    setup_rs(
        db.storage(),
        &SynthConfig {
            r_rows: 200,
            s_rows: 50,
            r_parts: Some(10),
            s_parts: Some(5),
            b_domain: 100,
            a_domain: 40,
            seed: 17,
        },
    )
    .unwrap();
    let before = db.sql("SELECT count(*) FROM r WHERE b >= 90").unwrap().rows[0].values()[0]
        .as_i64()
        .unwrap();
    assert!(before > 0);
    let out = db.sql_legacy("DELETE FROM r WHERE b >= 90").unwrap();
    assert_eq!(out.rows[0].values()[0], Datum::Int64(before));
    let after = db.sql("SELECT count(*) FROM r WHERE b >= 90").unwrap();
    assert_eq!(after.rows[0].values()[0], Datum::Int64(0));
}

#[test]
fn insert_column_subset_defaults_to_null() {
    let db = MppDb::new(2);
    setup_rs(
        db.storage(),
        &SynthConfig {
            r_rows: 10,
            s_rows: 10,
            r_parts: Some(5),
            s_parts: None,
            b_domain: 50,
            a_domain: 50,
            seed: 1,
        },
    )
    .unwrap();
    // s is unpartitioned; inserting (a) only leaves b NULL.
    db.sql("INSERT INTO s (a) VALUES (999)").unwrap();
    let q = db.sql("SELECT a FROM s WHERE b IS NULL").unwrap();
    assert_eq!(q.rows.len(), 1);
    assert_eq!(q.rows[0].values()[0], Datum::Int32(999));
    // But a NULL partition key on a partitioned table with no default
    // partition is rejected.
    let err = db.sql("INSERT INTO r (a) VALUES (1)").unwrap_err();
    assert_eq!(err.kind(), "no_matching_partition");
}

/// DML whose target rows come through a Motion: the join is on `b`, not
/// the distribution key `a`. The Motion stages inside the statement
/// materialize once, before its rows are collected, with the same effects
/// at every worker count and under both planners.
#[test]
fn dml_with_a_motion_below_agrees_across_planners_and_workers() {
    let build = |workers| {
        let db = MppDb::new(4).with_sched_config(SchedConfig::with_workers(workers));
        db.sql(
            "CREATE TABLE r (a int NOT NULL, b int NOT NULL) DISTRIBUTED BY (a) \
             PARTITION BY RANGE (b) (START (0) END (100) EVERY (10))",
        )
        .unwrap();
        db.sql("CREATE TABLE s (a int NOT NULL, b int NOT NULL) DISTRIBUTED BY (a)")
            .unwrap();
        let r: Vec<String> = (0..200).map(|i| format!("({i}, {})", i % 100)).collect();
        db.sql(&format!("INSERT INTO r VALUES {}", r.join(", ")))
            .unwrap();
        // 7 is prime to 100, so s.b is unique: each r row matches at most
        // one s row.
        let s: Vec<String> = (0..50).map(|i| format!("({i}, {})", i * 7 % 100)).collect();
        db.sql(&format!("INSERT INTO s VALUES {}", s.join(", ")))
            .unwrap();
        db
    };
    let statements = [
        "UPDATE r SET a = r.a + 1000 FROM s WHERE r.b = s.b AND s.a < 30",
        "DELETE FROM r USING s WHERE r.b = s.b AND s.a > 40",
    ];
    let mut per_planner = Vec::new();
    for planner in [Planner::Orca, Planner::Legacy] {
        let runs: Vec<_> = [1, 4]
            .into_iter()
            .map(|workers| {
                let db = build(workers);
                let effects: Vec<_> = statements
                    .iter()
                    .map(|sql| {
                        let out = db.run_sql(sql, &[], planner).unwrap();
                        let motions = out.plan.count_op("Motion") as u64;
                        assert!(motions > 0, "{planner:?}: no Motion below `{sql}`");
                        assert_eq!(
                            out.stats.motions, motions,
                            "{planner:?} w={workers}: `{sql}`"
                        );
                        (out.rows, motions, out.stats.rows_moved)
                    })
                    .collect();
                (effects, table_rows(&db, "r"))
            })
            .collect();
        assert_eq!(runs[0], runs[1], "{planner:?}: 1 vs 4 workers");
        per_planner.push(runs.into_iter().next().unwrap());
    }
    // b = i % 100 puts two r rows on every s.b value: 30 s rows match 60
    // r rows, 9 match 18.
    for (effects, _) in &per_planner {
        let counts: Vec<&Vec<Row>> = effects.iter().map(|(rows, ..)| rows).collect();
        let want = [60, 18].map(|n| vec![Row::new(vec![Datum::Int64(n)])]);
        assert_eq!(counts, want.iter().collect::<Vec<_>>());
    }
    assert_eq!(per_planner[0].1, per_planner[1].1, "final contents differ");
}
