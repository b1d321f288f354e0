//! Acceptance property: `PreparedStatement::execute` with differing
//! parameters returns exactly what a fresh `sql_with_params` of the same
//! statement returns — same rows, same partitions scanned — across both
//! planner flavors and at one worker and one worker per segment.

use mpp_session::SessionCtx;
use mppart::common::Datum;
use mppart::testing::sorted;
use mppart::workloads::{setup_rs, SynthConfig};
use mppart::{MppDb, Planner, SchedConfig};
use proptest::prelude::*;
use std::sync::Arc;

fn ctx(seed: u64, workers: usize) -> Arc<SessionCtx> {
    let db = MppDb::new(3).with_sched_config(SchedConfig::with_workers(workers));
    setup_rs(
        db.storage(),
        &SynthConfig {
            r_rows: 300,
            s_rows: 100,
            r_parts: Some(20),
            s_parts: None,
            b_domain: 200,
            a_domain: 200,
            seed,
        },
    )
    .unwrap();
    SessionCtx::with_db(db, 32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prepared_equals_fresh_for_every_binding(
        v1 in 0i32..200,
        v2 in 0i32..200,
        v3 in 0i32..200,
        seed in 0u64..25,
    ) {
        let sql = "SELECT * FROM r WHERE b = $1 OR b > $2";
        for workers in [1, 3] {
            let ctx = ctx(seed, workers);
            let r_oid = ctx.db().catalog().table_by_name("r").unwrap().oid;
            for planner in [Planner::Orca, Planner::Legacy] {
                let session = ctx.session().with_planner(planner);
                let prepared = session.prepare(sql).unwrap();
                prop_assert_eq!(prepared.param_count(), 2);
                for (a, b) in [(v1, v2), (v2, v3), (v3, v1)] {
                    let params = [Datum::Int32(a), Datum::Int32(b)];
                    let got = prepared.execute(&params).unwrap();
                    let fresh = ctx.db().run_sql(sql, &params, planner).unwrap();
                    prop_assert_eq!(
                        sorted(got.rows),
                        sorted(fresh.rows),
                        "params=({},{}) planner={:?} workers={:?}",
                        a, b, planner, workers
                    );
                    prop_assert_eq!(
                        got.stats.parts_scanned_for(r_oid),
                        fresh.stats.parts_scanned_for(r_oid),
                        "params=({},{}) planner={:?} workers={:?}",
                        a, b, planner, workers
                    );
                }
            }
        }
    }

    /// The implicit plan cache is just as invisible: an ad-hoc session
    /// statement (cached or not) equals the uncached database call.
    #[test]
    fn cached_adhoc_equals_uncached(
        v in 0i32..200,
        seed in 0u64..25,
    ) {
        let sql = "SELECT * FROM r WHERE b < $1";
        let ctx = ctx(seed, 1);
        let session = ctx.session();
        let params = [Datum::Int32(v)];
        let first = session.sql_with_params(sql, &params).unwrap();
        let second = session.sql_with_params(sql, &params).unwrap();
        prop_assert!(second.cache.unwrap().hit);
        let fresh = ctx.db().sql_with_params(sql, &params).unwrap();
        prop_assert_eq!(sorted(first.rows), sorted(fresh.rows.clone()));
        prop_assert_eq!(sorted(second.rows), sorted(fresh.rows));
    }
}
