//! Concurrency: N sessions over one shared [`SessionCtx`] must return
//! exactly what one session running sequentially returns, the shared
//! counters must add up, and DDL racing with queries must never produce
//! a wrong answer — only a re-plan.

use mpp_session::{Session, SessionCtx};
use mppart::common::{Datum, Row};
use mppart::testing::sorted;
use mppart::workloads::{setup_rs, SynthConfig};
use mppart::{MppDb, SchedConfig};
use std::sync::Arc;

fn ctx_with_workers(workers: usize) -> Arc<SessionCtx> {
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
            seed: 7,
        },
    )
    .unwrap();
    SessionCtx::with_db(db, 64)
}

const QUERIES: &[(&str, i32)] = &[
    ("SELECT * FROM r WHERE b = $1", 17),
    ("SELECT * FROM r WHERE b < $1", 40),
    ("SELECT count(*) FROM r WHERE b BETWEEN $1 AND 90", 50),
    ("SELECT * FROM s WHERE a >= $1", 150),
    ("SELECT count(*) FROM s, r WHERE r.b = s.b AND s.a < $1", 60),
];

fn run_all(s: &Session) -> Vec<Vec<Row>> {
    QUERIES
        .iter()
        .map(|(q, v)| sorted(s.sql_with_params(q, &[Datum::Int32(*v)]).unwrap().rows))
        .collect()
}

#[test]
fn n_sessions_match_the_sequential_reference() {
    for workers in [1, 3] {
        let ctx = ctx_with_workers(workers);
        // Reference: one session, one pass, before any caching happened.
        let reference = run_all(&ctx.session());

        const SESSIONS: usize = 8;
        const ROUNDS: usize = 4;
        // sessions → rounds → queries → rows
        let results: Vec<Vec<Vec<Vec<Row>>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..SESSIONS)
                .map(|_| {
                    let session = ctx.session();
                    scope.spawn(move || -> Vec<Vec<Vec<Row>>> {
                        (0..ROUNDS).map(|_| run_all(&session)).collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for per_session in &results {
            for pass in per_session {
                assert_eq!(pass, &reference, "workers={workers}");
            }
        }

        // Counters add up: every statement was either a hit or a miss,
        // and the cache never held more than the distinct key count.
        let info = ctx.cache().info(false);
        let total = ((SESSIONS * ROUNDS + 1) * QUERIES.len()) as u64;
        assert_eq!(info.hits + info.misses, total, "workers={workers}");
        assert!(ctx.cache().len() <= QUERIES.len());
        // Racing first-misses are allowed, but the steady state is hits.
        assert!(
            info.hits >= (SESSIONS * (ROUNDS - 1) * QUERIES.len()) as u64,
            "workers={workers}: too few hits: {info:?}"
        );
        assert_eq!(info.evictions, 0, "workers={workers}");
    }
}

#[test]
fn ddl_racing_with_queries_stays_exact() {
    let ctx = ctx_with_workers(1);
    let s = ctx.session();
    // DDL churns a *different* table, so every query answer is still
    // uniquely determined — invalidation may cost re-plans, never rows.
    let reference = run_all(&s);
    std::thread::scope(|scope| {
        let churn = {
            let session = ctx.session();
            scope.spawn(move || {
                for i in 0..20 {
                    session
                        .sql(&format!("CREATE TABLE churn{i} (x int)"))
                        .unwrap();
                    session.sql(&format!("DROP TABLE churn{i}")).unwrap();
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let session = ctx.session();
                let reference = &reference;
                scope.spawn(move || {
                    for _ in 0..6 {
                        assert_eq!(&run_all(&session), reference);
                    }
                })
            })
            .collect();
        churn.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
    });
    // Versions moved many times; the cache must have noticed.
    let info = ctx.cache().info(false);
    assert!(info.invalidations > 0 || info.misses > QUERIES.len() as u64);
}

#[test]
fn one_prepared_statement_shared_by_many_threads() {
    let ctx = ctx_with_workers(1);
    let s = ctx.session();
    let q = Arc::new(s.prepare("SELECT count(*) FROM r WHERE b < $1").unwrap());
    let expect = |hi: i32| {
        ctx.db()
            .sql_with_params("SELECT count(*) FROM r WHERE b < $1", &[Datum::Int32(hi)])
            .unwrap()
            .rows[0]
            .values()[0]
            .clone()
    };
    let expected: Vec<Datum> = (0..8).map(|i| expect(i * 25)).collect();
    std::thread::scope(|scope| {
        for (i, want) in expected.iter().enumerate() {
            let q = Arc::clone(&q);
            scope.spawn(move || {
                for _ in 0..5 {
                    let out = q.execute(&[Datum::Int32(i as i32 * 25)]).unwrap();
                    assert_eq!(&out.rows[0].values()[0], want);
                }
            });
        }
    });
    // All threads shared one compiled-template set.
    assert!(q.compiled_sites() > 0);
}
