//! The streaming execution path is the *one* implementation — the
//! collecting APIs are wrappers over it. These tests pin the contract:
//! streamed chunks reassemble to exactly the collected result (rows and
//! stats) across engines, worker counts and planners; large results
//! arrive in multiple chunks; a sink or token can stop a query mid-stream and the
//! partial statistics survive the error.

use mpp_session::SessionCtx;
use mppart::common::{Datum, Row};
use mppart::testing::sorted;
use mppart::workloads::{setup_rs, SynthConfig};
use mppart::{CancelToken, ExecEngine, MppDb, ResultChunk, SchedConfig, StreamOutcome};
use std::sync::Arc;
use std::time::Duration;

/// Three segments run by `workers` workers (one is the served default:
/// the root Gather streams).
fn ctx_with(workers: usize, engine: ExecEngine) -> Arc<SessionCtx> {
    let db = MppDb::new(3)
        .with_sched_config(SchedConfig::with_workers(workers))
        .with_exec_engine(engine);
    setup_rs(
        db.storage(),
        &SynthConfig {
            r_rows: 2_000,
            s_rows: 400,
            r_parts: Some(20),
            s_parts: None,
            b_domain: 100,
            a_domain: 500,
            seed: 11,
        },
    )
    .unwrap();
    SessionCtx::with_db(db, 32)
}

/// Stream a statement, collecting every chunk; panics on sink error.
fn stream_all(ctx: &Arc<SessionCtx>, sql: &str, params: &[Datum]) -> (Vec<Row>, StreamOutcome) {
    let session = ctx.session();
    let cancel = CancelToken::new();
    let mut rows = Vec::new();
    let mut sink = |chunk: ResultChunk| {
        chunk.append_to(&mut rows);
        Ok(())
    };
    let out = session.sql_stream_with_params(sql, params, &cancel, &mut sink);
    (rows, out)
}

const STATEMENTS: &[&str] = &[
    "SELECT count(*) FROM r",
    "SELECT a, b FROM r WHERE b = 7",
    "SELECT b, count(*) FROM r WHERE b < 40 GROUP BY b",
    "SELECT r.a, s.b FROM r JOIN s ON r.b = s.b WHERE r.a < 100",
    "EXPLAIN SELECT a FROM r WHERE b = 3",
];

#[test]
fn streamed_chunks_reassemble_to_the_collected_result() {
    for workers in [1, 3] {
        for engine in [ExecEngine::Row, ExecEngine::Batch] {
            let ctx = ctx_with(workers, engine);
            let session = ctx.session();
            for sql in STATEMENTS {
                let collected = session.sql(sql).unwrap();
                let (rows, out) = stream_all(&ctx, sql, &[]);
                out.result
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{workers:?}/{engine:?} {sql}: {e}"));
                assert_eq!(
                    sorted(rows),
                    sorted(collected.rows),
                    "{workers:?}/{engine:?}: rows diverge for {sql}"
                );
                assert_eq!(out.stats.rows_returned, collected.stats.rows_returned);
                assert_eq!(out.stats.tuples_scanned, collected.stats.tuples_scanned);
                assert_eq!(out.stats.parts_scanned, collected.stats.parts_scanned);
                assert_eq!(out.stats.rows_moved, collected.stats.rows_moved);
            }
        }
    }
}

#[test]
fn large_results_arrive_in_multiple_chunks() {
    let ctx = ctx_with(1, ExecEngine::Batch);
    let session = ctx.session();
    let cancel = CancelToken::new();
    let mut chunks = 0usize;
    let mut rows = 0usize;
    let mut sink = |chunk: ResultChunk| {
        chunks += 1;
        rows += chunk.len();
        Ok(())
    };
    let out = session.sql_stream_with_params("SELECT a, b FROM r", &[], &cancel, &mut sink);
    out.result.unwrap();
    assert_eq!(rows, 2_000);
    assert!(
        chunks > 1,
        "2000 rows over 3 segments must arrive incrementally"
    );
}

/// `tuples_scanned` of `SELECT a, b FROM r` on `workers` workers when
/// the sink fails on the first chunk (the network layer's "client went
/// away"), and of the full query.
fn scanned_when_sink_fails(workers: usize) -> (u64, u64) {
    let ctx = ctx_with(workers, ExecEngine::Batch);
    let session = ctx.session();
    let full = session.sql("SELECT a, b FROM r").unwrap();

    let cancel = CancelToken::new();
    let mut seen = 0usize;
    let mut sink = |chunk: ResultChunk| {
        seen += chunk.len();
        Err(mppart::common::Error::Cancelled("reader gone".into()))
    };
    let out = session.sql_stream_with_params("SELECT a, b FROM r", &[], &cancel, &mut sink);
    assert_eq!(out.result.as_ref().unwrap_err().kind(), "cancelled");
    assert!(seen > 0, "the first chunk must have been delivered");
    assert!(seen < 2_000, "the query must not have run to completion");
    // Partial stats survive the error (what an Error frame carries).
    assert!(out.stats.rows_returned < full.stats.rows_returned);
    (out.stats.tuples_scanned, full.stats.tuples_scanned)
}

#[test]
fn sink_error_aborts_the_query_and_keeps_partial_stats() {
    // One worker streams the root Gather per segment: the failing sink
    // stops the scan before the later segments run.
    let (scanned, full) = scanned_when_sink_fails(1);
    assert!(scanned > 0 && scanned < full, "{scanned} of {full}");
}

#[test]
fn sink_error_on_a_staged_root_reports_the_full_scan() {
    // Three workers stage the root Gather: every segment has scanned
    // before the sink sees its first chunk.
    let (scanned, full) = scanned_when_sink_fails(3);
    assert_eq!(scanned, full);
}

#[test]
fn cancel_token_stops_streaming_between_chunks() {
    let ctx = ctx_with(1, ExecEngine::Batch);
    let session = ctx.session();

    let cancel = CancelToken::new();
    let mut first = true;
    let mut sink = |_chunk: ResultChunk| {
        if first {
            first = false;
            cancel.cancel();
        }
        Ok(())
    };
    let out = session.sql_stream_with_params("SELECT a, b FROM r", &[], &cancel, &mut sink);
    let err = out.result.unwrap_err();
    assert_eq!(err.kind(), "cancelled");
    assert!(!cancel.timed_out());
}

#[test]
fn expired_timeout_reports_timed_out() {
    let ctx = ctx_with(1, ExecEngine::Batch);
    let session = ctx.session();
    let cancel = CancelToken::with_timeout(Duration::ZERO);
    let mut sink = |_chunk: ResultChunk| Ok(());
    let out = session.sql_stream_with_params("SELECT a, b FROM r", &[], &cancel, &mut sink);
    assert_eq!(out.result.unwrap_err().kind(), "cancelled");
    assert!(cancel.timed_out());
}

#[test]
fn prepared_statements_stream_identically_to_execute() {
    let ctx = ctx_with(1, ExecEngine::Batch);
    let session = ctx.session();
    let ps = session.prepare("SELECT a, b FROM r WHERE b = $1").unwrap();

    for key in [0i32, 7, 63, 99] {
        let params = [Datum::Int32(key)];
        let collected = ps.execute(&params).unwrap();

        let cancel = CancelToken::new();
        let mut rows = Vec::new();
        let mut sink = |chunk: ResultChunk| {
            chunk.append_to(&mut rows);
            Ok(())
        };
        let out = ps.execute_stream(&params, &cancel, &mut sink);
        out.result.unwrap();
        assert_eq!(sorted(rows), sorted(collected.rows), "key {key}");
        assert_eq!(out.stats.rows_returned, collected.stats.rows_returned);
        assert!(
            out.cache.is_some(),
            "streamed execution must report cache info"
        );
    }
}

#[test]
fn ddl_streams_with_no_chunks_and_bumps_the_catalog() {
    let ctx = ctx_with(1, ExecEngine::Batch);
    let session = ctx.session();

    let cancel = CancelToken::new();
    let mut chunks = 0usize;
    let mut sink = |_chunk: ResultChunk| {
        chunks += 1;
        Ok(())
    };
    let out =
        session.sql_stream_with_params("CREATE TABLE st (k int, v int)", &[], &cancel, &mut sink);
    out.result.unwrap();
    assert_eq!(chunks, 0, "DDL produces no result chunks");

    session.sql("INSERT INTO st VALUES (1, 2), (3, 4)").unwrap();
    let (rows, out) = stream_all(&ctx, "SELECT k, v FROM st", &[]);
    out.result.unwrap();
    assert_eq!(rows.len(), 2);
}
