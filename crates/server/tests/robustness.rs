//! Robustness under load and misbehaving clients: admission shedding,
//! bounded streaming memory against slow readers, mid-query cancel,
//! per-query limits, timeouts, and graceful shutdown.

use mpp_server::{
    Client, ClientError, ClientMsg, MetricsSnapshot, Server, ServerConfig, ServerMsg,
};
use mpp_session::SessionCtx;
use mpp_workloads::{setup_rs, SynthConfig};
use mppart::MppDb;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Demo tables with a *dense* join key (`b` in `[0, 5)`), so
/// `r JOIN s ON r.b = s.b` explodes to ~2M rows: big enough (~50 MB on
/// the wire) to overwhelm kernel socket buffering.
fn heavy_ctx() -> Arc<SessionCtx> {
    let db = MppDb::new(2);
    let cfg = SynthConfig {
        b_domain: 5,
        r_parts: Some(5),
        ..SynthConfig::default()
    };
    setup_rs(db.storage(), &cfg).unwrap();
    SessionCtx::with_db(db, 64)
}

/// The join's count form: one output row, the same scan footprint as
/// [`HUGE_SQL`].
const SLOW_SQL: &str = "SELECT count(*) FROM r JOIN s ON r.b = s.b";
/// Same join, materialized wide: ~2M rows x 5 ints ≈ 50 MB on the wire
/// (deliberately larger than the ~36 MB the kernel can absorb in loopback
/// socket buffers, so an unread result *must* stall the stream), streamed
/// as hundreds of blocks.
const HUGE_SQL: &str = "SELECT r.a, r.b, s.a, s.b, r.a FROM r JOIN s ON r.b = s.b";

fn start(cfg: ServerConfig) -> (Server, Arc<SessionCtx>) {
    let ctx = heavy_ctx();
    let server = Server::start(Arc::clone(&ctx), "127.0.0.1:0", cfg).unwrap();
    (server, ctx)
}

/// A client that sends [`HUGE_SQL`] and reads nothing. Its query stays
/// admitted for as long as the client refuses to read, however fast the
/// executor is: the reply cannot fit in the socket buffers, so
/// `stream_query` blocks in its socket write with the admission permit
/// held. The latch opens when [`drain`] reads.
fn stalled_reader(addr: SocketAddr) -> Client {
    let mut client = Client::connect(addr).unwrap();
    client
        .send(&ClientMsg::Query {
            sql: HUGE_SQL.to_string(),
            params: Vec::new(),
        })
        .unwrap();
    client
}

/// Read a streamed reply to its end; returns the rows received. Panics
/// unless it ends in `CommandComplete` reporting exactly those rows.
fn drain(client: &mut Client) -> u64 {
    let mut rows = 0u64;
    loop {
        match client.recv().unwrap() {
            ServerMsg::RowDescription { .. } => {}
            ServerMsg::DataBlock { rows: r } => rows += r.len() as u64,
            ServerMsg::CommandComplete { stats, .. } => {
                assert_eq!(stats.rows_returned, rows);
                return rows;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
}

/// Poll server metrics until `done` holds. The bound only turns a hang
/// into a failure; nothing here races a timer.
fn wait_for(server: &Server, what: &str, mut done: impl FnMut(&MetricsSnapshot) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while !done(&server.metrics()) {
        assert!(Instant::now() < deadline, "never happened: {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn inflight_limit_sheds_excess_queries_with_overloaded() {
    let (server, _ctx) = start(ServerConfig {
        max_inflight_queries: 2,
        admission_wait: Duration::from_millis(150),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    // Two stalled readers take both slots and keep them until drained.
    let mut held: Vec<Client> = (0..2).map(|_| stalled_reader(addr)).collect();
    wait_for(&server, "both slots taken", |m| m.inflight_queries == 2);

    let n = 6;
    let barrier = Arc::new(Barrier::new(n));
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                barrier.wait();
                let res = client.query("SELECT count(*) FROM s", &[]);
                let _ = client.goodbye();
                res
            })
        })
        .collect();
    for h in handles {
        match h.join().unwrap() {
            Err(ClientError::Server { code, .. }) if code == mpp_server::CODE_OVERLOADED => {}
            other => panic!("expected overloaded, got {other:?}"),
        }
    }
    let m = server.metrics();
    assert_eq!(
        m.shed_queries, 6,
        "every query beyond the two held slots sheds"
    );
    assert_eq!(m.inflight_queries, 2, "the held queries are still admitted");

    // Releasing the latch lets both held queries finish normally.
    for client in &mut held {
        assert!(drain(client) > 0);
    }
    for client in held {
        client.goodbye().unwrap();
    }
    let m = server.metrics();
    assert_eq!(m.queries_ok, 2);
    assert_eq!(m.shed_queries, 6);

    // The server is healthy afterwards.
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(
        client
            .query("SELECT count(*) FROM s", &[])
            .unwrap()
            .rows
            .len(),
        1
    );
    client.goodbye().unwrap();
    server.stop();
}

#[test]
fn connection_limit_sheds_at_handshake() {
    let (server, _ctx) = start(ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    let c1 = Client::connect(addr).unwrap();
    let c2 = Client::connect(addr).unwrap();
    match Client::connect(addr) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, mpp_server::CODE_OVERLOADED),
        Err(other) => panic!("expected overloaded at handshake, got {other:?}"),
        Ok(_) => panic!("expected overloaded at handshake, got a connection"),
    }
    assert_eq!(server.metrics().shed_connections, 1);

    // Freeing a slot lets new connections in again.
    c1.goodbye().unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    let c3 = loop {
        match Client::connect(addr) {
            Ok(c) => break c,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("slot never freed: {e}"),
        }
    };
    c3.goodbye().unwrap();
    c2.goodbye().unwrap();
    server.stop();
}

#[test]
fn slow_reader_backpressures_instead_of_buffering() {
    let (server, _ctx) = start(ServerConfig::default());
    let addr = server.local_addr();

    let mut client = stalled_reader(addr);

    // Read nothing. The worker fills the kernel socket buffers and
    // blocks in its write with one encoded frame in hand. Wait until it
    // holds that frame and two polls apart show no progress — from then
    // on the executor is being back-pressured by our refusal to read.
    let mut last_emitted = 0;
    wait_for(&server, "stream stalled", |m| {
        let stalled = m.chunks_emitted == m.blocks_streamed + 1 && m.chunks_emitted == last_emitted;
        last_emitted = m.chunks_emitted;
        stalled
    });
    let stalled = server.metrics();
    assert_eq!(stalled.inflight_queries, 1, "query must still be running");
    // Hold the stall for a while: the server-side buffer must stay
    // bounded — beyond what already reached the socket, at most the one
    // frame being written exists, no matter how long we refuse to read.
    for _ in 0..10 {
        std::thread::sleep(Duration::from_millis(100));
        let m = server.metrics();
        assert_eq!(m.inflight_queries, 1, "query must still be admitted");
        assert!(
            m.chunks_emitted - m.blocks_streamed <= 1,
            "server buffered {} frames beyond the socket",
            m.chunks_emitted - m.blocks_streamed
        );
    }

    // Drain: every row arrives, nothing was dropped while stalled.
    assert!(drain(&mut client) > 0);
    wait_for(&server, "query released", |m| m.inflight_queries == 0);
    let end = server.metrics();
    assert!(end.blocks_streamed > 1, "result should span many blocks");
    assert!(
        end.chunks_emitted > stalled.chunks_emitted,
        "the stall was final?"
    );
    assert_eq!(
        end.chunks_emitted, end.blocks_streamed,
        "every encoded frame reached the socket"
    );

    client.goodbye().unwrap();
    server.stop();
}

#[test]
fn cancel_frame_stops_query_mid_stream() {
    let (server, ctx) = start(ServerConfig::default());
    let addr = server.local_addr();

    // Baseline: the full scan footprint of the uncancelled join. The
    // count form scans exactly the tuples the materialized form does,
    // without collecting 2M wide rows here.
    let full = ctx.session().sql(SLOW_SQL).unwrap();
    let full_scanned = full.stats.tuples_scanned;

    let mut client = Client::connect(addr).unwrap();
    client
        .send(&ClientMsg::Query {
            sql: HUGE_SQL.to_string(),
            params: Vec::new(),
        })
        .unwrap();

    let mut cancelled = false;
    let partial = loop {
        match client.recv().unwrap() {
            ServerMsg::RowDescription { .. } => {}
            ServerMsg::DataBlock { .. } => {
                if !cancelled {
                    // Out-of-band: the reader thread trips the token
                    // while blocks are still streaming.
                    client.canceller().unwrap().cancel().unwrap();
                    cancelled = true;
                }
            }
            ServerMsg::Error { code, stats, .. } => {
                assert_eq!(code, "cancelled");
                break stats.expect("partial stats must accompany a cancel");
            }
            ServerMsg::CommandComplete { .. } => {
                panic!("query completed before cancel took effect")
            }
            other => panic!("unexpected frame {other:?}"),
        }
    };
    assert!(
        partial.tuples_scanned < full_scanned,
        "cancel must stop the scan early: partial {} vs full {}",
        partial.tuples_scanned,
        full_scanned
    );
    assert_eq!(server.metrics().queries_cancelled, 1);

    // The connection survives its own cancel.
    let reply = client.query("SELECT count(*) FROM s", &[]).unwrap();
    assert_eq!(reply.rows.len(), 1);
    client.goodbye().unwrap();
    server.stop();
}

#[test]
fn dropped_connection_cancels_inflight_query() {
    let (server, _ctx) = start(ServerConfig::default());
    let addr = server.local_addr();

    {
        let _client = stalled_reader(addr);
        // Wait until execution has demonstrably started, then vanish.
        wait_for(&server, "query started", |m| m.chunks_emitted > 0);
    } // drop = socket close

    wait_for(&server, "query stopped after its client disappeared", |m| {
        m.inflight_queries == 0 && m.active_connections == 0
    });
    assert_eq!(
        server.metrics().queries_ok,
        0,
        "a query without a reader must not 'succeed'"
    );
    server.stop();
}

#[test]
fn per_query_limits_and_timeouts_kill_queries_with_stable_codes() {
    let (server, _ctx) = start(ServerConfig {
        max_rows_per_query: Some(1_000),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    match client.query("SELECT a, b FROM r", &[]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "limit_rows"),
        other => panic!("expected limit_rows, got {other:?}"),
    }
    // Small results stay under the cap and still work.
    assert!(client.query("SELECT count(*) FROM r", &[]).is_ok());
    client.goodbye().unwrap();
    server.stop();

    // A zero timeout trips at the first block boundary, whatever the
    // speed of the query.
    let (server, _ctx) = start(ServerConfig {
        query_timeout: Some(Duration::ZERO),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    match client.query("SELECT count(*) FROM r", &[]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "timeout"),
        other => panic!("expected timeout, got {other:?}"),
    }
    client.goodbye().unwrap();
    server.stop();

    let (server, _ctx) = start(ServerConfig {
        max_bytes_per_query: Some(64 * 1024),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    match client.query("SELECT a, b FROM r", &[]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "limit_bytes"),
        other => panic!("expected limit_bytes, got {other:?}"),
    }
    client.goodbye().unwrap();
    server.stop();
}

#[test]
fn graceful_shutdown_drains_inflight_queries() {
    let (server, _ctx) = start(ServerConfig {
        shutdown_drain: Duration::from_secs(30),
        ..ServerConfig::default()
    });
    let server = Arc::new(server);
    let addr = server.local_addr();

    let mut reader = stalled_reader(addr);
    let mut late = Client::connect(addr).unwrap();
    wait_for(&server, "query admitted", |m| m.inflight_queries == 1);

    let stopper = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.stop())
    };
    server.wait_stop_requested();
    // Shutdown has begun while the query is held: new queries are
    // refused...
    match late.query("SELECT count(*) FROM s", &[]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "shutting_down"),
        other => panic!("expected shutting_down, got {other:?}"),
    }
    // ...and the in-flight one still completes once its client reads.
    assert!(drain(&mut reader) > 0);
    stopper.join().unwrap();
    assert_eq!(server.metrics().queries_ok, 1);

    // And the listener is gone: nothing new gets in.
    assert!(Client::connect(addr).is_err());
}
