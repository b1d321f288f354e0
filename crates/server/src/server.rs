//! The server: thread-per-connection over `std::net`, streaming results.
//!
//! ## Connection anatomy
//!
//! Each accepted socket gets two threads: a *reader* that parses every
//! incoming frame — so a `Cancel` is seen even while a query is
//! streaming — and a *worker* that owns the write half and executes
//! commands in order. A query runs on the worker itself: its sink cuts
//! each executor chunk into `DataBlock` frames and writes every frame to
//! the socket as soon as it is encoded. A slow client therefore stalls
//! the executor (the write blocks) instead of growing server memory: at
//! most one encoded frame exists between the executor and the socket.
//!
//! ## Robustness
//!
//! * **Admission control** — at most `max_connections` sockets and
//!   `max_inflight_queries` concurrently executing queries; excess
//!   queries wait up to `admission_wait`, then are shed with
//!   `Error{code: "overloaded"}`. The connection stays usable.
//! * **Cancellation** — a `Cancel` frame, a dropped connection, a
//!   per-query timeout, or a row/byte limit all trip the query's
//!   [`CancelToken`]; the executor notices at its next block boundary
//!   (the sink, before its next frame) and unwinds with partial
//!   statistics, which travel back in the `Error` frame.
//! * **Graceful shutdown** — [`Server::stop`] stops accepting, lets
//!   in-flight queries drain up to `shutdown_drain`, then cancels
//!   stragglers and closes every socket before joining all threads.

use crate::metrics::{MetricsSnapshot, ServerMetrics};
use crate::protocol::{
    read_frame, write_frame, ClientMsg, ServerMsg, CODE_OVERLOADED, MAX_FRAME, PROTOCOL_VERSION,
};
use mpp_common::{Datum, Error};
use mpp_session::{PreparedStatement, Resolved, Session, SessionCtx};
use mppart::{CancelToken, ResultChunk, StreamOutcome};
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tuning knobs; `Default` is sized for tests and small deployments.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Sockets accepted concurrently; excess connections are shed at
    /// handshake with `Error{code: "overloaded"}`.
    pub max_connections: usize,
    /// Queries executing concurrently across all connections.
    pub max_inflight_queries: usize,
    /// How long a query waits for an execution slot before being shed.
    pub admission_wait: Duration,
    /// Cap on result rows per query (`Error{code: "limit_rows"}`).
    pub max_rows_per_query: Option<u64>,
    /// Cap on encoded result bytes per query (`"limit_bytes"`).
    pub max_bytes_per_query: Option<u64>,
    /// Wall-clock deadline per query (`Error{code: "timeout"}`).
    pub query_timeout: Option<Duration>,
    /// How long a new connection may dawdle before its `Hello`.
    pub handshake_timeout: Duration,
    /// How long [`Server::stop`] waits for in-flight queries.
    pub shutdown_drain: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_connections: 64,
            max_inflight_queries: 16,
            admission_wait: Duration::from_secs(2),
            max_rows_per_query: None,
            max_bytes_per_query: None,
            query_timeout: None,
            handshake_timeout: Duration::from_secs(5),
            shutdown_drain: Duration::from_secs(5),
        }
    }
}

/// Counting semaphore over `std::sync` (the vendored `parking_lot`
/// stub has no `Condvar`), with a bounded wait: admission control for
/// in-flight queries.
struct Admission {
    cap: usize,
    held: Mutex<usize>,
    freed: Condvar,
}

impl Admission {
    fn new(cap: usize) -> Admission {
        Admission {
            cap: cap.max(1),
            held: Mutex::new(0),
            freed: Condvar::new(),
        }
    }

    /// Take a slot, waiting up to `wait`; `false` means shed.
    fn try_acquire(&self, wait: Duration) -> bool {
        let deadline = Instant::now() + wait;
        let mut held = self.held.lock().expect("admission lock poisoned");
        while *held >= self.cap {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (g, _) = self
                .freed
                .wait_timeout(held, deadline - now)
                .expect("admission lock poisoned");
            held = g;
        }
        *held += 1;
        true
    }

    fn release(&self) {
        *self.held.lock().expect("admission lock poisoned") -= 1;
        self.freed.notify_one();
    }
}

/// Per-connection state reachable from other threads: the socket (for
/// forced close at shutdown) and the in-flight query's cancel token
/// (for `Cancel` frames and disconnect cleanup).
struct ConnShared {
    stream: TcpStream,
    active: Mutex<Option<CancelToken>>,
}

impl ConnShared {
    fn cancel_active(&self) {
        if let Some(tok) = self.active.lock().expect("conn lock poisoned").as_ref() {
            tok.cancel();
        }
    }
}

struct Shared {
    ctx: Arc<SessionCtx>,
    cfg: ServerConfig,
    metrics: ServerMetrics,
    admission: Admission,
    /// Accept loop stops and new queries are refused once set.
    shutdown: AtomicBool,
    /// Signalled by a wire `Shutdown` frame (or [`Server::request_stop`]);
    /// [`Server::wait_stop_requested`] blocks on it.
    stop_flag: Mutex<bool>,
    stop_cv: Condvar,
    conns: Mutex<HashMap<u64, Arc<ConnShared>>>,
    conn_handles: Mutex<Vec<JoinHandle<()>>>,
    next_conn: AtomicU64,
}

impl Shared {
    fn request_stop(&self) {
        *self.stop_flag.lock().expect("stop lock poisoned") = true;
        self.stop_cv.notify_all();
    }
}

/// A running server. Bind with [`Server::start`], stop with
/// [`Server::stop`] (graceful).
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start accepting connections over the shared database `ctx`.
    pub fn start(ctx: Arc<SessionCtx>, addr: &str, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            admission: Admission::new(cfg.max_inflight_queries),
            ctx,
            cfg,
            metrics: ServerMetrics::new(),
            shutdown: AtomicBool::new(false),
            stop_flag: Mutex::new(false),
            stop_cv: Condvar::new(),
            conns: Mutex::new(HashMap::new()),
            conn_handles: Mutex::new(Vec::new()),
            next_conn: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = thread::Builder::new()
            .name("mppd-accept".into())
            .spawn(move || accept_loop(accept_shared, listener))?;
        Ok(Server {
            shared,
            addr: local,
            accept: Mutex::new(Some(accept)),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Flag that a shutdown has been requested (wire `Shutdown` frames
    /// do the same); wakes [`Server::wait_stop_requested`]. Does not
    /// itself stop anything — call [`Server::stop`] for that.
    pub fn request_stop(&self) {
        self.shared.request_stop();
    }

    /// Block until someone requests a stop.
    pub fn wait_stop_requested(&self) {
        let mut g = self.shared.stop_flag.lock().expect("stop lock poisoned");
        while !*g {
            g = self.shared.stop_cv.wait(g).expect("stop lock poisoned");
        }
    }

    /// Graceful shutdown: stop accepting, refuse new queries, give
    /// in-flight queries `shutdown_drain` to finish, then cancel
    /// stragglers, close every socket, and join all threads. Idempotent.
    pub fn stop(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.request_stop();
        // Wake the accept loop with a throwaway connection.
        drop(TcpStream::connect(self.addr));
        if let Some(h) = self.accept.lock().expect("accept lock poisoned").take() {
            let _ = h.join();
        }
        let deadline = Instant::now() + self.shared.cfg.shutdown_drain;
        while Instant::now() < deadline
            && self.shared.metrics.inflight_queries.load(Ordering::Relaxed) > 0
        {
            thread::sleep(Duration::from_millis(5));
        }
        let conns: Vec<_> = {
            let g = self.shared.conns.lock().expect("conns lock poisoned");
            g.values().cloned().collect()
        };
        for conn in conns {
            conn.cancel_active();
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        let handles: Vec<_> = {
            let mut g = self
                .shared
                .conn_handles
                .lock()
                .expect("handles lock poisoned");
            g.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_shared = Arc::clone(&shared);
        let handle = thread::Builder::new()
            .name("mppd-conn".into())
            .spawn(move || conn_main(conn_shared, stream));
        if let Ok(h) = handle {
            shared
                .conn_handles
                .lock()
                .expect("handles lock poisoned")
                .push(h);
        }
    }
}

fn conn_main(shared: Arc<Shared>, stream: TcpStream) {
    ServerMetrics::inc(&shared.metrics.total_connections);
    let now_active = shared
        .metrics
        .active_connections
        .fetch_add(1, Ordering::Relaxed)
        + 1;
    let _ = stream.set_nodelay(true);
    if now_active > shared.cfg.max_connections as u64 {
        ServerMetrics::inc(&shared.metrics.shed_connections);
        shed_connection(&shared, stream);
    } else {
        // If a connection path panics, close the socket anyway — a
        // half-dead connection would leave its client blocked forever.
        let guard = stream.try_clone().ok();
        let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = serve_connection(&shared, stream);
        }));
        if served.is_err() {
            if let Some(s) = guard {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
    }
    ServerMetrics::dec(&shared.metrics.active_connections);
}

/// Over the connection cap: consume the `Hello` (so the client is
/// already waiting on a reply), answer `overloaded`, close.
fn shed_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.cfg.handshake_timeout));
    let _ = read_frame(&mut stream, MAX_FRAME);
    let _ = send(
        &shared.metrics,
        &mut stream,
        &ServerMsg::Error {
            code: CODE_OVERLOADED.into(),
            message: "connection limit reached".into(),
            stats: None,
        },
    );
}

fn proto_error(message: impl Into<String>) -> ServerMsg {
    ServerMsg::Error {
        code: "protocol".into(),
        message: message.into(),
        stats: None,
    }
}

fn send(m: &ServerMetrics, stream: &mut TcpStream, msg: &ServerMsg) -> io::Result<()> {
    let payload = msg.encode();
    write_frame(stream, &payload)?;
    ServerMetrics::add(&m.bytes_streamed, payload.len() as u64);
    Ok(())
}

fn serve_connection(shared: &Arc<Shared>, mut stream: TcpStream) -> io::Result<()> {
    // Handshake, under a deadline so a silent client can't pin the slot.
    stream.set_read_timeout(Some(shared.cfg.handshake_timeout))?;
    let hello = match read_frame(&mut stream, MAX_FRAME) {
        Ok(Some(payload)) => payload,
        Ok(None) => return Ok(()),
        Err(e) => {
            // Oversized length header, mid-frame EOF, or a timeout: the
            // best-effort reply tells a confused-but-listening client
            // why it is being dropped.
            let _ = send(&shared.metrics, &mut stream, &proto_error(e.to_string()));
            return Ok(());
        }
    };
    match ClientMsg::decode(&hello) {
        Ok(ClientMsg::Hello { version, .. }) if version == PROTOCOL_VERSION => {
            send(
                &shared.metrics,
                &mut stream,
                &ServerMsg::HelloOk {
                    version: PROTOCOL_VERSION,
                },
            )?;
        }
        Ok(ClientMsg::Hello { version, .. }) => {
            let _ = send(
                &shared.metrics,
                &mut stream,
                &proto_error(format!(
                    "unsupported protocol version {version} (server speaks {PROTOCOL_VERSION})"
                )),
            );
            return Ok(());
        }
        Ok(_) | Err(_) => {
            let _ = send(
                &shared.metrics,
                &mut stream,
                &proto_error("handshake must begin with a well-formed Hello frame"),
            );
            return Ok(());
        }
    }
    stream.set_read_timeout(None)?;

    let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    let conn = Arc::new(ConnShared {
        stream: stream.try_clone()?,
        active: Mutex::new(None),
    });
    shared
        .conns
        .lock()
        .expect("conns lock poisoned")
        .insert(id, Arc::clone(&conn));
    let out = serve_session(shared, &conn, stream);
    shared
        .conns
        .lock()
        .expect("conns lock poisoned")
        .remove(&id);
    out
}

/// What the reader thread forwards to the worker. `Cancel` frames are
/// handled in the reader itself (that is the point of the split) and
/// never appear here.
enum Event {
    Msg(ClientMsg),
    /// A frame that would not decode; the worker answers and closes.
    Bad(String),
    /// EOF or socket error: the client is gone.
    Gone,
}

fn reader_loop(mut stream: TcpStream, conn: Arc<ConnShared>, tx: mpsc::Sender<Event>) {
    loop {
        match read_frame(&mut stream, MAX_FRAME) {
            Ok(Some(payload)) => match ClientMsg::decode(&payload) {
                Ok(ClientMsg::Cancel) => conn.cancel_active(),
                Ok(msg) => {
                    if tx.send(Event::Msg(msg)).is_err() {
                        return;
                    }
                }
                Err(e) => {
                    let _ = tx.send(Event::Bad(e.to_string()));
                    return;
                }
            },
            Ok(None) | Err(_) => {
                // A dropped connection cancels its in-flight query.
                conn.cancel_active();
                let _ = tx.send(Event::Gone);
                return;
            }
        }
    }
}

fn serve_session(
    shared: &Arc<Shared>,
    conn: &Arc<ConnShared>,
    mut stream: TcpStream,
) -> io::Result<()> {
    let (tx, rx) = mpsc::channel();
    let reader_stream = stream.try_clone()?;
    let reader_conn = Arc::clone(conn);
    let reader = thread::Builder::new()
        .name("mppd-read".into())
        .spawn(move || reader_loop(reader_stream, reader_conn, tx))?;

    let session = shared.ctx.session();
    let mut named: HashMap<String, PreparedStatement> = HashMap::new();

    while let Ok(event) = rx.recv() {
        let ok = match event {
            Event::Gone => break,
            Event::Bad(msg) => {
                let _ = send(&shared.metrics, &mut stream, &proto_error(msg));
                break;
            }
            Event::Msg(ClientMsg::Goodbye) => break,
            Event::Msg(ClientMsg::Hello { .. }) => {
                let _ = send(
                    &shared.metrics,
                    &mut stream,
                    &proto_error("duplicate Hello"),
                );
                break;
            }
            Event::Msg(ClientMsg::Shutdown) => {
                shared.request_stop();
                send(&shared.metrics, &mut stream, &ServerMsg::CloseOk)
            }
            Event::Msg(ClientMsg::Stats) => send(
                &shared.metrics,
                &mut stream,
                &ServerMsg::StatsReply {
                    metrics: shared.metrics.snapshot(),
                },
            ),
            Event::Msg(ClientMsg::Prepare { name, sql }) => match session.prepare(&sql) {
                Ok(ps) => {
                    let param_count = ps.param_count();
                    named.insert(name.clone(), ps);
                    send(
                        &shared.metrics,
                        &mut stream,
                        &ServerMsg::PrepareOk { name, param_count },
                    )
                }
                Err(e) => send(&shared.metrics, &mut stream, &engine_error(&e)),
            },
            Event::Msg(ClientMsg::ClosePrepared { name }) => {
                named.remove(&name);
                send(&shared.metrics, &mut stream, &ServerMsg::CloseOk)
            }
            Event::Msg(ClientMsg::Query { sql, params }) => run_query(
                shared,
                conn,
                &session,
                &mut stream,
                QueryKind::AdHoc(&sql),
                &params,
            ),
            Event::Msg(ClientMsg::Execute { name, params }) => match named.get(&name) {
                Some(ps) => run_query(
                    shared,
                    conn,
                    &session,
                    &mut stream,
                    QueryKind::Prepared(ps),
                    &params,
                ),
                None => send(
                    &shared.metrics,
                    &mut stream,
                    &ServerMsg::Error {
                        code: "unknown_prepared".into(),
                        message: format!("no prepared statement named {name:?}"),
                        stats: None,
                    },
                ),
            },
            // The reader intercepts Cancel; seeing one here means the
            // query it aimed at already finished. Ignore.
            Event::Msg(ClientMsg::Cancel) => Ok(()),
        };
        if ok.is_err() {
            break;
        }
    }

    let _ = stream.shutdown(Shutdown::Both);
    let _ = reader.join();
    Ok(())
}

fn engine_error(e: &Error) -> ServerMsg {
    ServerMsg::Error {
        code: e.kind().to_string(),
        message: e.to_string(),
        stats: None,
    }
}

enum QueryKind<'a> {
    AdHoc(&'a str),
    Prepared(&'a PreparedStatement),
}

/// Admission gate around [`stream_query`]. An `Err` means the socket is
/// broken and the connection should close; protocol-level failures are
/// `Ok` after an `Error` frame.
fn run_query(
    shared: &Arc<Shared>,
    conn: &Arc<ConnShared>,
    session: &Session,
    stream: &mut TcpStream,
    kind: QueryKind<'_>,
    params: &[Datum],
) -> io::Result<()> {
    let m = &shared.metrics;
    if shared.shutdown.load(Ordering::SeqCst) {
        return send(
            m,
            stream,
            &ServerMsg::Error {
                code: "shutting_down".into(),
                message: "server is shutting down".into(),
                stats: None,
            },
        );
    }
    ServerMetrics::inc(&m.queued_queries);
    let admitted = shared.admission.try_acquire(shared.cfg.admission_wait);
    ServerMetrics::dec(&m.queued_queries);
    if !admitted {
        ServerMetrics::inc(&m.shed_queries);
        return send(
            m,
            stream,
            &ServerMsg::Error {
                code: CODE_OVERLOADED.into(),
                message: format!(
                    "server is at its in-flight query limit ({})",
                    shared.cfg.max_inflight_queries
                ),
                stats: None,
            },
        );
    }
    ServerMetrics::inc(&m.queries_started);
    ServerMetrics::inc(&m.inflight_queries);
    let out = stream_query(shared, conn, session, stream, kind, params);
    ServerMetrics::dec(&m.inflight_queries);
    shared.admission.release();
    out
}

/// Re-chunking bounds for outgoing `DataBlock` frames: a frame carries
/// at most this many rows and stops growing once its estimated payload
/// passes the byte target — two orders of magnitude under `MAX_FRAME`,
/// whatever shape the executor's chunks have.
const DATA_BLOCK_MAX_ROWS: usize = 8192;
const DATA_BLOCK_TARGET_BYTES: usize = 1 << 20;

fn stream_query(
    shared: &Arc<Shared>,
    conn: &Arc<ConnShared>,
    session: &Session,
    stream: &mut TcpStream,
    kind: QueryKind<'_>,
    params: &[Datum],
) -> io::Result<()> {
    let m = &shared.metrics;
    let started = Instant::now();

    // Resolve the plan first, so the RowDescription precedes the first
    // DataBlock. Failures before execution carry no statistics.
    enum Run<'a> {
        /// Session streaming path (DDL: no row description).
        Ddl(mpp_sql::Statement),
        /// Cache-resolved plan plus whether the lookup hit.
        Plan(Arc<mppart::PreparedQuery>, bool),
        Prepared(&'a PreparedStatement),
    }
    let run = match kind {
        QueryKind::AdHoc(sql) => match session.resolve(sql) {
            Err(e) => {
                ServerMetrics::inc(&m.queries_err);
                return send(m, stream, &engine_error(&e));
            }
            Ok(Resolved::Ddl(stmt)) => Run::Ddl(stmt),
            Ok(Resolved::Plan(q, hit)) => {
                let columns = if q.is_explain() {
                    vec!["QUERY PLAN".to_string()]
                } else {
                    q.plan()
                        .output_cols()
                        .iter()
                        .map(|c| c.name.to_string())
                        .collect()
                };
                send(m, stream, &ServerMsg::RowDescription { columns })?;
                Run::Plan(q, hit)
            }
        },
        QueryKind::Prepared(ps) => {
            send(
                m,
                stream,
                &ServerMsg::RowDescription {
                    columns: ps.columns(),
                },
            )?;
            Run::Prepared(ps)
        }
    };

    let cancel = match shared.cfg.query_timeout {
        Some(t) => CancelToken::with_timeout(t),
        None => CancelToken::new(),
    };
    *conn.active.lock().expect("conn lock poisoned") = Some(cancel.clone());

    // Set by the sink: the server-side error code of a tripped row/byte
    // limit, and a failed socket write.
    let mut limit_hit: Option<&'static str> = None;
    let mut io_failure: Option<io::Error> = None;
    let mut rows_out = 0u64;
    let mut bytes_out = 0u64;
    let mut sink = |chunk: ResultChunk| -> mpp_common::Result<()> {
        let mut remaining = Vec::new();
        chunk.append_to(&mut remaining);
        // Executor chunks can be arbitrarily large (a join's whole
        // per-segment output may arrive as one block); re-chunk into
        // frames bounded by rows *and* bytes so no DataBlock ever
        // approaches MAX_FRAME.
        while !remaining.is_empty() {
            // One chunk can be many frames: honour a Cancel, timeout or
            // shutdown between them, not only at the next chunk.
            cancel.check()?;
            let mut take = 0usize;
            let mut est = 0usize;
            while take < remaining.len()
                && take < DATA_BLOCK_MAX_ROWS
                && est < DATA_BLOCK_TARGET_BYTES
            {
                est += crate::protocol::row_wire_size(&remaining[take]);
                take += 1;
            }
            let rest = remaining.split_off(take);
            let batch = std::mem::replace(&mut remaining, rest);
            rows_out += batch.len() as u64;
            if let Some(cap) = shared.cfg.max_rows_per_query {
                if rows_out > cap {
                    limit_hit = Some("limit_rows");
                    cancel.cancel();
                    return Err(Error::Cancelled(format!(
                        "result exceeded the per-query row limit ({cap})"
                    )));
                }
            }
            let nrows = batch.len() as u64;
            let frame = ServerMsg::DataBlock { rows: batch }.encode();
            bytes_out += frame.len() as u64;
            if let Some(cap) = shared.cfg.max_bytes_per_query {
                if bytes_out > cap {
                    limit_hit = Some("limit_bytes");
                    cancel.cancel();
                    return Err(Error::Cancelled(format!(
                        "result exceeded the per-query byte limit ({cap})"
                    )));
                }
            }
            ServerMetrics::inc(&m.chunks_emitted);
            // Blocks while the client is behind: back-pressure stalls the
            // executor with this one frame in hand.
            if let Err(e) = write_frame(stream, &frame) {
                cancel.cancel();
                io_failure = Some(e);
                return Err(Error::Cancelled("client connection lost".into()));
            }
            ServerMetrics::inc(&m.blocks_streamed);
            ServerMetrics::add(&m.rows_streamed, nrows);
            ServerMetrics::add(&m.bytes_streamed, frame.len() as u64);
        }
        Ok(())
    };
    // A panic in the executor must not take the connection (and its hung
    // client) down with it: degrade to an Error frame.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match run {
        Run::Ddl(stmt) => session.stream_ddl(&stmt, params, &cancel, &mut sink),
        Run::Plan(q, hit) => {
            let mut out = shared
                .ctx
                .db()
                .stream_prepared(&q, params, &cancel, &mut sink);
            out.cache = Some(shared.ctx.cache().info(hit));
            out
        }
        Run::Prepared(ps) => ps.execute_stream(params, &cancel, &mut sink),
    }))
    .unwrap_or_else(|_| StreamOutcome::failed(Error::Internal("query execution panicked".into())));

    *conn.active.lock().expect("conn lock poisoned") = None;

    if let Some(info) = &outcome.cache {
        ServerMetrics::inc(if info.hit {
            &m.cache_hits
        } else {
            &m.cache_misses
        });
    }

    if let Some(e) = io_failure {
        ServerMetrics::inc(&m.queries_err);
        return Err(e);
    }

    match outcome.result {
        Ok(()) => {
            ServerMetrics::inc(&m.queries_ok);
            m.record_latency(started.elapsed());
            send(
                m,
                stream,
                &ServerMsg::CommandComplete {
                    stats: outcome.stats,
                    cache: outcome.cache,
                },
            )
        }
        Err(e) => {
            let code = match limit_hit {
                Some(code) => code.to_string(),
                None if cancel.timed_out() => "timeout".to_string(),
                None => e.kind().to_string(),
            };
            ServerMetrics::inc(if code == "cancelled" {
                &m.queries_cancelled
            } else {
                &m.queries_err
            });
            m.record_latency(started.elapsed());
            send(
                m,
                stream,
                &ServerMsg::Error {
                    code,
                    message: e.to_string(),
                    stats: Some(outcome.stats),
                },
            )
        }
    }
}
