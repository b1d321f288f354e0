//! The end-to-end run: two closed-loop connections against an in-process
//! server on a loopback socket, no tracing code anywhere near the path.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mpp_server::{Client, Server, ServerConfig};
use mpp_session::SessionCtx;
use mppart::common::{Datum, Row};
use mppart::MppDb;

use crate::report::{Metric, Report};
use crate::stats;
use crate::workload::{Class, Script, Stmt, Workload};

pub const CONNECTIONS: usize = 2;
/// Load before the window opens: plan caches fill, threads and allocator
/// arenas settle.
const WARMUP: Duration = Duration::from_secs(5);
/// Client threads get this long to start before the warm-up begins.
const START_MARGIN: Duration = Duration::from_millis(50);
/// Set-up is repeated and its median reported, since one set-up is one
/// sample: at least `MIN_SETUPS` times, and on until `SETUP_BUDGET` has
/// been spent, so that a set-up of milliseconds is as steady as one of
/// seconds.
const MIN_SETUPS: usize = 3;
const SETUP_BUDGET: Duration = Duration::from_millis(1500);
/// The write probe of a read-only workload, after the window.
const PROBE_WARMUP: Duration = Duration::from_millis(500);
const PROBE_WINDOW: Duration = Duration::from_secs(2);
const PROBE_ROWS: i64 = 8;

/// A database with its server, configured exactly like `examples/mppd.rs`.
pub struct Stack {
    pub ctx: Arc<SessionCtx>,
    pub server: Server,
}

/// A loaded database behind a session context, as `mppd` builds it.
pub fn context(workload: &dyn Workload) -> Arc<SessionCtx> {
    let db = MppDb::new(4);
    workload.load(&db);
    SessionCtx::with_db(db, 256)
}

impl Stack {
    pub fn start(workload: &dyn Workload) -> Stack {
        let ctx = context(workload);
        let server = Server::start(Arc::clone(&ctx), "127.0.0.1:0", ServerConfig::default())
            .expect("bind a loopback port");
        Stack { ctx, server }
    }

    pub fn connect(&self) -> Client {
        Client::connect(self.server.local_addr()).expect("connect to the in-process server")
    }
}

/// What one load phase measured.
#[derive(Default)]
struct Phase {
    /// Verified statements whose reply completed inside the window.
    completed: u64,
    /// Their latencies in ns, by class.
    reads: Vec<u64>,
    writes: Vec<u64>,
    /// Every statement sent, warm-up included, and those that failed.
    attempted: u64,
    failed: u64,
    /// Share of the machine's CPU time the hypervisor gave to others.
    steal: f64,
    scripts: Vec<Box<dyn Script>>,
}

pub fn run(workload: &mut dyn Workload, window: Duration) -> Report {
    let mut setups = Vec::new();
    let mut stack: Option<Stack> = None;
    let setting_up = Instant::now();
    while setups.len() < MIN_SETUPS || setting_up.elapsed() < SETUP_BUDGET {
        // Stop the previous copy first: one database resident at a time.
        if let Some(old) = stack.take() {
            old.server.stop();
        }
        let t0 = Instant::now();
        stack = Some(Stack::start(workload));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let stack = stack.expect("MIN_SETUPS >= 1");
    workload.reference(stack.ctx.db());

    let scripts = (0..CONNECTIONS).map(|c| workload.client(c)).collect();
    let mut main = load(&stack, scripts, WARMUP, window);
    for script in &mut main.scripts {
        let post = script.finish(stack.ctx.db());
        main.attempted += post.attempted;
        main.failed += post.failed;
    }
    if main.writes.is_empty() {
        let probe = load(
            &stack,
            vec![Box::new(WriteProbe { sent: 0 })],
            PROBE_WARMUP,
            PROBE_WINDOW,
        );
        main.writes = probe.writes;
        main.attempted += probe.attempted;
        main.failed += probe.failed;
    }
    stack.server.stop();
    report(main, window, setups)
}

/// The metrics of a finished run.
fn report(mut main: Phase, window: Duration, setups: Vec<f64>) -> Report {
    main.reads.sort_unstable();
    main.writes.sort_unstable();
    let (reads, writes) = (&main.reads, &main.writes);

    let mut notes = vec![format!(
        "steal share of the warm-up and window {:.3}",
        main.steal
    )];
    // A percentile with fewer than ten samples beyond it is refused. A
    // loaded machine can halve a sample, and the program's replies were
    // still right, so the run stays correct: the metric falls back to the
    // plain nearest rank, and a note (kept in latest.json) says so. With
    // no samples at all it reads NaN, and that does fail the run.
    let mut latency = |name: &str, sorted: &[u64], p: f64| {
        let ns = stats::percentile(sorted, p).or_else(|| {
            notes.push(format!(
                "UNSUPPORTED {name}: {} samples, fewer than {} beyond p{p}",
                sorted.len(),
                stats::MIN_BEYOND
            ));
            stats::nearest_rank(sorted, p)
        });
        let us = ns.map_or(f64::NAN, |ns| ns as f64 / 1e3);
        Metric::new(name, "us", us, sorted.len())
    };
    let setups_made = setups.len();
    let metrics = vec![
        Metric::new("setup_s", "s", stats::median(setups), setups_made),
        Metric::new(
            "qps",
            "1/s",
            main.completed as f64 / window.as_secs_f64(),
            main.completed as usize,
        ),
        latency("lat_p50_us", reads, 50.0),
        latency("lat_p99_us", reads, 99.0),
        latency("write_lat_p50_us", writes, 50.0),
        Metric::new("peak_rss_mb", "MiB", stats::peak_rss_mb(), 1),
    ];
    // Unnamed in BENCHMARK.json: the write tail (it spreads more from run
    // to run than the largest bound the contract allows), the highest
    // percentile each sample supports, where that is beyond these, and
    // the share of failed statements (the result object has it as
    // `failed` over `attempted`).
    let mut extra = vec![latency("write_lat_p95_us", writes, 95.0)];
    if let Some(p) = stats::highest_supported(reads.len()).filter(|p| *p > 99.0) {
        extra.push(latency(&format!("lat_p{p}_us"), reads, p));
    }
    if let Some(p) = stats::highest_supported(writes.len()).filter(|p| *p > 95.0) {
        extra.push(latency(&format!("write_lat_p{p}_us"), writes, p));
    }
    let fail_share = main.failed as f64 / main.attempted.max(1) as f64;
    extra.push(Metric::new(
        "fail_share",
        "ratio",
        fail_share,
        main.attempted as usize,
    ));
    Report {
        metrics,
        extra,
        notes,
        attempted: main.attempted,
        failed: main.failed,
    }
}

/// What one connection measured: `(class, latency in ns)` of each
/// verified statement inside the window.
#[derive(Default)]
struct ConnOut {
    samples: Vec<(Class, u64)>,
    attempted: u64,
    failed: u64,
}

/// One load phase: a connection and a client thread per script, all
/// closed-loop, through `warmup` and then `window`.
fn load(stack: &Stack, scripts: Vec<Box<dyn Script>>, warmup: Duration, window: Duration) -> Phase {
    let warm_end = Instant::now() + START_MARGIN + warmup;
    let end = warm_end + window;
    let jiffies_before = stats::cpu_jiffies();
    let outs: Vec<(ConnOut, Box<dyn Script>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .into_iter()
            .map(|script| {
                let client = stack.connect();
                scope.spawn(move || drive(client, script, warm_end, end))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    let jiffies = stats::cpu_jiffies();
    let mut phase = Phase {
        steal: (jiffies.0 - jiffies_before.0) as f64 / (jiffies.1 - jiffies_before.1).max(1) as f64,
        ..Phase::default()
    };
    for (out, script) in outs {
        phase.attempted += out.attempted;
        phase.failed += out.failed;
        phase.completed += out.samples.len() as u64;
        for (class, ns) in out.samples {
            match class {
                Class::Read => phase.reads.push(ns),
                Class::Write => phase.writes.push(ns),
                Class::Ddl => {}
            }
        }
        phase.scripts.push(script);
    }
    phase
}

/// One closed-loop connection: the next statement goes out when the
/// previous reply is complete. A statement is measured when it starts
/// after the warm-up and its reply is complete before the window ends.
/// A failed statement contributes no sample.
fn drive(
    mut client: Client,
    mut script: Box<dyn Script>,
    warm_end: Instant,
    end: Instant,
) -> (ConnOut, Box<dyn Script>) {
    let mut out = ConnOut::default();
    while Instant::now() < end {
        let Some(stmt) = script.next() else { break };
        let t0 = Instant::now();
        let reply = client.query(&stmt.sql, &stmt.params);
        let t1 = Instant::now();
        let ok = match &reply {
            Ok(reply) => script.check(&stmt, &reply.rows),
            Err(e) => {
                let sql = &stmt.sql[..stmt.sql.len().min(120)];
                eprintln!("statement failed: {e}: {sql}");
                false
            }
        };
        out.attempted += 1;
        if !ok {
            out.failed += 1;
        } else if t0 >= warm_end && t1 < end {
            out.samples.push((stmt.class, (t1 - t0).as_nanos() as u64));
        }
    }
    let _ = client.goodbye();
    (out, script)
}

/// Write latency of a workload that sends no writes: after the window,
/// one connection alternates an 8-row `INSERT` into a scratch table and
/// the `DELETE` that empties it again (one connection, because two
/// writers contending for the catalog lock spread 15% where one spreads
/// 5%). It is the fixed cost of the DML path (parse, plan, route, append,
/// auto-analyze, epoch bump) beside this workload's catalog. It is here
/// because the builder's contract wants every end-to-end metric from
/// every workload, never 0; `run.sh --compare` does not gate on it.
struct WriteProbe {
    sent: i64,
}

impl Script for WriteProbe {
    fn next(&mut self) -> Option<Stmt> {
        let round = (self.sent - 1) / 2;
        let (sql, class) = if self.sent == 0 {
            let ddl = "CREATE TABLE wprobe (id int, day int, cust int, amt int) \
                       DISTRIBUTED BY (id) \
                       PARTITION BY RANGE (day) (START (0) END (8) EVERY (1))";
            (ddl.to_string(), Class::Ddl)
        } else if self.sent % 2 == 1 {
            let values: Vec<String> = (0..PROBE_ROWS)
                .map(|k| format!("({}, {k}, {}, {round})", round * PROBE_ROWS + k, k * 111))
                .collect();
            let insert = format!("INSERT INTO wprobe VALUES {}", values.join(", "));
            (insert, Class::Write)
        } else {
            let delete = format!("DELETE FROM wprobe WHERE amt = {round}");
            (delete, Class::Write)
        };
        self.sent += 1;
        Some(Stmt {
            sql,
            params: Vec::new(),
            class,
        })
    }

    fn check(&mut self, stmt: &Stmt, rows: &[Row]) -> bool {
        match stmt.class {
            Class::Write => rows.len() == 1 && rows[0].values() == [Datum::Int64(PROBE_ROWS)],
            _ => rows.is_empty(),
        }
    }
}
