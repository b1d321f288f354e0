//! The traced pass: where a client-seen microsecond goes, measured from
//! outside the program by timing calls into public functions.
//!
//! A fixed, seeded sample of the workload's statements is applied, one
//! statement at a time, to three identical copies of the database:
//!
//! * **A**, behind a server on a loopback socket: `Client::query` is the
//!   whole, and its reply carries the executor's counters;
//! * **B**, in process: `Session::sql_with_params` is the whole minus the
//!   wire;
//! * **C**, call by call through the public functions `Session` itself
//!   calls (`parse`, `normalize_sql`, `cached_prepare`, `bind`,
//!   `optimize`, `execute_prepared`): the parts.
//!
//! Each call is a span. A span's parent is the span it accounts for, so
//! the tree is logical: `wire.query` (A) ⊃ `session.sql` (B) ⊃ the calls
//! on C. Self time is duration minus the children's durations;
//! `trace.sum_vs_whole` adds the parts back up and divides by the whole.
//! Nothing here runs during the end-to-end measurement.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mpp_server::{ClientMsg, Reply, ServerMsg};
use mpp_session::{normalize_sql, SessionCtx};
use mppart::common::{Row, TableOid};
use mppart::executor::ExecutionStats;
use mppart::expr::ColRefGenerator;
use mppart::plan::{plan_node_count, plan_size_bytes, LogicalPlan, PhysicalPlan};
use mppart::{is_ddl, CacheInfo, ExecMode, MppDb, Planner};
use serde_json::{json, Value};

use crate::e2e::{context, Stack};
use crate::report::{Metric, Report};
use crate::stats::median;
use crate::workload::{rows_match, Class, Script, Stmt, Workload};

/// `trace.sum_vs_whole` outside this range fails the pass: the harness's
/// model of the statement path no longer matches the program.
pub const SUM_VS_WHOLE_RANGE: std::ops::RangeInclusive<f64> = 0.85..=1.15;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Statement id: position in the traced sample.
    pub stmt: u32,
    pub name: &'static str,
    /// Index of the span this one accounts for.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> i64 {
        self.end_ns as i64 - self.start_ns as i64
    }
}

/// In-memory span log; written out when the pass ends.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Time `f` as a span; returns its result and the span's index.
    pub fn span<T>(
        &mut self,
        stmt: u32,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            stmt,
            name,
            parent,
            start_ns,
            end_ns,
        });
        (out, self.spans.len() - 1)
    }
}

/// Self time of every span: its duration minus its children's durations.
/// Children are replays attached to the span they account for, so a
/// self time can come out slightly negative; it is kept signed so that
/// sums stay unbiased.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut own: Vec<i64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration_ns();
        }
    }
    own
}

/// A timing: the median of its samples (0 when the workload never
/// exercised it).
fn timing(name: &str, unit: &'static str, samples: Vec<f64>) -> Metric {
    let n = samples.len();
    Metric::new(name, unit, median(samples), n)
}

/// Encode and decode the request and every reply frame of a statement,
/// as the two ends of the socket do. Returns the reply's wire bytes.
struct Codec {
    request: ClientMsg,
    reply: Vec<ServerMsg>,
}

impl Codec {
    fn of(stmt: &Stmt, reply: &Reply) -> Codec {
        let mut frames = Vec::new();
        if !reply.columns.is_empty() {
            frames.push(ServerMsg::RowDescription {
                columns: reply.columns.clone(),
            });
        }
        if reply.data_blocks > 0 {
            let per_block = reply.rows.len().div_ceil(reply.data_blocks).max(1);
            for chunk in reply.rows.chunks(per_block) {
                frames.push(ServerMsg::DataBlock {
                    rows: chunk.to_vec(),
                });
            }
        }
        frames.push(ServerMsg::CommandComplete {
            stats: reply.stats.clone(),
            cache: reply.cache,
        });
        Codec {
            request: ClientMsg::Query {
                sql: stmt.sql.clone(),
                params: stmt.params.clone(),
            },
            reply: frames,
        }
    }

    fn roundtrip(&self) -> usize {
        let request = self.request.encode();
        black_box(ClientMsg::decode(&request).expect("request frame decodes"));
        let mut bytes = 0;
        for frame in &self.reply {
            let payload = frame.encode();
            // Length prefix of the frame.
            bytes += payload.len() + 4;
            black_box(ServerMsg::decode(&payload).expect("reply frame decodes"));
        }
        bytes
    }
}

fn partitioned_tables(plan: &PhysicalPlan, out: &mut HashSet<TableOid>) {
    if let PhysicalPlan::DynamicScan { table, .. } | PhysicalPlan::PartScan { table, .. } = plan {
        out.insert(*table);
    }
    for child in plan.children() {
        partitioned_tables(child, out);
    }
}

fn relation_count(plan: &LogicalPlan) -> usize {
    let own = usize::from(matches!(plan, LogicalPlan::Get { .. }));
    own + plan
        .children()
        .into_iter()
        .map(relation_count)
        .sum::<usize>()
}

/// What replaying the sample on the three copies recorded.
#[derive(Default)]
struct Pass {
    spans: Vec<Span>,
    /// Indices of the `core.optimize` spans, by relations joined.
    optimize_by_relations: HashMap<usize, Vec<usize>>,
    attempted: u64,
    failed: u64,
    // Counters summed over the sample.
    statements: usize,
    writes: usize,
    reply_bytes: usize,
    data_blocks: usize,
    stats: ExecutionStats,
    parts_scanned: usize,
    leaves_referenced: usize,
    plan_nodes: usize,
    plan_bytes: usize,
    cache: Option<CacheInfo>,
    epoch_bumps: u64,
    shed_queries: u64,
    queries_err: u64,
}

pub fn run(workload: &mut dyn Workload, name: &str, out_dir: &Path) -> Report {
    let a = Stack::start(workload);
    let b = context(workload);
    let c = context(workload);
    workload.reference(a.ctx.db());
    let mut pass = replay(workload.traced(), &a, &b, &c);
    a.server.stop();

    let own = self_times(&pass.spans);
    let mut metrics = timings(&pass, &own);
    metrics.extend(storage_probes(c.db(), workload));

    // The parts, summed back up: everything under `wire.query` except
    // `session.sql`'s own (unexplained) self time.
    let mut share_ns: HashMap<&'static str, i64> = HashMap::new();
    for (s, own) in pass.spans.iter().zip(&own) {
        if !s.name.starts_with("replay.") {
            *share_ns.entry(s.name).or_default() += own;
        }
    }
    let whole_ns = pass
        .spans
        .iter()
        .filter(|s| s.name == "wire.query")
        .map(Span::duration_ns)
        .sum::<i64>()
        .max(1);
    let parts_ns: i64 = share_ns
        .iter()
        .filter(|(name, _)| **name != "session.sql")
        .map(|(_, ns)| ns)
        .sum();
    let sum_vs_whole = parts_ns as f64 / whole_ns as f64;
    pass.attempted += 1;
    if !SUM_VS_WHOLE_RANGE.contains(&sum_vs_whole) {
        eprintln!("trace.sum_vs_whole {sum_vs_whole:.3} is outside {SUM_VS_WHOLE_RANGE:?}");
        pass.failed += 1;
    }
    let mut shares: Vec<(&'static str, f64)> = share_ns
        .into_iter()
        .map(|(name, ns)| (name, ns as f64 / whole_ns as f64))
        .collect();
    shares.sort_by(|x, y| y.1.total_cmp(&x.1));

    metrics.extend(counters(&pass));
    metrics.push(Metric::new(
        "trace.sum_vs_whole",
        "ratio",
        sum_vs_whole,
        pass.statements,
    ));
    write_trace(out_dir, name, &pass.spans, &own, &metrics, &shares);
    Report {
        metrics,
        extra: Vec::new(),
        notes: shares
            .iter()
            .map(|(span, share)| format!("share_of_latency {span} {share:.4}"))
            .collect(),
        attempted: pass.attempted,
        failed: pass.failed,
    }
}

/// Apply every statement of the sample to A, B and C, one span per call.
fn replay(
    mut script: Box<dyn Script>,
    a: &Stack,
    b: &Arc<SessionCtx>,
    c: &Arc<SessionCtx>,
) -> Pass {
    let mut client = a.connect();
    let session_b = b.session();
    let session_c = c.session();
    let db_c = c.db();
    let gen = ColRefGenerator::new();

    let mut pass = Pass::default();
    let mut rec = Recorder::new();
    let mut planned: HashSet<String> = HashSet::new();
    let epoch_before = a.ctx.db().planning_epoch();

    let mut sid = 0u32;
    while let Some(stmt) = script.next() {
        let (sql, params) = (stmt.sql.as_str(), stmt.params.as_slice());
        pass.attempted += 1;
        pass.statements += 1;
        pass.writes += usize::from(stmt.class != Class::Read);

        // A: the whole.
        let (reply, whole) = rec.span(sid, "wire.query", None, || client.query(sql, params));
        let reply = match reply {
            Ok(reply) if script.check(&stmt, &reply.rows) => reply,
            other => {
                eprintln!("traced statement {sid} failed: {:?}", other.err());
                pass.failed += 1;
                sid += 1;
                continue;
            }
        };
        let codec = Codec::of(&stmt, &reply);
        let (bytes, _) = rec.span(sid, "server.codec", Some(whole), || codec.roundtrip());
        pass.reply_bytes += bytes;
        pass.data_blocks += reply.data_blocks;
        pass.parts_scanned += reply.stats.total_parts_scanned();
        pass.stats.tuples_scanned += reply.stats.tuples_scanned;
        pass.stats.selector_runs += reply.stats.selector_runs;
        pass.stats.rows_moved += reply.stats.rows_moved;
        pass.stats.motions += reply.stats.motions;
        pass.stats.blocks_produced += reply.stats.blocks_produced;
        pass.stats.rows_vectorized += reply.stats.rows_vectorized;
        pass.stats.rows_row_fallback += reply.stats.rows_row_fallback;
        pass.cache = reply.cache.or(pass.cache);

        // B: the whole minus the wire.
        let (out_b, sess) = rec.span(sid, "session.sql", Some(whole), || {
            session_b.sql_with_params(sql, params)
        });
        let rows_b = out_b.map(|o| o.rows).unwrap_or_default();

        // C: the parts, in the order Session runs them.
        let (ast, _) = rec.span(sid, "sql.parse", Some(sess), || mppart::sql::parse(sql));
        let ast = ast.expect("statement parsed on A and B");
        let rows_c = if is_ddl(&ast) {
            let (out, _) = rec.span(sid, "catalog.ddl", Some(sess), || {
                db_c.run_sql(sql, params, Planner::Orca)
            });
            rec.span(sid, "session.cache_sweep", Some(sess), || {
                c.cache().sweep(db_c.planning_epoch())
            });
            out.map(|o| o.rows).unwrap_or_default()
        } else {
            let (prepared, cp) = rec.span(sid, "session.cached_prepare", Some(sess), || {
                session_c.cached_prepare(sql)
            });
            let (q, hit) = prepared.expect("statement planned on A and B");
            let (normalized, _) =
                rec.span(sid, "session.normalize", Some(cp), || normalize_sql(sql));
            if !hit {
                // What `cached_prepare` just did inside, replayed call by call.
                let (ast, _) = rec.span(sid, "sql.parse", Some(cp), || mppart::sql::parse(sql));
                let ast = ast.expect("parsed above");
                let (bound, _) = rec.span(sid, "sql.bind", Some(cp), || {
                    mppart::sql::bind(&ast, db_c.catalog(), &gen)
                });
                let bound = bound.expect("statement bound inside cached_prepare");
                let (plan, opt) = rec.span(sid, "core.optimize", Some(cp), || {
                    db_c.optimizer().optimize(&bound.plan)
                });
                black_box(plan.expect("statement optimized inside cached_prepare"));
                pass.optimize_by_relations
                    .entry(relation_count(&bound.plan))
                    .or_default()
                    .push(opt);
                if planned.insert(normalized.expect("normalized inside cached_prepare")) {
                    pass.plan_nodes += plan_node_count(q.plan());
                    pass.plan_bytes += plan_size_bytes(q.plan());
                }
            }
            let mut tables = HashSet::new();
            partitioned_tables(q.plan(), &mut tables);
            for t in tables {
                pass.leaves_referenced += db_c.catalog().table(t).map_or(0, |d| d.num_leaves());
            }
            let exec_name = if hit {
                "executor.exec"
            } else {
                "executor.first_exec"
            };
            let (out, _) = rec.span(sid, exec_name, Some(sess), || {
                db_c.execute_prepared(&q, params)
            });
            if stmt.class == Class::Read {
                // Outside the tree: steady-state and parallel replays.
                if !hit {
                    rec.span(sid, "replay.exec", None, || {
                        black_box(db_c.execute_prepared(&q, params)).is_ok()
                    });
                }
                rec.span(sid, "replay.par_exec", None, || {
                    black_box(q.prepared_plan().execute_engine_sched(
                        db_c.storage(),
                        params,
                        ExecMode::Parallel,
                        db_c.exec_engine(),
                        &db_c.sched_config(),
                    ))
                    .is_ok()
                });
            }
            out.map(|o| o.rows).unwrap_or_default()
        };
        // The three copies must agree (any `LIMIT` subset is an answer).
        let mut agree = |rows: &[Row]| {
            rows_match(rows, &reply.rows) || (sql.contains(" LIMIT ") && script.check(&stmt, rows))
        };
        pass.attempted += 2;
        pass.failed += u64::from(!agree(&rows_b)) + u64::from(!agree(&rows_c));
        sid += 1;
    }

    let epoch_after = a.ctx.db().planning_epoch();
    pass.epoch_bumps = (epoch_after.0 - epoch_before.0) + (epoch_after.1 - epoch_before.1);
    let server = client.server_stats().expect("Stats frame");
    pass.shed_queries = server.shed_queries;
    pass.queries_err = server.queries_err;
    let post = script.finish(a.ctx.db());
    pass.attempted += post.attempted;
    pass.failed += post.failed;
    let _ = client.goodbye();
    pass.spans = rec.spans;
    pass
}

fn us(ns: i64) -> f64 {
    ns as f64 / 1e3
}

/// Median duration (or self time) of each kind of span.
fn timings(pass: &Pass, own: &[i64]) -> Vec<Metric> {
    let durations = |names: &[&str]| -> Vec<f64> {
        let of_name = pass.spans.iter().filter(|s| names.contains(&s.name));
        of_name.map(|s| us(s.duration_ns())).collect()
    };
    let selfs = |name: &str| -> Vec<f64> {
        let of_name = pass.spans.iter().zip(own).filter(|(s, _)| s.name == name);
        of_name.map(|(_, own)| us(*own)).collect()
    };
    let timing = |name: &str, samples| timing(name, "us", samples);
    let mut metrics = vec![
        timing("server.codec_us", durations(&["server.codec"])),
        timing("server.wire_overhead_us", selfs("wire.query")),
        timing("session.normalize_us", durations(&["session.normalize"])),
        timing("session.cache_lookup_us", selfs("session.cached_prepare")),
        timing("sql.parse_us", durations(&["sql.parse"])),
        timing("sql.bind_us", durations(&["sql.bind"])),
        timing("core.optimize_us", durations(&["core.optimize"])),
    ];
    for relations in [1, 3, 4, 6] {
        let spans = pass.optimize_by_relations.get(&relations);
        let samples = spans.map_or(Vec::new(), |ids| {
            ids.iter()
                .map(|&i| us(pass.spans[i].duration_ns()))
                .collect()
        });
        metrics.push(timing(&format!("core.optimize_us.r{relations}"), samples));
    }
    metrics.extend([
        timing(
            "executor.first_exec_us",
            durations(&["executor.first_exec"]),
        ),
        timing(
            "executor.exec_us",
            durations(&["executor.exec", "replay.exec"]),
        ),
        timing("executor.par_exec_us", durations(&["replay.par_exec"])),
    ]);
    metrics
}

/// Storage calls on the workload's largest table, on a copy whose other
/// work is done.
fn storage_probes(db: &MppDb, workload: &dyn Workload) -> Vec<Metric> {
    let storage = db.storage();
    let table = db
        .catalog()
        .table_by_name(workload.largest_table())
        .expect("largest table exists")
        .oid;
    let phys = storage.physical_tables(table).expect("physical tables");
    let scan = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            let mut rows = 0usize;
            for seg in storage.segments() {
                for (_, block) in storage.scan_batch_blocks(phys.iter().copied(), seg) {
                    rows += block.map_or(0, |b| b.len());
                }
            }
            us(t0.elapsed().as_nanos() as i64) / (black_box(rows).max(1) as f64 / 1e6)
        })
        .collect();
    let insert = (0..5)
        .map(|_| {
            let rows = workload.probe_rows(1_000);
            let t0 = Instant::now();
            storage.insert(table, rows).expect("probe rows route");
            us(t0.elapsed().as_nanos() as i64)
        })
        .collect();
    let analyze = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let stats = storage.analyze(table).expect("analyze");
            us(t0.elapsed().as_nanos() as i64) / (stats.row_count.max(1) as f64 / 1e6)
        })
        .collect();
    vec![
        timing("storage.scan_us_per_mrow", "us/Mrow", scan),
        timing("storage.insert_us_per_krow", "us/krow", insert),
        timing("storage.analyze_us_per_mrow", "us/Mrow", analyze),
    ]
}

/// Counts over the sample, from copy A's replies and Stats frame.
fn counters(pass: &Pass) -> Vec<Metric> {
    let ratio = |num: u64, den: u64| {
        if den > 0 {
            num as f64 / den as f64
        } else {
            0.0
        }
    };
    let total = |name: &str, unit, value: f64| Metric::new(name, unit, value, pass.statements);
    let count = |name: &str, value: u64| total(name, "count", value as f64);
    let st = &pass.stats;
    let cache = pass
        .cache
        .expect("a planned statement reports cache counters");
    vec![
        total("server.reply_bytes", "bytes", pass.reply_bytes as f64),
        count("server.data_blocks", pass.data_blocks as u64),
        count("server.shed_queries", pass.shed_queries),
        count("server.queries_err", pass.queries_err),
        total(
            "session.cache_hit_ratio",
            "ratio",
            ratio(cache.hits, cache.hits + cache.misses),
        ),
        count("session.cache_evictions", cache.evictions),
        count("session.cache_invalidations", cache.invalidations),
        count("core.plan_nodes", pass.plan_nodes as u64),
        total("core.plan_bytes", "bytes", pass.plan_bytes as f64),
        count("executor.tuples_scanned", st.tuples_scanned),
        count("executor.parts_scanned", pass.parts_scanned as u64),
        total(
            "executor.part_elim_ratio",
            "ratio",
            1.0 - ratio(pass.parts_scanned as u64, pass.leaves_referenced as u64),
        ),
        count("executor.selector_runs", st.selector_runs),
        count("executor.rows_moved", st.rows_moved),
        count("executor.motions", st.motions),
        count("executor.blocks_produced", st.blocks_produced),
        total(
            "executor.vectorized_share",
            "ratio",
            ratio(
                st.rows_vectorized,
                st.rows_vectorized + st.rows_row_fallback,
            ),
        ),
        total(
            "catalog.epoch_bumps_per_write",
            "1/write",
            ratio(pass.epoch_bumps, pass.writes as u64),
        ),
    ]
}

/// `trace_<workload>.json`: every span, flat, with its self time.
fn write_trace(
    out_dir: &Path,
    name: &str,
    spans: &[Span],
    own: &[i64],
    metrics: &[Metric],
    shares: &[(&'static str, f64)],
) {
    let span_rows: Vec<Value> = spans
        .iter()
        .zip(own)
        .enumerate()
        .map(|(id, (s, own))| {
            json!({
                "id": id,
                "stmt": s.stmt,
                "name": s.name,
                "parent": s.parent.map_or(Value::Null, Value::from),
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "self_ns": *own,
            })
        })
        .collect();
    let metric_rows: Vec<Value> = metrics
        .iter()
        .map(|m| json!({"name": m.name.as_str(), "value": m.value, "unit": m.unit, "samples": m.samples}))
        .collect();
    let share_rows: Vec<Value> = shares
        .iter()
        .map(|(name, share)| json!({"span": *name, "share_of_whole": *share}))
        .collect();
    let doc = json!({
        "workload": name,
        "metrics": metric_rows,
        "shares": share_rows,
        "spans": span_rows,
    });
    let path = out_dir.join(format!("trace_{name}.json"));
    if let Err(e) =
        std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, doc.to_string()))
    {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            stmt: 0,
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // whole 0..1000 ⊃ codec 1000..1100 (a replay, outside the interval)
        //              ⊃ session 2000..2600 ⊃ parse 3000..3050, exec 3100..3500
        let spans = vec![
            span("wire.query", None, 0, 1_000),
            span("server.codec", Some(0), 1_000, 1_100),
            span("session.sql", Some(0), 2_000, 2_600),
            span("sql.parse", Some(2), 3_000, 3_050),
            span("executor.exec", Some(2), 3_100, 3_500),
            span("replay.exec", None, 4_000, 4_300),
        ];
        assert_eq!(self_times(&spans), vec![300, 100, 150, 50, 400, 300]);
        // The parts under the root add back up to the whole.
        let own = self_times(&spans);
        assert_eq!(own[..5].iter().sum::<i64>(), 1_000);
    }

    #[test]
    fn self_time_may_go_negative_when_replays_run_long() {
        let spans = vec![span("a", None, 0, 100), span("b", Some(0), 200, 350)];
        assert_eq!(self_times(&spans), vec![-50, 150]);
    }

    #[test]
    fn recorder_nests_by_index() {
        let mut rec = Recorder::new();
        let ((), root) = rec.span(7, "root", None, || ());
        let (x, child) = rec.span(7, "child", Some(root), || 42);
        assert_eq!((x, root, child), (42, 0, 1));
        assert_eq!(rec.spans[1].parent, Some(0));
        assert!(rec.spans[1].start_ns >= rec.spans[0].end_ns);
    }
}
