//! # mpp-session — sessions, prepared statements and the plan cache
//!
//! [`mppart::MppDb`] answers one statement at a time; this crate turns
//! it into something N clients can share:
//!
//! * [`SessionCtx`] — the process-wide context: one `MppDb` plus one
//!   [`PlanCache`], behind an `Arc`. `MppDb` is `Send + Sync` (checked
//!   at compile time below), so sessions run concurrently from any
//!   thread.
//! * [`Session`] — a lightweight per-client handle. Its [`Session::sql`]
//!   is a drop-in for `MppDb::sql`, except statements transparently hit
//!   the shared plan cache: parse/bind/optimize are paid once per
//!   distinct (normalized text, planner) pair, process-wide.
//! * [`Session::prepare`] → [`PreparedStatement`] — the explicit
//!   compile-once/execute-many handle. Parameters are bound per
//!   execution; partition OIDs are re-resolved by the plan's
//!   `PartitionSelector`s each time (paper §4.1), so `$n`-driven
//!   partition elimination stays exact under every binding.
//!
//! Staleness is governed by the catalog's monotonic version: every DDL
//! bumps it, cached plans record the version they were optimized
//! against, and any version mismatch re-plans instead of serving stale
//! metadata. A `PreparedStatement` re-prepares itself transparently;
//! cache entries are invalidated on lookup and swept after DDL.
//! Executions already in flight on an invalidated plan are safe: the
//! `Arc` keeps their plan alive, and rows of partitions dropped
//! mid-flight are gone from storage, so they are simply not produced.

mod cache;
mod normalize;

pub use cache::{CacheKey, PlanCache, DEFAULT_CACHE_CAPACITY};
pub use normalize::normalize_sql;

use mpp_common::{Datum, Result};
use mpp_sql::Statement;
use mppart::{
    is_ddl, CancelToken, MppDb, Planner, PreparedQuery, QueryOutcome, ResultChunk, RowSink,
    StreamOutcome,
};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// The whole design rests on sharing one database between threads; make
// the compiler prove it instead of a doc comment promising it.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MppDb>();
    assert_send_sync::<SessionCtx>();
    assert_send_sync::<Session>();
    assert_send_sync::<PreparedStatement>();
};

/// The shared, process-wide state behind every session: the database
/// and the plan cache.
pub struct SessionCtx {
    db: MppDb,
    cache: PlanCache,
}

impl SessionCtx {
    /// A context over a fresh database with the given segment count and
    /// the default plan-cache capacity.
    pub fn new(num_segments: usize) -> Arc<SessionCtx> {
        SessionCtx::with_db(MppDb::new(num_segments), DEFAULT_CACHE_CAPACITY)
    }

    /// Wrap an existing database (any scheduler / optimizer config) with
    /// a plan cache of `cache_capacity` entries (0 disables caching).
    pub fn with_db(db: MppDb, cache_capacity: usize) -> Arc<SessionCtx> {
        Arc::new(SessionCtx {
            db,
            cache: PlanCache::new(cache_capacity),
        })
    }

    pub fn db(&self) -> &MppDb {
        &self.db
    }

    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Open a session. Cheap: a refcount bump and two counters.
    pub fn session(self: &Arc<Self>) -> Session {
        Session {
            ctx: Arc::clone(self),
            planner: Planner::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

/// Per-session cache counters (the process-wide ones live on
/// [`PlanCache`] and are reported in every outcome's `CacheInfo`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    pub hits: u64,
    pub misses: u64,
}

/// How a statement will run, as [`Session::resolve`] decides it.
pub enum Resolved {
    /// DDL or ANALYZE, parsed: run it with [`Session::stream_ddl`].
    Ddl(Statement),
    /// A plan from the cache, and whether the lookup hit.
    Plan(Arc<PreparedQuery>, bool),
}

/// One client's handle on a [`SessionCtx`]. All methods take `&self`;
/// open as many sessions as you have threads.
pub struct Session {
    ctx: Arc<SessionCtx>,
    planner: Planner,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Session {
    /// Route this session's statements through the given planner flavor
    /// (cache keys include it, so both flavors can be cached at once).
    pub fn with_planner(mut self, planner: Planner) -> Session {
        self.planner = planner;
        self
    }

    pub fn planner(&self) -> Planner {
        self.planner
    }

    pub fn ctx(&self) -> &Arc<SessionCtx> {
        &self.ctx
    }

    /// This session's own hit/miss counts.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Run a statement, reusing a cached plan when one is current.
    pub fn sql(&self, text: &str) -> Result<QueryOutcome> {
        self.sql_with_params(text, &[])
    }

    /// [`Session::sql`] with `$n` parameters bound. The cache key is the
    /// *normalized* text, so casing/whitespace/comment variants of one
    /// statement share a single cached plan. This is
    /// [`Session::sql_stream_with_params`] with a sink that collects.
    pub fn sql_with_params(&self, text: &str, params: &[Datum]) -> Result<QueryOutcome> {
        let mut rows = Vec::new();
        let mut sink = |chunk: ResultChunk| {
            chunk.append_to(&mut rows);
            Ok(())
        };
        self.sql_stream_with_params(text, params, &CancelToken::new(), &mut sink)
            .collected(rows)
    }

    /// Streaming [`Session::sql_with_params`]: result chunks flow through
    /// `sink` as segments finish, `cancel` stops execution at the next
    /// block boundary, and partial statistics survive errors. The text is
    /// parsed once.
    pub fn sql_stream_with_params(
        &self,
        text: &str,
        params: &[Datum],
        cancel: &CancelToken,
        sink: &mut RowSink<'_>,
    ) -> StreamOutcome {
        match self.resolve(text) {
            Ok(Resolved::Ddl(stmt)) => self.stream_ddl(&stmt, params, cancel, sink),
            Ok(Resolved::Plan(q, hit)) => {
                let mut out = self.ctx.db().stream_prepared(&q, params, cancel, sink);
                out.cache = Some(self.ctx.cache.info(hit));
                out
            }
            Err(e) => StreamOutcome::failed(e),
        }
    }

    /// Decide how `text` runs, before it runs — so a streaming front end
    /// (the network server) can announce the result's row description
    /// first. The text is parsed here, once: the statement tells DDL apart
    /// and, on a plan-cache miss, is what gets planned.
    pub fn resolve(&self, text: &str) -> Result<Resolved> {
        let stmt = mpp_sql::parse(text)?;
        if is_ddl(&stmt) {
            return Ok(Resolved::Ddl(stmt));
        }
        self.cached_prepare_or(text, |db| db.prepare_parsed(&stmt, self.planner))
            .map(|(q, hit)| Resolved::Plan(q, hit))
    }

    /// Run a statement [`Session::resolve`] found to be DDL (or ANALYZE,
    /// which rides the DDL path). It never caches; it can move the
    /// planning epoch, so the plans that epoch just obsoleted are swept.
    pub fn stream_ddl(
        &self,
        stmt: &Statement,
        params: &[Datum],
        cancel: &CancelToken,
        sink: &mut RowSink<'_>,
    ) -> StreamOutcome {
        let db = self.ctx.db();
        let mut out = db.stream_parsed(stmt, params, self.planner, cancel, sink);
        if out.result.is_ok() {
            self.ctx.cache.sweep(db.planning_epoch());
        }
        out.cache = Some(self.ctx.cache.info(false));
        out
    }

    /// The plan-cache lookup for a statement known not to be DDL, from its
    /// text alone (a miss parses it). Counts a per-session hit or miss; the
    /// returned flag says which.
    pub fn cached_prepare(&self, text: &str) -> Result<(Arc<PreparedQuery>, bool)> {
        self.cached_prepare_or(text, |db| db.prepare_with(text, self.planner))
    }

    /// The lookup itself; `prepare` plans the statement on a miss (from
    /// the text, or from the `Statement` [`Session::resolve`] parsed).
    fn cached_prepare_or(
        &self,
        text: &str,
        prepare: impl FnOnce(&MppDb) -> Result<PreparedQuery>,
    ) -> Result<(Arc<PreparedQuery>, bool)> {
        let db = self.ctx.db();
        let key = CacheKey {
            sql: normalize_sql(text)?,
            planner: self.planner,
        };
        let epoch = db.planning_epoch();
        match self.ctx.cache.lookup(&key, epoch) {
            Some(q) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Ok((q, true))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let q = Arc::new(prepare(db)?);
                self.ctx.cache.insert(key, Arc::clone(&q));
                Ok((q, false))
            }
        }
    }

    /// Prepare a statement for repeated execution. Unlike the implicit
    /// cache, the returned handle pins its plan — no eviction can take
    /// it — but it still re-prepares itself if DDL moves the catalog.
    pub fn prepare(&self, text: &str) -> Result<PreparedStatement> {
        let q = self.ctx.db().prepare_with(text, self.planner)?;
        Ok(PreparedStatement {
            ctx: Arc::clone(&self.ctx),
            text: text.to_string(),
            planner: self.planner,
            slot: RwLock::new(Arc::new(q)),
        })
    }
}

/// A statement prepared once and executed many times, with staleness
/// handled for you: each [`PreparedStatement::execute`] checks the
/// catalog version and transparently re-prepares after DDL, so it never
/// runs a plan against metadata that no longer exists.
pub struct PreparedStatement {
    ctx: Arc<SessionCtx>,
    text: String,
    planner: Planner,
    slot: RwLock<Arc<PreparedQuery>>,
}

impl PreparedStatement {
    /// Execute with this call's parameter bindings (arity-checked
    /// exactly). Partition OIDs are re-resolved per execution, and the
    /// plan's compiled-expression templates are reused across calls.
    pub fn execute(&self, params: &[Datum]) -> Result<QueryOutcome> {
        let (q, hit) = self.current()?;
        let mut out = self.ctx.db().execute_prepared(&q, params)?;
        out.cache = Some(self.ctx.cache().info(hit));
        Ok(out)
    }

    /// Streaming [`PreparedStatement::execute`]: same transparent
    /// re-prepare on catalog change, but result chunks flow through
    /// `sink` and `cancel` stops execution at the next block boundary.
    pub fn execute_stream(
        &self,
        params: &[Datum],
        cancel: &CancelToken,
        sink: &mut RowSink<'_>,
    ) -> StreamOutcome {
        let (q, hit) = match self.current() {
            Ok(pair) => pair,
            Err(e) => return StreamOutcome::failed(e),
        };
        let mut out = self.ctx.db().stream_prepared(&q, params, cancel, sink);
        out.cache = Some(self.ctx.cache().info(hit));
        out
    }

    /// The statement's current plan, re-prepared if DDL or ANALYZE has
    /// obsoleted it. The flag reports whether the cached plan was still
    /// valid.
    fn current(&self) -> Result<(Arc<PreparedQuery>, bool)> {
        let db = self.ctx.db();
        let current = db.planning_epoch();
        let cached = {
            let g = self.slot.read();
            (g.epoch() == current).then(|| Arc::clone(&g))
        };
        match cached {
            Some(q) => Ok((q, true)),
            None => {
                let fresh = Arc::new(db.prepare_with(&self.text, self.planner)?);
                *self.slot.write() = Arc::clone(&fresh);
                Ok((fresh, false))
            }
        }
    }

    /// Exact number of `$n` parameters every execution must supply.
    pub fn param_count(&self) -> u32 {
        self.slot.read().param_count()
    }

    /// Output column names of the current plan (`["QUERY PLAN"]` for an
    /// `EXPLAIN`). Read from the plan as currently prepared; a DDL that
    /// races between this call and the next execution re-prepares the
    /// plan, which can change the answer.
    pub fn columns(&self) -> Vec<String> {
        let q = self.slot.read();
        if q.is_explain() {
            vec!["QUERY PLAN".to_string()]
        } else {
            q.plan()
                .output_cols()
                .iter()
                .map(|c| c.name.to_string())
                .collect()
        }
    }

    pub fn planner(&self) -> Planner {
        self.planner
    }

    pub fn sql_text(&self) -> &str {
        &self.text
    }

    /// The catalog version the current plan was optimized against.
    pub fn catalog_version(&self) -> u64 {
        self.slot.read().catalog_version()
    }

    /// The statistics version the current plan was costed against.
    pub fn stats_version(&self) -> u64 {
        self.slot.read().stats_version()
    }

    /// Compiled expression sites of the current plan (stable across
    /// executions — the signature of template reuse).
    pub fn compiled_sites(&self) -> usize {
        self.slot.read().compiled_sites()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpp_workloads::{setup_rs, SynthConfig};

    fn ctx() -> Arc<SessionCtx> {
        let ctx = SessionCtx::new(2);
        setup_rs(ctx.db().storage(), &SynthConfig::default()).unwrap();
        ctx
    }

    #[test]
    fn adhoc_sql_hits_the_shared_cache() {
        let ctx = ctx();
        let s1 = ctx.session();
        let s2 = ctx.session();
        let a = s1.sql("SELECT count(*) FROM r WHERE b < 100").unwrap();
        assert!(!a.cache.unwrap().hit);
        // Different session, different spelling — same cached plan.
        let b = s2.sql("select COUNT(*) from R where b < 100;").unwrap();
        let info = b.cache.unwrap();
        assert!(info.hit);
        assert_eq!(a.rows, b.rows);
        assert!(Arc::ptr_eq(&a.plan, &b.plan), "cached plan must be shared");
        assert_eq!((info.hits, info.misses), (1, 1));
        assert_eq!(s1.stats(), SessionStats { hits: 0, misses: 1 });
        assert_eq!(s2.stats(), SessionStats { hits: 1, misses: 0 });
    }

    #[test]
    fn params_share_one_cached_plan() {
        let ctx = ctx();
        let s = ctx.session();
        for v in [3, 7, 3] {
            let out = s
                .sql_with_params("SELECT * FROM r WHERE b = $1", &[Datum::Int32(v)])
                .unwrap();
            let fresh = ctx
                .db()
                .sql_with_params("SELECT * FROM r WHERE b = $1", &[Datum::Int32(v)])
                .unwrap();
            assert_eq!(out.rows, fresh.rows, "v={v}");
        }
        assert_eq!(s.stats(), SessionStats { hits: 2, misses: 1 });
        assert_eq!(ctx.cache().len(), 1);
    }

    #[test]
    fn planner_flavors_cache_separately() {
        let ctx = ctx();
        let orca = ctx.session();
        let legacy = ctx.session().with_planner(Planner::Legacy);
        let q = "SELECT count(*) FROM r WHERE b < 50";
        let a = orca.sql(q).unwrap();
        let b = legacy.sql(q).unwrap();
        assert_eq!(a.rows, b.rows);
        assert!(!b.cache.unwrap().hit, "legacy must not reuse the Orca plan");
        assert_eq!(ctx.cache().len(), 2);
    }

    #[test]
    fn prepared_statement_reprepares_after_ddl() {
        let ctx = ctx();
        let s = ctx.session();
        let q = s.prepare("SELECT count(*) FROM r WHERE b < $1").unwrap();
        let v0 = q.catalog_version();
        q.execute(&[Datum::Int32(100)]).unwrap();
        ctx.session().sql("CREATE TABLE side (x int)").unwrap();
        let out = q.execute(&[Datum::Int32(100)]).unwrap();
        assert!(
            !out.cache.unwrap().hit,
            "post-DDL execution must re-prepare"
        );
        assert!(q.catalog_version() > v0);
        let again = q.execute(&[Datum::Int32(100)]).unwrap();
        assert!(again.cache.unwrap().hit);
    }

    #[test]
    fn analyze_reoptimizes_cached_plans() {
        let ctx = ctx();
        let s = ctx.session();
        // An ANALYZE over unchanged data installs nothing and bumps
        // nothing, so write first; the write itself must not bump.
        s.sql("INSERT INTO r VALUES (1, 1)").unwrap();
        let q = "SELECT count(*) FROM r JOIN s ON r.a = s.a";
        let a = s.sql(q).unwrap();
        assert!(!a.cache.unwrap().hit);
        assert!(s.sql(q).unwrap().cache.unwrap().hit);
        // ANALYZE bumps the stats version: both the eager sweep and the
        // next lookup must treat the cached plan as stale, so the query
        // re-optimizes against the fresh statistics.
        let sv0 = ctx.db().planning_epoch();
        s.sql("ANALYZE r").unwrap();
        assert!(ctx.db().planning_epoch().1 > sv0.1);
        assert_eq!(ctx.cache().len(), 0, "sweep must drop pre-ANALYZE plans");
        let b = s.sql(q).unwrap();
        assert!(!b.cache.unwrap().hit, "post-ANALYZE execution must re-plan");
        assert_eq!(a.rows, b.rows);
        assert!(!Arc::ptr_eq(&a.plan, &b.plan), "plan must be rebuilt");
        // Prepared handles re-prepare lazily on the same trigger.
        s.sql("INSERT INTO s VALUES (1, 1)").unwrap();
        let p = s.prepare("SELECT count(*) FROM s WHERE b < $1").unwrap();
        let sv1 = p.stats_version();
        let before = p.execute(&[Datum::Int32(100)]).unwrap();
        s.sql("ANALYZE s").unwrap();
        let out = p.execute(&[Datum::Int32(100)]).unwrap();
        assert!(
            !out.cache.unwrap().hit,
            "post-ANALYZE handle must re-prepare"
        );
        assert_eq!(before.rows, out.rows);
        assert!(p.stats_version() > sv1);
    }

    /// The epoch contract of statistics maintenance: DML keeps the counts
    /// exact and never moves the epoch; ANALYZE moves it once, and only
    /// when what it installs differs from what is there.
    #[test]
    fn dml_keeps_cached_plans_and_analyze_bumps_once() {
        let ctx = ctx();
        let s = ctx.session();
        let r = ctx.db().catalog().table_by_name("r").unwrap().oid;
        let q = "SELECT count(*) FROM r WHERE b < 100";
        let before = s.sql(q).unwrap().rows[0].values()[0].as_i64().unwrap();
        let rows = ctx.db().catalog().stats(r).row_count;

        let epoch = ctx.db().planning_epoch();
        for i in 0..20 {
            s.sql(&format!("INSERT INTO r VALUES ({i}, {})", i % 50))
                .unwrap();
        }
        s.sql("UPDATE r SET a = 0 WHERE b = 7").unwrap();
        s.sql("DELETE FROM r WHERE b = 8 AND a < 3").unwrap();
        assert_eq!(ctx.db().planning_epoch(), epoch, "DML must not bump");
        let out = s.sql(q).unwrap();
        assert!(
            out.cache.unwrap().hit,
            "the cached read survives the writes"
        );
        assert!(out.rows[0].values()[0].as_i64().unwrap() >= before + 19);
        assert_eq!(out.cache.unwrap().invalidations, 0);
        // ... while the row count followed every statement.
        let now = ctx.db().storage().row_count(r).unwrap();
        assert_eq!(ctx.db().catalog().stats(r).row_count, now);
        assert!(now >= rows + 19);

        s.sql("ANALYZE r").unwrap();
        let analyzed = ctx.db().planning_epoch();
        assert_eq!(analyzed, (epoch.0, epoch.1 + 1), "exactly one bump");
        assert!(!s.sql(q).unwrap().cache.unwrap().hit);

        // Nothing changed since: ANALYZE is a no-op and plans stay cached.
        s.sql("ANALYZE r").unwrap();
        s.sql("ANALYZE s").unwrap();
        assert_eq!(ctx.db().planning_epoch(), analyzed, "no-op must not bump");
        assert!(s.sql(q).unwrap().cache.unwrap().hit);
    }

    #[test]
    fn runtime_feedback_invalidates_stale_cached_plan() {
        use mppart::common::{Datum as D, Row};
        use mppart::plan::explain;

        // s starts tiny (20 rows, analyzed) so the cached join plan is
        // optimized for a small inner side.
        let ctx = SessionCtx::new(4);
        setup_rs(
            ctx.db().storage(),
            &SynthConfig {
                r_rows: 2_000,
                s_rows: 20,
                ..SynthConfig::default()
            },
        )
        .unwrap();
        let s = ctx.session();
        s.sql("ANALYZE r").unwrap();
        s.sql("ANALYZE s").unwrap();
        let q = "SELECT count(*) FROM r JOIN s ON r.a = s.a";
        assert!(!s.sql(q).unwrap().cache.unwrap().hit);
        assert!(s.sql(q).unwrap().cache.unwrap().hit);

        // Bulk-grow s by ~2500×. The insert moves the row counts but must
        // NOT invalidate the cached plan — row-count drift alone never
        // flushes caches.
        let s_oid = ctx.db().catalog().table_by_name("s").unwrap().oid;
        let epoch = ctx.db().planning_epoch();
        ctx.db()
            .storage()
            .insert(
                s_oid,
                (0..50_000).map(|i| Row::new(vec![D::Int32(i % 1000), D::Int32(i % 1000)])),
            )
            .unwrap();
        assert_eq!(
            ctx.db().planning_epoch(),
            epoch,
            "row deltas must not invalidate"
        );

        // The next execution still serves the stale cached plan — and its
        // actual scan cardinality misses the plan-time estimate by >10×,
        // which lands in the feedback store and bumps the stats epoch.
        let stale = s.sql(q).unwrap();
        assert!(stale.cache.unwrap().hit, "stale plan served once more");
        assert!(
            ctx.db().planning_epoch().1 > epoch.1,
            ">10x miss must invalidate through the stats epoch"
        );
        assert_eq!(
            ctx.db().catalog().feedback_override(s_oid),
            Some(50_020),
            "observed cardinality recorded"
        );

        // The following lookup re-optimizes against the observed
        // cardinality: a different plan, identical results.
        let fresh = s.sql(q).unwrap();
        assert!(!fresh.cache.unwrap().hit, "post-feedback run must re-plan");
        assert_eq!(stale.rows, fresh.rows);
        assert_ne!(
            explain(&stale.plan),
            explain(&fresh.plan),
            "re-optimized plan must differ for a 2500x larger inner side"
        );

        // The loop settles: the re-optimized plan estimates near the
        // observation, so further executions neither miss nor re-bump.
        let settled = ctx.db().planning_epoch();
        assert!(s.sql(q).unwrap().cache.unwrap().hit);
        assert_eq!(ctx.db().planning_epoch(), settled, "no invalidation loop");
    }

    /// A feedback override used to pin `row_count`: `Catalog::stats`
    /// substituted the observation and ignored every later insert. Hidden
    /// while each SQL write re-analyzed (which clears the override).
    #[test]
    fn feedback_override_follows_later_dml() {
        use mppart::common::{Datum as D, Row};

        let ctx = SessionCtx::new(4);
        setup_rs(
            ctx.db().storage(),
            &SynthConfig {
                r_rows: 2_000,
                s_rows: 20,
                ..SynthConfig::default()
            },
        )
        .unwrap();
        let s = ctx.session();
        let s_oid = ctx.db().catalog().table_by_name("s").unwrap().oid;
        let q = "SELECT count(*) FROM r JOIN s ON r.a = s.a";
        s.sql(q).unwrap();
        ctx.db()
            .storage()
            .insert(
                s_oid,
                (0..5_000).map(|i| Row::new(vec![D::Int32(i % 1000), D::Int32(i % 1000)])),
            )
            .unwrap();
        s.sql(q).unwrap(); // the stale plan's >10x miss installs the override
        assert_eq!(ctx.db().catalog().feedback_override(s_oid), Some(5_020));

        let epoch = ctx.db().planning_epoch();
        s.sql("INSERT INTO s VALUES (1, 1), (2, 2), (3, 3)")
            .unwrap();
        s.sql("DELETE FROM s WHERE a = 1 AND b = 1").unwrap();
        let stored = ctx.db().storage().row_count(s_oid).unwrap();
        assert_eq!(
            ctx.db().catalog().stats(s_oid).row_count,
            stored,
            "the override must move with the rows, not pin the count"
        );
        assert_eq!(ctx.db().planning_epoch(), epoch);
        // ANALYZE supersedes the observation, and says so through the epoch.
        s.sql("ANALYZE s").unwrap();
        assert_eq!(ctx.db().catalog().feedback_override(s_oid), None);
        assert_eq!(ctx.db().catalog().stats(s_oid).row_count, stored);
        assert_eq!(ctx.db().planning_epoch().1, epoch.1 + 1);
    }

    #[test]
    fn explain_statements_cache_too() {
        let ctx = ctx();
        let s = ctx.session();
        let a = s.sql("EXPLAIN SELECT * FROM r WHERE b = 5").unwrap();
        let b = s.sql("explain select * from r where b = 5").unwrap();
        assert!(b.cache.unwrap().hit);
        assert_eq!(a.rows, b.rows);
        assert!(!a.rows.is_empty());
    }
}
