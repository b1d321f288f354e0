//! # mppart — partitioned-table query optimization for MPP systems
//!
//! A from-scratch Rust reproduction of *"Optimizing Queries over
//! Partitioned Tables in MPP Systems"* (SIGMOD 2014): the
//! `PartitionSelector` / `DynamicScan` model of the Orca optimizer, its
//! placement algorithms, static and dynamic partition elimination unified
//! over single- and multi-level partitioned tables, a Cascades-style Memo
//! with partition propagation as an enforced property, a legacy-planner
//! baseline, and a simulated MPP runtime to execute it all.
//!
//! The easiest entry point is [`MppDb`]:
//!
//! ```
//! use mppart::MppDb;
//!
//! let db = MppDb::new(4); // 4 segments
//! db.sql("").err(); // empty SQL is a parse error
//! ```
//!
//! See the `examples/` directory for full scenarios (the paper's Figure 2
//! and Figure 4 queries, multi-level partitioning, prepared statements).
//!
//! The underlying crates are re-exported for direct use:
//! [`catalog`], [`storage`], [`plan`], [`core`] (optimizer), [`legacy`]
//! (baseline planner), [`executor`], [`sql`], [`workloads`].

pub use mpp_catalog as catalog;
pub use mpp_common as common;
pub use mpp_core as core;
pub use mpp_executor as executor;
pub use mpp_expr as expr;
pub use mpp_legacy as legacy;
pub use mpp_plan as plan;
pub use mpp_sql as sql;
pub use mpp_storage as storage;
pub use mpp_workloads as workloads;

use mpp_catalog::Catalog;
use mpp_common::{Datum, Error, PartOid, Result, Row, TableOid};
use mpp_core::estimate::{estimate_plan, fmt as fmt_est};
use mpp_core::{explain_with_estimates, Optimizer, OptimizerConfig};
use mpp_executor::{execute_stream_sched, ExecutionStats, PreparedPlan};
pub use mpp_executor::{
    CancelToken, ExecEngine, ExecMode, ResultChunk, RowSink, SchedConfig, StreamResult,
};
use mpp_expr::ColRefGenerator;
use mpp_legacy::LegacyPlanner;
use mpp_plan::{explain_annotated, PhysicalPlan};
use mpp_storage::Storage;
use std::sync::Arc;

pub mod testing;

/// Which planner produced a physical plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Planner {
    /// The Orca-style Memo optimizer (the paper's subject).
    #[default]
    Orca,
    /// The legacy-planner baseline.
    Legacy,
}

/// Plan-cache observability for one statement: whether this execution
/// reused a cached plan, plus the cache-wide counters at completion.
/// Filled in by the session layer; `None` on direct [`MppDb`] calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheInfo {
    /// Did this statement reuse a cached plan?
    pub hit: bool,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub invalidations: u64,
}

/// Result of running one SQL statement.
#[derive(Debug)]
pub struct QueryOutcome {
    pub rows: Vec<Row>,
    pub stats: ExecutionStats,
    /// The executed physical plan (shared: cached plans hand out the same
    /// allocation to every execution).
    pub plan: Arc<PhysicalPlan>,
    /// Plan-cache counters when the statement ran through a session.
    pub cache: Option<CacheInfo>,
}

/// Result of *streaming* one SQL statement: the rows went through the
/// caller's sink, so only the statistics, plan and cache counters remain
/// here. Unlike [`QueryOutcome`], statistics survive errors — a
/// cancelled or failed query reports what it did before stopping, which
/// is what the network layer sends in an `Error` frame.
#[derive(Debug)]
pub struct StreamOutcome {
    pub stats: ExecutionStats,
    /// The executed physical plan; `None` when the statement failed
    /// before planning completed.
    pub plan: Option<Arc<PhysicalPlan>>,
    /// Plan-cache counters when the statement ran through a session.
    pub cache: Option<CacheInfo>,
    pub result: Result<()>,
}

impl StreamOutcome {
    /// The collecting form of this outcome: `rows` is what the caller's
    /// sink gathered. The statement's error, if it had one.
    pub fn collected(self, rows: Vec<Row>) -> Result<QueryOutcome> {
        self.result?;
        Ok(QueryOutcome {
            rows,
            stats: self.stats,
            plan: self
                .plan
                .expect("successful statement always carries a plan"),
            cache: self.cache,
        })
    }

    /// An outcome for a statement that failed before execution started.
    pub fn failed(e: Error) -> StreamOutcome {
        StreamOutcome {
            stats: ExecutionStats::default(),
            plan: None,
            cache: None,
            result: Err(e),
        }
    }
}

/// A statement prepared against the catalog: parse, bind and optimize are
/// paid once at [`MppDb::prepare`] time; every [`MppDb::execute_prepared`]
/// binds fresh parameters, re-resolves partition OIDs through the plan's
/// `PartitionSelector`s, and reuses the executor's compiled-expression
/// templates ([`mpp_executor::PreparedPlan`]).
pub struct PreparedQuery {
    prepared: Arc<PreparedPlan>,
    param_count: u32,
    explain: bool,
    planner: Planner,
    catalog_version: u64,
    stats_version: u64,
    /// Per-table tuples the plan expected to read from storage, captured
    /// from the statistics *the plan was optimized against*. Runtime
    /// cardinality feedback compares these against the executor's
    /// `scan_rows` actuals — the current catalog can't serve that role,
    /// because DML row deltas update it without invalidating this
    /// plan.
    scan_estimates: Vec<(TableOid, u64)>,
}

impl PreparedQuery {
    pub fn plan(&self) -> &Arc<PhysicalPlan> {
        self.prepared.plan()
    }

    /// Exact number of `$n` parameters each execution must supply.
    pub fn param_count(&self) -> u32 {
        self.param_count
    }

    /// Is this an `EXPLAIN` statement (executions return plan text rows
    /// instead of running the plan)?
    pub fn is_explain(&self) -> bool {
        self.explain
    }

    pub fn planner(&self) -> Planner {
        self.planner
    }

    /// The catalog version the plan was optimized against. Stale handles
    /// (version no longer current) should be re-prepared after DDL.
    pub fn catalog_version(&self) -> u64 {
        self.catalog_version
    }

    /// The statistics version the plan was costed against. ANALYZE bumps it,
    /// so cached plans re-optimize once fresher statistics exist.
    pub fn stats_version(&self) -> u64 {
        self.stats_version
    }

    /// Both planning inputs as one comparable epoch: (catalog, statistics).
    pub fn epoch(&self) -> (u64, u64) {
        (self.catalog_version, self.stats_version)
    }

    /// Expression sites lowered so far by executions of this handle.
    pub fn compiled_sites(&self) -> usize {
        self.prepared.compiled_sites()
    }

    /// The executor-level prepared plan (shared, cheap to clone).
    pub fn prepared_plan(&self) -> &Arc<PreparedPlan> {
        &self.prepared
    }

    /// Plan-time per-table scan cardinality estimates (see the field doc).
    pub fn scan_estimates(&self) -> &[(TableOid, u64)] {
        &self.scan_estimates
    }
}

/// Per-table tuples a plan expects to read from storage under the given
/// catalog statistics: full row count per `TableScan`, surviving-group
/// rows per restricted `DynamicScan`, per-partition rows per static
/// `PartScan`. Multiple scans of one table sum.
fn scan_estimates(plan: &PhysicalPlan, catalog: &Catalog) -> Vec<(TableOid, u64)> {
    fn walk(
        plan: &PhysicalPlan,
        catalog: &Catalog,
        acc: &mut std::collections::HashMap<TableOid, u64>,
    ) {
        match plan {
            PhysicalPlan::TableScan { table, .. } => {
                *acc.entry(*table).or_default() += catalog.stats(*table).row_count;
            }
            PhysicalPlan::DynamicScan {
                table, restrict, ..
            } => {
                let stats = catalog.stats(*table);
                let rows = restrict
                    .as_ref()
                    .and_then(|oids| stats.rows_in_parts(oids.iter()))
                    .unwrap_or(stats.row_count);
                *acc.entry(*table).or_default() += rows;
            }
            PhysicalPlan::PartScan { table, part, .. } => {
                let stats = catalog.stats(*table);
                let rows = stats
                    .rows_in_parts(std::iter::once(part))
                    .unwrap_or(stats.row_count);
                *acc.entry(*table).or_default() += rows;
            }
            _ => {}
        }
        for c in plan.children() {
            walk(c, catalog, acc);
        }
    }
    let mut acc = std::collections::HashMap::new();
    walk(plan, catalog, &mut acc);
    let mut v: Vec<_> = acc.into_iter().collect();
    v.sort_by_key(|(t, _)| t.raw());
    v
}

/// A self-contained in-process "MPP database": catalog + storage +
/// Orca-style optimizer + legacy planner + executor + SQL front-end.
pub struct MppDb {
    storage: Storage,
    optimizer: Optimizer,
    legacy: LegacyPlanner,
    gen: ColRefGenerator,
    exec_engine: ExecEngine,
    sched: SchedConfig,
}

impl MppDb {
    /// A database with the given number of segments and default optimizer
    /// configuration.
    pub fn new(num_segments: usize) -> MppDb {
        MppDb::with_config(OptimizerConfig {
            num_segments,
            ..OptimizerConfig::default()
        })
    }

    /// A database with an explicit optimizer configuration.
    pub fn with_config(config: OptimizerConfig) -> MppDb {
        let catalog = Catalog::new();
        let storage = Storage::new(catalog.clone(), config.num_segments);
        MppDb {
            storage,
            optimizer: Optimizer::new(catalog.clone(), config),
            legacy: LegacyPlanner::new(catalog),
            gen: ColRefGenerator::new(),
            exec_engine: ExecEngine::default(),
            sched: SchedConfig::default(),
        }
    }

    /// Same database, executing queries on the given [`ExecEngine`]
    /// (vectorized `Batch` by default; `Row` forces tuple-at-a-time).
    pub fn with_exec_engine(mut self, engine: ExecEngine) -> MppDb {
        self.exec_engine = engine;
        self
    }

    pub fn set_exec_engine(&mut self, engine: ExecEngine) {
        self.exec_engine = engine;
    }

    pub fn exec_engine(&self) -> ExecEngine {
        self.exec_engine
    }

    /// Same database, with an explicit morsel-scheduler configuration
    /// (worker count, morsel size). The default runs each query on one
    /// worker, the calling thread.
    pub fn with_sched_config(mut self, sched: SchedConfig) -> MppDb {
        self.sched = sched;
        self
    }

    pub fn set_sched_config(&mut self, sched: SchedConfig) {
        self.sched = sched;
    }

    pub fn sched_config(&self) -> SchedConfig {
        self.sched
    }

    /// Same database, with adaptive per-partition plan specialization and
    /// runtime cardinality feedback toggled (on by default).
    pub fn with_adaptive_plans(mut self, on: bool) -> MppDb {
        self.set_adaptive_plans(on);
        self
    }

    /// Toggle adaptive planning: per-partition join specialization in the
    /// optimizer plus post-execution cardinality feedback. Off, the
    /// optimizer costs one uniform strategy per join and executions never
    /// touch the feedback store — the differential baseline.
    pub fn set_adaptive_plans(&mut self, on: bool) {
        self.optimizer.set_adaptive_plans(on);
    }

    pub fn adaptive_plans(&self) -> bool {
        self.optimizer.config().adaptive_plans
    }

    pub fn catalog(&self) -> &Catalog {
        self.storage.catalog()
    }

    /// Current planning epoch: (catalog version, statistics version). A plan
    /// whose [`PreparedQuery::epoch`] differs was optimized against a schema
    /// or statistics snapshot that no longer holds.
    pub fn planning_epoch(&self) -> (u64, u64) {
        let cat = self.storage.catalog();
        (cat.version(), cat.stats_version())
    }

    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    pub fn optimizer(&self) -> &Optimizer {
        &self.optimizer
    }

    pub fn legacy_planner(&self) -> &LegacyPlanner {
        &self.legacy
    }

    /// Parse + bind a statement and produce the optimized physical plan
    /// (Orca-style pipeline).
    pub fn plan(&self, sql_text: &str) -> Result<PhysicalPlan> {
        let bound = mpp_sql::plan_sql(sql_text, self.catalog(), &self.gen)?;
        self.optimizer.optimize(&bound.plan)
    }

    /// Same statement through the legacy planner baseline.
    pub fn plan_legacy(&self, sql_text: &str) -> Result<PhysicalPlan> {
        let bound = mpp_sql::plan_sql(sql_text, self.catalog(), &self.gen)?;
        self.legacy.optimize(&bound.plan)
    }

    /// Run a SQL statement end to end. `EXPLAIN …` returns the plan text
    /// as single-column rows instead of executing.
    pub fn sql(&self, sql_text: &str) -> Result<QueryOutcome> {
        self.sql_with_params(sql_text, &[])
    }

    /// Run a SQL statement with prepared-statement parameters bound.
    pub fn sql_with_params(&self, sql_text: &str, params: &[Datum]) -> Result<QueryOutcome> {
        self.run_sql(sql_text, params, Planner::Orca)
    }

    /// Execute a SQL statement through the legacy planner (baseline
    /// comparison path).
    pub fn sql_legacy(&self, sql_text: &str) -> Result<QueryOutcome> {
        self.sql_legacy_with_params(sql_text, &[])
    }

    pub fn sql_legacy_with_params(&self, sql_text: &str, params: &[Datum]) -> Result<QueryOutcome> {
        self.run_sql(sql_text, params, Planner::Legacy)
    }

    /// The single parse→DDL→bind→optimize→execute path behind both
    /// planner flavors (and the session layer): a streaming execution
    /// whose sink collects every chunk into the returned row vector.
    pub fn run_sql(
        &self,
        sql_text: &str,
        params: &[Datum],
        planner: Planner,
    ) -> Result<QueryOutcome> {
        let mut rows: Vec<Row> = Vec::new();
        let mut sink = |chunk: ResultChunk| {
            chunk.append_to(&mut rows);
            Ok(())
        };
        self.stream_sql(sql_text, params, planner, &CancelToken::new(), &mut sink)
            .collected(rows)
    }

    /// Streaming form of [`MppDb::run_sql`]: result chunks flow through
    /// `sink` as segments finish, `cancel` stops execution at the next
    /// block boundary, and the returned [`StreamOutcome`] keeps partial
    /// statistics even on error. DDL and `EXPLAIN` behave exactly as in
    /// the collecting path (DDL emits no chunks; EXPLAIN emits its plan
    /// text as one chunk without executing).
    pub fn stream_sql(
        &self,
        sql_text: &str,
        params: &[Datum],
        planner: Planner,
        cancel: &CancelToken,
        sink: &mut RowSink<'_>,
    ) -> StreamOutcome {
        match mpp_sql::parse(sql_text) {
            Ok(stmt) => self.stream_parsed(&stmt, params, planner, cancel, sink),
            Err(e) => StreamOutcome::failed(e),
        }
    }

    /// [`MppDb::stream_sql`] for a statement the caller has already
    /// parsed (the session layer parses once, to tell DDL apart).
    pub fn stream_parsed(
        &self,
        stmt: &mpp_sql::Statement,
        params: &[Datum],
        planner: Planner,
        cancel: &CancelToken,
        sink: &mut RowSink<'_>,
    ) -> StreamOutcome {
        // Everything up to execution fails without stats, as before.
        let planned = (|| {
            if self.try_ddl(stmt)?.is_some() {
                return Ok(None);
            }
            let bound = mpp_sql::bind(stmt, self.catalog(), &self.gen)?;
            check_param_arity(bound.param_count, params.len())?;
            let plan = Arc::new(self.optimize_with(planner, &bound.plan)?);
            Ok(Some((plan, bound.explain)))
        })();
        let (plan, explain) = match planned {
            Err(e) => return StreamOutcome::failed(e),
            // DDL already executed inside try_ddl; it has no result rows.
            Ok(None) => {
                return StreamOutcome {
                    stats: ExecutionStats::default(),
                    plan: Some(Arc::new(PhysicalPlan::Values {
                        rows: vec![],
                        output: vec![],
                    })),
                    cache: None,
                    result: Ok(()),
                }
            }
            Ok(Some(p)) => p,
        };
        if explain {
            let result = sink(ResultChunk::Rows(text_rows(&self.explain_plan(&plan))));
            return StreamOutcome {
                stats: ExecutionStats::default(),
                plan: Some(plan),
                cache: None,
                result,
            };
        }
        let estimates = self
            .adaptive_plans()
            .then(|| scan_estimates(&plan, self.catalog()));
        let out = execute_stream_sched(
            &self.storage,
            &plan,
            params,
            self.exec_engine,
            &self.sched,
            cancel,
            sink,
        );
        if out.result.is_ok() {
            if let Some(est) = &estimates {
                self.record_feedback(est, &out.stats);
            }
        }
        StreamOutcome {
            stats: out.stats,
            plan: Some(plan),
            cache: None,
            result: out.result,
        }
    }

    /// Prepare a statement: parse, bind and optimize once. The returned
    /// handle executes many times via [`MppDb::execute_prepared`] with
    /// fresh parameters each call. DDL cannot be prepared.
    pub fn prepare(&self, sql_text: &str) -> Result<PreparedQuery> {
        self.prepare_with(sql_text, Planner::Orca)
    }

    /// [`MppDb::prepare`] with an explicit planner flavor.
    pub fn prepare_with(&self, sql_text: &str, planner: Planner) -> Result<PreparedQuery> {
        self.prepare_parsed(&mpp_sql::parse(sql_text)?, planner)
    }

    /// [`MppDb::prepare_with`] for a statement the caller has already
    /// parsed, so a plan-cache miss does not parse the text a second time.
    pub fn prepare_parsed(
        &self,
        stmt: &mpp_sql::Statement,
        planner: Planner,
    ) -> Result<PreparedQuery> {
        if is_ddl(stmt) {
            return Err(Error::Unsupported(
                "DDL statements cannot be prepared; run them directly".into(),
            ));
        }
        // Read the versions before binding: a concurrent DDL or ANALYZE
        // between this read and the optimize pass makes the handle *stale*
        // (its epoch no longer current), never silently wrong.
        let catalog_version = self.catalog().version();
        let stats_version = self.catalog().stats_version();
        let bound = mpp_sql::bind(stmt, self.catalog(), &self.gen)?;
        let plan = Arc::new(self.optimize_with(planner, &bound.plan)?);
        let scan_estimates = scan_estimates(&plan, self.catalog());
        Ok(PreparedQuery {
            prepared: Arc::new(PreparedPlan::new(plan)),
            param_count: bound.param_count,
            explain: bound.explain,
            planner,
            catalog_version,
            stats_version,
            scan_estimates,
        })
    }

    /// Execute a prepared statement with this call's parameter bindings.
    pub fn execute_prepared(&self, q: &PreparedQuery, params: &[Datum]) -> Result<QueryOutcome> {
        let mut rows: Vec<Row> = Vec::new();
        let mut sink = |chunk: ResultChunk| {
            chunk.append_to(&mut rows);
            Ok(())
        };
        self.stream_prepared(q, params, &CancelToken::new(), &mut sink)
            .collected(rows)
    }

    /// Streaming form of [`MppDb::execute_prepared`].
    pub fn stream_prepared(
        &self,
        q: &PreparedQuery,
        params: &[Datum],
        cancel: &CancelToken,
        sink: &mut RowSink<'_>,
    ) -> StreamOutcome {
        let plan = Arc::clone(q.prepared.plan());
        if let Err(e) = check_param_arity(q.param_count, params.len()) {
            return StreamOutcome::failed(e);
        }
        if q.explain {
            let result = sink(ResultChunk::Rows(text_rows(&self.explain_plan(&plan))));
            return StreamOutcome {
                stats: ExecutionStats::default(),
                plan: Some(plan),
                cache: None,
                result,
            };
        }
        let out = q.prepared.execute_stream_sched(
            &self.storage,
            params,
            self.exec_engine,
            &self.sched,
            cancel,
            sink,
        );
        if out.result.is_ok() && self.adaptive_plans() {
            self.record_feedback(&q.scan_estimates, &out.stats);
        }
        StreamOutcome {
            stats: out.stats,
            plan: Some(plan),
            cache: None,
            result: out.result,
        }
    }

    /// Fold one execution's observed scan cardinalities back into the
    /// catalog. `estimates` are plan-time per-table expectations
    /// ([`PreparedQuery::scan_estimates`]); `stats.scan_rows` are the
    /// actuals. Only *underestimates* count as misses: a dynamic scan
    /// legitimately reads fewer tuples than its static estimate (runtime
    /// partition elimination) and early-terminating operators stop scans
    /// short, but reading 10× *more* than planned is unambiguous
    /// evidence of stale statistics. Returns whether cached plans were
    /// invalidated (the catalog bumped its stats version).
    pub fn record_feedback(&self, estimates: &[(TableOid, u64)], stats: &ExecutionStats) -> bool {
        let mut invalidated = false;
        for (table, est) in estimates {
            if let Some(&actual) = stats.scan_rows.get(table) {
                if actual > *est {
                    invalidated |= self.catalog().record_feedback(*table, *est, actual);
                }
            }
        }
        invalidated
    }

    fn optimize_with(
        &self,
        planner: Planner,
        plan: &mpp_plan::LogicalPlan,
    ) -> Result<PhysicalPlan> {
        match planner {
            Planner::Orca => self.optimizer.optimize(plan),
            Planner::Legacy => self.legacy.optimize(plan),
        }
    }

    /// Execute DDL statements (CREATE / DROP / ALTER TABLE); `None` when
    /// the statement is not DDL. DROP also truncates the table's storage,
    /// and ALTER … DROP PARTITION removes the dropped leaves' rows. The
    /// statistics follow at once: `Catalog::replace_table` takes dropped
    /// leaves out of the row counts and registers added ones as empty.
    fn try_ddl(&self, stmt: &mpp_sql::Statement) -> Result<Option<QueryOutcome>> {
        use mpp_sql::Statement;
        match stmt {
            Statement::CreateTable { .. } => {
                mpp_sql::execute_ddl(stmt, self.catalog())?;
            }
            Statement::DropTable { .. } => {
                // Clear rows first, while the catalog still knows the table.
                if let Statement::DropTable { name } = stmt {
                    let oid = self.catalog().table_by_name(name)?.oid;
                    self.storage.truncate(oid)?;
                }
                mpp_sql::execute_ddl(stmt, self.catalog())?;
            }
            Statement::AlterTable { table, .. } => {
                let desc = self.catalog().table_by_name(table)?;
                let before = desc.part_tree()?.partition_expansion();
                mpp_sql::execute_ddl(stmt, self.catalog())?;
                let after: std::collections::HashSet<PartOid> = self
                    .catalog()
                    .table_by_name(table)?
                    .part_tree()?
                    .partition_expansion()
                    .into_iter()
                    .collect();
                let dropped: Vec<PartOid> =
                    before.into_iter().filter(|p| !after.contains(p)).collect();
                if !dropped.is_empty() {
                    self.storage.drop_parts(desc.oid, &dropped);
                }
            }
            Statement::Analyze { table } => {
                // Re-summarize the leaves that lost rows, merge all leaf
                // summaries into the table's statistics. The stats version
                // moves — invalidating cached plans — only if they differ
                // from what is installed.
                let oid = self.catalog().table_by_name(table)?.oid;
                self.storage.analyze(oid)?;
            }
            _ => return Ok(None),
        }
        Ok(Some(QueryOutcome {
            rows: Vec::new(),
            stats: ExecutionStats::default(),
            plan: Arc::new(PhysicalPlan::Values {
                rows: vec![],
                output: vec![],
            }),
            cache: None,
        }))
    }

    /// EXPLAIN text of the optimized plan, with per-operator estimated
    /// rows and cumulative estimated cost.
    pub fn explain_sql(&self, sql_text: &str) -> Result<String> {
        Ok(self.explain_plan(&self.plan(sql_text)?))
    }

    fn explain_plan(&self, plan: &PhysicalPlan) -> String {
        explain_with_estimates(plan, self.catalog(), self.storage.num_segments())
    }

    /// Run the statement, then render its plan with estimated *and*
    /// actual figures side by side — result rows at the root, partitions
    /// scanned at each DynamicScan — so misestimates that misorder joins
    /// or defeat partition elimination show up directly in test output.
    pub fn explain_analyze_sql(&self, sql_text: &str) -> Result<String> {
        let out = self.sql(sql_text)?;
        let ests = estimate_plan(&out.plan, self.catalog(), self.storage.num_segments());
        Ok(explain_annotated(&out.plan, &|node| {
            let e = ests.get(node)?;
            let mut note = format!("rows={} cost={}", fmt_est(e.rows), fmt_est(e.cost));
            if std::ptr::eq(node, out.plan.as_ref()) {
                note.push_str(&format!(" actual-rows={}", out.stats.rows_returned));
            }
            if let PhysicalPlan::DynamicScan { table, .. } = node {
                note.push_str(&format!(
                    " actual-parts={}",
                    out.stats.parts_scanned_for(*table)
                ));
            }
            Some(note)
        }))
    }
}

/// Every execution must supply exactly the parameters the statement
/// declares: too few would leave `$n` unbound at evaluation, and extras
/// are almost certainly a caller bug (historically they were silently
/// ignored).
fn check_param_arity(needed: u32, given: usize) -> Result<()> {
    if needed as usize != given {
        return Err(Error::Execution(format!(
            "statement takes exactly {needed} parameter(s), {given} given"
        )));
    }
    Ok(())
}

fn text_rows(text: &str) -> Vec<Row> {
    text.lines()
        .map(|l| Row::new(vec![Datum::str(l)]))
        .collect()
}

/// Is this statement DDL (CREATE / DROP / ALTER TABLE / ANALYZE, possibly
/// behind EXPLAIN)? DDL cannot be prepared or plan-cached. ANALYZE rides
/// along: it produces no rows and changes planning inputs (statistics),
/// so it takes the same non-preparable path.
pub fn is_ddl(stmt: &mpp_sql::Statement) -> bool {
    use mpp_sql::Statement;
    match stmt {
        Statement::CreateTable { .. }
        | Statement::DropTable { .. }
        | Statement::AlterTable { .. }
        | Statement::Analyze { .. } => true,
        Statement::Explain(inner) => is_ddl(inner),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpp_workloads::{setup_rs, SynthConfig};

    #[test]
    fn sql_roundtrip_on_synthetic_schema() {
        let db = MppDb::new(4);
        setup_rs(db.storage(), &SynthConfig::default()).unwrap();
        let out = db.sql("SELECT count(*) FROM r WHERE b < 100").unwrap();
        assert_eq!(out.rows.len(), 1);
        // 10 of 100 partitions scanned.
        let r = db.catalog().table_by_name("r").unwrap();
        assert_eq!(out.stats.parts_scanned_for(r.oid), 10);
    }

    #[test]
    fn explain_returns_text() {
        let db = MppDb::new(4);
        setup_rs(db.storage(), &SynthConfig::default()).unwrap();
        let out = db.sql("EXPLAIN SELECT * FROM r WHERE b = 5").unwrap();
        let text: Vec<String> = out
            .rows
            .iter()
            .map(|r| r.values()[0].as_str().unwrap().to_string())
            .collect();
        assert!(text.iter().any(|l| l.contains("PartitionSelector")));
        assert!(text.iter().any(|l| l.contains("DynamicScan")));
        // Every operator line carries its estimates.
        assert!(
            text.iter()
                .all(|l| l.contains("rows=") && l.contains("cost=")),
            "estimate annotations missing: {text:?}"
        );
    }

    #[test]
    fn explain_analyze_reports_estimated_vs_actual() {
        let db = MppDb::new(4);
        setup_rs(db.storage(), &SynthConfig::default()).unwrap();
        db.sql("ANALYZE r").unwrap();
        let text = db
            .explain_analyze_sql("SELECT count(*) FROM r WHERE b < 100")
            .unwrap();
        let root = text.lines().next().unwrap();
        assert!(
            root.contains("rows=") && root.contains("actual-rows=1"),
            "{root}"
        );
        let scan = text
            .lines()
            .find(|l| l.contains("DynamicScan"))
            .expect("partitioned scan in plan");
        // Static elimination keeps 10 of 100 partitions; with fresh
        // per-partition counts the estimate should agree with reality.
        assert!(scan.contains("actual-parts=10"), "{scan}");
    }

    #[test]
    fn missing_parameters_are_rejected() {
        let db = MppDb::new(2);
        setup_rs(db.storage(), &SynthConfig::default()).unwrap();
        let err = db.sql("SELECT * FROM r WHERE b = $1").unwrap_err();
        assert!(err.to_string().contains("parameter"), "{err}");
    }

    #[test]
    fn extra_parameters_are_rejected() {
        // The arity check is exact: extras used to be silently ignored.
        let db = MppDb::new(2);
        setup_rs(db.storage(), &SynthConfig::default()).unwrap();
        let two = [Datum::Int32(1), Datum::Int32(2)];
        let err = db
            .sql_with_params("SELECT * FROM r WHERE b = $1", &two)
            .unwrap_err();
        assert!(err.to_string().contains("exactly 1 parameter"), "{err}");
        // The legacy path shares the same entry point and check.
        let err = db
            .sql_legacy_with_params("SELECT * FROM r WHERE b = $1", &two)
            .unwrap_err();
        assert!(err.to_string().contains("exactly 1 parameter"), "{err}");
        assert!(db
            .sql_with_params("SELECT * FROM r WHERE b = $1", &[Datum::Int32(1)])
            .is_ok());
    }

    #[test]
    fn prepare_execute_matches_fresh_sql() {
        let db = MppDb::new(2);
        setup_rs(db.storage(), &SynthConfig::default()).unwrap();
        let q = db.prepare("SELECT count(*) FROM r WHERE b < $1").unwrap();
        assert_eq!(q.param_count(), 1);
        for v in [0, 100, 555] {
            let params = [Datum::Int32(v)];
            let prepared = db.execute_prepared(&q, &params).unwrap();
            let fresh = db
                .sql_with_params("SELECT count(*) FROM r WHERE b < $1", &params)
                .unwrap();
            assert_eq!(prepared.rows, fresh.rows, "v={v}");
            let r = db.catalog().table_by_name("r").unwrap();
            assert_eq!(
                prepared.stats.parts_scanned_for(r.oid),
                fresh.stats.parts_scanned_for(r.oid),
                "v={v}"
            );
        }
        // Expression templates compiled once, then reused.
        let sites = q.compiled_sites();
        assert!(sites > 0);
        db.execute_prepared(&q, &[Datum::Int32(77)]).unwrap();
        assert_eq!(q.compiled_sites(), sites);
        // Arity is exact here too, and DDL cannot be prepared.
        assert!(db.execute_prepared(&q, &[]).is_err());
        assert!(db.prepare("CREATE TABLE nope (a int)").is_err());
    }

    #[test]
    fn analyze_collects_stats_end_to_end() {
        let db = MppDb::new(2);
        db.sql(
            "CREATE TABLE m (k int, v int) \
             PARTITION BY RANGE (k) (START (0) END (30) EVERY (10))",
        )
        .unwrap();
        db.sql("INSERT INTO m VALUES (5, 1), (15, 1), (15, 2), (25, 1)")
            .unwrap();
        let oid = db.catalog().table_by_name("m").unwrap().oid;
        let sv = db.catalog().stats_version();
        let out = db.sql("ANALYZE m").unwrap();
        assert!(out.rows.is_empty());
        assert!(db.catalog().stats_version() > sv, "ANALYZE bumps stats");
        let stats = db.catalog().stats(oid);
        assert_eq!(stats.row_count, 4);
        assert_eq!(stats.part_rows.values().sum::<u64>(), 4);
        // k has 3 distinct values; its histogram covers all rows.
        assert_eq!(stats.columns.get(&0).unwrap().ndv, 3);
        let hist = stats.columns.get(&0).unwrap().histogram.as_ref().unwrap();
        assert_eq!(hist.total, 4);
        // ANALYZE cannot be prepared, like other DDL.
        assert!(db.prepare("ANALYZE m").is_err());
        // Unknown table errors cleanly.
        assert!(db.sql("ANALYZE nope").is_err());
    }

    #[test]
    fn alter_partition_ddl_end_to_end() {
        let db = MppDb::new(2);
        db.sql(
            "CREATE TABLE m (k int, v int) \
             PARTITION BY RANGE (k) (START (0) END (30) EVERY (10))",
        )
        .unwrap();
        db.sql("INSERT INTO m VALUES (5, 1), (15, 1), (25, 1)")
            .unwrap();
        // Rows outside every partition are rejected until the range exists.
        assert!(db.sql("INSERT INTO m VALUES (35, 1)").is_err());
        db.sql("ALTER TABLE m ADD PARTITION p4 START (30) END (40)")
            .unwrap();
        let oid = db.catalog().table_by_name("m").unwrap().oid;
        let stats = db.catalog().stats(oid);
        assert_eq!(stats.part_rows.len(), 4, "the new leaf is registered");
        assert_eq!(stats.rows_in_parts(stats.part_rows.keys()), Some(3));
        db.sql("INSERT INTO m VALUES (35, 1)").unwrap();
        assert_eq!(db.catalog().stats(oid).row_count, 4);
        let out = db.sql("SELECT count(*) FROM m").unwrap();
        assert_eq!(out.rows[0].values()[0], Datum::Int64(4));
        // Existing partitions kept their rows across the tree swap.
        let out = db.sql("SELECT count(*) FROM m WHERE k < 30").unwrap();
        assert_eq!(out.rows[0].values()[0], Datum::Int64(3));
        // Dropping a partition removes its rows from storage too.
        db.sql("ALTER TABLE m DROP PARTITION p4").unwrap();
        let out = db.sql("SELECT count(*) FROM m").unwrap();
        assert_eq!(out.rows[0].values()[0], Datum::Int64(3));
        // ... and from the statistics, without waiting for an ANALYZE.
        let stats = db.catalog().stats(oid);
        assert_eq!((stats.row_count, stats.part_rows.len()), (3, 3));
        assert!(db.sql("INSERT INTO m VALUES (35, 1)").is_err());
    }

    #[test]
    fn parallel_mode_matches_sequential_through_sql() {
        let seq_db = MppDb::new(4);
        setup_rs(seq_db.storage(), &SynthConfig::default()).unwrap();
        let par_db = MppDb::new(4).with_sched_config(SchedConfig::with_workers(4));
        setup_rs(par_db.storage(), &SynthConfig::default()).unwrap();
        for q in [
            "SELECT count(*) FROM r WHERE b < 100",
            "SELECT * FROM r, s WHERE r.a = s.a AND s.b = 3",
        ] {
            let seq = seq_db.sql(q).unwrap();
            let par = par_db.sql(q).unwrap();
            let mut a = seq.rows;
            let mut b = par.rows;
            a.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
            b.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
            assert_eq!(a, b, "{q}");
            assert_eq!(seq.stats.parts_scanned, par.stats.parts_scanned, "{q}");
            assert_eq!(seq.stats.tuples_scanned, par.stats.tuples_scanned, "{q}");
        }
    }
}
