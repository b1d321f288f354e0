//! The plan interpreter.
//!
//! `exec(plan, segment, …)` evaluates a plan subtree *as seen by one
//! segment*. Children execute left-to-right (the ordering guarantee the
//! placement algorithms rely on), and a [`mpp_plan::PhysicalPlan::Motion`]
//! materializes its child once for **all** segments and hands each target
//! segment its share.
//!
//! One stage driver runs every query (`morsel::run_stages_stream`): the
//! plan is cut into slices at Motion boundaries, every Motion stage
//! materializes eagerly, children before parents, and each stage's
//! per-segment work runs on the work-stealing scheduler. The worker
//! count ([`SchedConfig::workers`]) is the only scheduling decision: with
//! one worker the tasks drain in segment order on the calling thread and
//! a root Gather streams per segment; with more, stages run on the pool.
//! Every worker count produces the same rows and the same merged
//! statistics. Only DML and init plans, which run before the stages are
//! frozen, let a Motion materialize lazily on first access.

use crate::context::ExecContext;
use crate::morsel::{self, SchedConfig};
use crate::prepared::CompiledCache;
use crate::slice::init_plan_sites;
use crate::stats::ExecutionStats;
use crate::stream::{CancelToken, ResultChunk, RowSink, StreamResult};
use mpp_catalog::PartTree;
use mpp_common::{Datum, Error, PartOid, Result, Row, SegmentId, TableOid};
use mpp_expr::analysis::{derive_interval_set, DerivedSet};
use mpp_expr::{collect_columns, CmpOp, ColRef, CompiledExpr, Expr, IntervalSet};
use mpp_plan::{AggCall, AggFunc, JoinType, MotionKind, PhysicalPlan};
use mpp_storage::{PhysId, Storage};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Which operator implementations interpret the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecEngine {
    /// Vectorized execution: operators exchange columnar
    /// [`mpp_common::RowBlock`] chunks with selection vectors; filters
    /// refine selections without copying, projections and join keys
    /// evaluate column-at-a-time, and Motions ship refcounted column
    /// chunks. Falls back to row-at-a-time evaluation per block whenever
    /// strict batch evaluation cannot reproduce exact row semantics, so
    /// results (rows, errors, stats) are identical to [`ExecEngine::Row`].
    #[default]
    Batch,
    /// The original row-at-a-time interpreter — the semantic reference
    /// the batch engine is tested against, and the path DML always takes.
    Row,
}

/// The argument of [`crate::PreparedPlan::execute_engine_sched`], and
/// nothing else: the worker count in [`SchedConfig::workers`] is the
/// executor's only scheduling decision. It survives because the
/// benchmark harness's `replay.par_exec` span calls that method with
/// `Parallel`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Run under the given [`SchedConfig`] unchanged.
    #[default]
    Sequential,
    /// Run with `workers.unwrap_or(num_segments)` workers.
    Parallel,
}

/// Result of one query execution.
#[derive(Debug)]
pub struct QueryResult {
    pub rows: Vec<Row>,
    pub stats: ExecutionStats,
}

/// Execute a plan with no parameters on the default engine and
/// scheduler (one worker).
pub fn execute(storage: &Storage, plan: &PhysicalPlan) -> Result<QueryResult> {
    execute_with_params_sched(storage, plan, &[], Default::default(), &Default::default())
}

/// Execute with prepared-statement parameters bound, on the given
/// [`ExecEngine`] and morsel-scheduler [`SchedConfig`].
pub fn execute_with_params_sched(
    storage: &Storage,
    plan: &PhysicalPlan,
    params: &[Datum],
    engine: ExecEngine,
    sched: &SchedConfig,
) -> Result<QueryResult> {
    run_plan_sched(storage, plan, params, engine, None, sched)
}

/// The collecting driver behind ad-hoc and prepared execution (the
/// optional [`CompiledCache`] carries a prepared plan's expression
/// templates): one streaming execution whose sink appends every chunk to
/// a row vector. This is the *only* way a materialized `Vec<Row>` is ever
/// produced — streaming and collecting execution share one
/// implementation.
pub(crate) fn run_plan_sched(
    storage: &Storage,
    plan: &PhysicalPlan,
    params: &[Datum],
    engine: ExecEngine,
    cache: Option<&CompiledCache>,
    sched: &SchedConfig,
) -> Result<QueryResult> {
    let mut rows: Vec<Row> = Vec::new();
    let mut sink = |chunk: ResultChunk| {
        chunk.append_to(&mut rows);
        Ok(())
    };
    let out = run_plan_stream(
        storage,
        plan,
        params,
        engine,
        cache,
        sched,
        &CancelToken::new(),
        &mut sink,
    );
    let stats = out.into_stats()?;
    Ok(QueryResult { rows, stats })
}

/// Streaming execution with full control over engine, scheduler and
/// cancellation: result chunks are pushed into `sink` as each segment
/// (and, for the block engine, each chunk) completes at the root.
/// Statistics survive errors — a cancelled query reports what it
/// scanned before stopping.
#[allow(clippy::too_many_arguments)]
pub fn execute_stream_sched(
    storage: &Storage,
    plan: &PhysicalPlan,
    params: &[Datum],
    engine: ExecEngine,
    sched: &SchedConfig,
    cancel: &CancelToken,
    sink: &mut RowSink<'_>,
) -> StreamResult {
    run_plan_stream(storage, plan, params, engine, None, sched, cancel, sink)
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn run_plan_stream(
    storage: &Storage,
    plan: &PhysicalPlan,
    params: &[Datum],
    engine: ExecEngine,
    cache: Option<&CompiledCache>,
    sched: &SchedConfig,
    cancel: &CancelToken,
    sink: &mut RowSink<'_>,
) -> StreamResult {
    // DML mutates shared storage from one driver thread; its children
    // still execute per segment, with Motions materialized lazily, and
    // never reach the stage driver, so the worker count does not apply.
    // It always runs the row engine: every mutation path materializes
    // rows regardless, and the scan-not-observing-its-own-writes
    // contract is what the row path is tested for.
    let eff_engine = if is_dml(plan) {
        ExecEngine::Row
    } else {
        engine
    };
    let ctx = ExecContext::for_plan(plan, params, storage.num_segments())
        .with_compiled_cache(cache)
        .with_cancel(cancel.clone());
    let result = run_plan_stream_inner(plan, storage, &ctx, eff_engine, sched, sink);
    let mut stats = ctx.into_stats();
    match result {
        Ok(rows_returned) => {
            stats.rows_returned = rows_returned;
            StreamResult {
                stats,
                result: Ok(()),
            }
        }
        Err(e) => StreamResult {
            stats,
            result: Err(e),
        },
    }
}

fn run_plan_stream_inner(
    plan: &PhysicalPlan,
    storage: &Storage,
    ctx: &ExecContext<'_>,
    engine: ExecEngine,
    sched: &SchedConfig,
    sink: &mut RowSink<'_>,
) -> Result<u64> {
    // Init plans run once, before the main plan — the classic planner
    // contract. Publishing every $oids parameter up front is what lets a
    // gated scan below a Motion read a parameter its InitPlanOids
    // sibling sits above, and it makes every worker count reach gates
    // in an identical publication state.
    for init in init_plan_sites(plan) {
        ctx.check_cancel()?;
        let t0 = Instant::now();
        exec(init, SegmentId(0), storage, ctx)?;
        ctx.seg_stats(SegmentId(0)).elapsed += t0.elapsed();
    }
    if is_dml(plan) {
        let t0 = Instant::now();
        let rows = exec_dml(plan, storage, ctx)?;
        ctx.seg_stats(SegmentId(0)).elapsed += t0.elapsed();
        let n = rows.len() as u64;
        if !rows.is_empty() {
            sink(ResultChunk::Rows(rows))?;
        }
        Ok(n)
    } else {
        // One stage driver for every worker count and both engines: the
        // plan is cut into slices at Motion boundaries and each stage's
        // work runs on the morsel scheduler.
        morsel::run_stages_stream(plan, storage, ctx, engine, sched, sink)
    }
}

fn is_dml(plan: &PhysicalPlan) -> bool {
    matches!(
        plan,
        PhysicalPlan::Update { .. } | PhysicalPlan::Delete { .. } | PhysicalPlan::Insert { .. }
    )
}

/// Lower an expression against an operator's output columns: columns become
/// row offsets, parameters and constant subtrees fold away. Every per-row
/// site below compiles once per (slice) execution and evaluates the
/// compiled form per row. Under prepared execution the context carries a
/// template cache and the lowering survives across executions — only the
/// cheap parameter re-bind runs per call.
pub(crate) fn compiled(e: &Expr, cols: &[ColRef], ctx: &ExecContext<'_>) -> Arc<CompiledExpr> {
    crate::prepared::compiled_for(e, cols, ctx)
}

/// Evaluate one subtree on one segment.
pub(crate) fn exec(
    plan: &PhysicalPlan,
    seg: SegmentId,
    storage: &Storage,
    ctx: &ExecContext<'_>,
) -> Result<Vec<Row>> {
    match plan {
        PhysicalPlan::TableScan {
            table,
            output,
            filter,
            ..
        } => {
            let rows = storage.scan(PhysId::Table(*table), seg);
            ctx.seg_stats(seg).record_table_scan(*table, rows.len());
            apply_filter(rows, filter, output, ctx)
        }

        PhysicalPlan::PartScan {
            table,
            part,
            output,
            filter,
            gate,
            ..
        } => {
            ctx.check_cancel()?;
            // Legacy gated scan: skip entirely when the run-time OID set
            // excludes this partition.
            if let Some(g) = gate {
                if !ctx.oid_param_contains(*g, *part)? {
                    return Ok(Vec::new());
                }
            }
            let rows = storage.scan(PhysId::Part(*part), seg);
            ctx.seg_stats(seg)
                .record_part_scan(*table, *part, rows.len());
            apply_filter(rows, filter, output, ctx)
        }

        PhysicalPlan::DynamicScan {
            table,
            part_scan_id,
            output,
            filter,
            restrict,
            ..
        } => {
            let mut oids = ctx.consume_parts(*part_scan_id, seg)?;
            // Adaptive group branch: scan only the selector-propagated OIDs
            // that fall inside this branch's partition group.
            if let Some(keep) = restrict {
                oids.retain(|oid| keep.contains(oid));
            }
            let scans = storage.scan_batch(oids.iter().map(|&oid| PhysId::Part(oid)), seg);
            let mut rows = Vec::new();
            {
                let mut stats = ctx.seg_stats(seg);
                for (oid, (_, part_rows)) in oids.iter().zip(scans) {
                    ctx.check_cancel()?;
                    stats.record_part_scan(*table, *oid, part_rows.len());
                    rows.extend(part_rows);
                }
            }
            apply_filter(rows, filter, output, ctx)
        }

        PhysicalPlan::PartitionSelector {
            table,
            part_scan_id,
            part_keys,
            predicates,
            child,
            ..
        } => {
            ctx.seg_stats(seg).selector_runs += 1;
            // Borrowed, not `Catalog::part_tree`: that deep-clones the tree.
            let desc = storage.catalog().table(*table)?;
            let tree = desc.part_tree()?;
            match child {
                None => {
                    // Static selection: predicates reference only
                    // constants and parameters.
                    let derived: Vec<DerivedSet> = part_keys
                        .iter()
                        .zip(predicates)
                        .map(|(key, pred)| match pred {
                            Some(p) => derive_interval_set(p, key, Some(ctx.params)),
                            None => DerivedSet::full(),
                        })
                        .collect();
                    let oids = tree.select_partitions(&derived)?;
                    ctx.mark_selector_ran(*part_scan_id, seg);
                    ctx.propagate_parts(*part_scan_id, seg, oids);
                    Ok(Vec::new())
                }
                Some(child) => {
                    // Dynamic selection: apply the selection function per
                    // input tuple, pass tuples through unchanged.
                    let rows = exec(child, seg, storage, ctx)?;
                    ctx.mark_selector_ran(*part_scan_id, seg);
                    let child_cols = child.output_cols();
                    select_per_tuple(
                        tree,
                        part_keys,
                        predicates,
                        &rows,
                        &child_cols,
                        ctx,
                        |oids| ctx.propagate_parts(*part_scan_id, seg, oids),
                    )?;
                    Ok(rows)
                }
            }
        }

        PhysicalPlan::Sequence { children } => {
            let mut last = Vec::new();
            for c in children {
                last = exec(c, seg, storage, ctx)?;
            }
            Ok(last)
        }

        PhysicalPlan::Filter { pred, child } => {
            let rows = exec(child, seg, storage, ctx)?;
            let cols = child.output_cols();
            let pred = compiled(pred, &cols, ctx);
            let mut out = Vec::with_capacity(rows.len());
            for r in rows {
                if pred.eval_predicate(&r)? {
                    out.push(r);
                }
            }
            Ok(out)
        }

        PhysicalPlan::Project { exprs, child, .. } => {
            let rows = exec(child, seg, storage, ctx)?;
            let cols = child.output_cols();
            let exprs: Vec<Arc<CompiledExpr>> =
                exprs.iter().map(|e| compiled(e, &cols, ctx)).collect();
            rows.iter()
                .map(|r| {
                    exprs
                        .iter()
                        .map(|e| e.eval(r))
                        .collect::<Result<Vec<_>>>()
                        .map(Row::new)
                })
                .collect()
        }

        PhysicalPlan::HashJoin {
            join_type,
            left_keys,
            right_keys,
            residual,
            left,
            right,
        } => {
            let l_rows = exec(left, seg, storage, ctx)?;
            let r_rows = exec(right, seg, storage, ctx)?;
            hash_join(
                *join_type, left_keys, right_keys, residual, left, right, l_rows, r_rows, ctx,
            )
        }

        PhysicalPlan::NLJoin {
            join_type,
            pred,
            left,
            right,
        } => {
            let l_rows = exec(left, seg, storage, ctx)?;
            let r_rows = exec(right, seg, storage, ctx)?;
            nl_join(*join_type, pred, left, right, l_rows, r_rows, ctx)
        }

        PhysicalPlan::HashAgg {
            group_by,
            aggs,
            child,
            ..
        } => {
            let rows = exec(child, seg, storage, ctx)?;
            let cols = child.output_cols();
            hash_agg(group_by, aggs, rows, &cols, seg, ctx)
        }

        PhysicalPlan::Motion { kind, child } => {
            // The cache is keyed by the node's stable MotionId, not its
            // address, so re-executions and clones of a plan report
            // (and cache) under the same key.
            let id = ctx.motion_id_of(plan)?;
            if seg == SegmentId(0) && matches!(kind, MotionKind::Gather) {
                // First consumption of a Gather stage takes the copy the
                // stage workers pre-assembled (each cloned its own rows,
                // warm and concurrently). Re-executions — and lazily
                // materialized Motions, which never pre-route — fall
                // through to cloning from the cache.
                if let Some(rows) = ctx.preroute_take(id) {
                    return Ok(rows);
                }
            }
            let per_source = match ctx.motion_cached(id) {
                Some(v) => v,
                None => {
                    if ctx.motions_frozen() {
                        // The stage driver materializes every Motion
                        // before the slices above it run; a miss here is
                        // a scheduling bug, not a user error.
                        return Err(Error::Internal(format!(
                            "staged execution reached {id} before its stage materialized it"
                        )));
                    }
                    let mut v = Vec::with_capacity(storage.num_segments());
                    for s in storage.segments() {
                        v.push(exec(child, s, storage, ctx)?);
                    }
                    ctx.record_motion(id, &v);
                    let v = Arc::new(v);
                    ctx.motion_store(id, v.clone());
                    v
                }
            };
            route_motion(kind, &per_source, seg, storage, child, ctx, id)
        }

        PhysicalPlan::Append { children, .. } => {
            let mut out = Vec::new();
            for c in children {
                out.extend(exec(c, seg, storage, ctx)?);
            }
            Ok(out)
        }

        PhysicalPlan::InitPlanOids {
            param,
            table,
            key,
            child,
        } => {
            // Init plans run once and publish a global OID set. The
            // drivers pre-run them before the main plan; when traversal
            // visits the node again the parameter is already published
            // and this is a no-op (as it is on every segment but 0).
            if seg == SegmentId(0) && !ctx.oid_param_published(*param) {
                // Borrowed, not `Catalog::part_tree`: that deep-clones the tree.
                let desc = storage.catalog().table(*table)?;
                let tree = desc.part_tree()?;
                // Routing a single key value is only the full partitioning
                // function for single-level tables; the planner never
                // emits gates for multi-level ones, so such a plan is
                // invalid rather than silently mis-routed through the
                // first level alone.
                if tree.num_levels() != 1 {
                    return Err(Error::InvalidPlan(format!(
                        "InitPlanOids over {table}: legacy OID gating supports only \
                         single-level partitioned tables ({} levels found)",
                        tree.num_levels()
                    )));
                }
                let cols = child.output_cols();
                let key = compiled(key, &cols, ctx);
                let mut oids: HashSet<PartOid> = HashSet::new();
                for s in storage.segments() {
                    for row in exec(child, s, storage, ctx)? {
                        let v = key.eval(&row)?;
                        // Single level (checked above), so one value is the
                        // whole routing key.
                        if let Some(oid) = tree.route(std::slice::from_ref(&v)) {
                            oids.insert(oid);
                        }
                    }
                }
                ctx.set_oid_param(*param, oids);
            }
            Ok(Vec::new())
        }

        PhysicalPlan::Values { rows, .. } => {
            // Literal rows materialize on the master segment only.
            if seg == SegmentId(0) {
                Ok(rows.iter().cloned().map(Row::new).collect())
            } else {
                Ok(Vec::new())
            }
        }

        PhysicalPlan::Limit { n, child } => {
            let mut rows = exec(child, seg, storage, ctx)?;
            rows.truncate(*n as usize);
            Ok(rows)
        }

        PhysicalPlan::Sort { keys, child } => {
            let mut rows = exec(child, seg, storage, ctx)?;
            let cols = child.output_cols();
            let positions: Vec<(usize, bool)> = keys
                .iter()
                .map(|(k, desc)| {
                    cols.iter()
                        .position(|c| c == k)
                        .map(|i| (i, *desc))
                        .ok_or_else(|| Error::Execution(format!("sort column {k} missing")))
                })
                .collect::<Result<_>>()?;
            rows.sort_by(|a, b| {
                for &(i, desc) in &positions {
                    let ord = a.values()[i].cmp(&b.values()[i]);
                    let ord = if desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            Ok(rows)
        }

        PhysicalPlan::Update { .. } | PhysicalPlan::Delete { .. } | PhysicalPlan::Insert { .. } => {
            Err(Error::Execution(
                "DML must be the plan root (executed via exec_dml)".into(),
            ))
        }
    }
}

/// Motion routing: hand `seg` its share of the materialized child output.
#[allow(clippy::too_many_arguments)]
fn route_motion(
    kind: &MotionKind,
    per_source: &[Vec<Row>],
    seg: SegmentId,
    storage: &Storage,
    child: &PhysicalPlan,
    ctx: &ExecContext<'_>,
    id: mpp_common::MotionId,
) -> Result<Vec<Row>> {
    match kind {
        MotionKind::Gather => {
            if seg == SegmentId(0) {
                Ok(per_source.iter().flatten().cloned().collect())
            } else {
                Ok(Vec::new())
            }
        }
        MotionKind::GatherOne => {
            if seg == SegmentId(0) {
                Ok(per_source.first().cloned().unwrap_or_default())
            } else {
                Ok(Vec::new())
            }
        }
        MotionKind::Broadcast => {
            // Flatten the cache once per Motion and share it: each
            // destination still gets its own Vec (rows are refcounted),
            // but not its own walk over every source segment's output.
            let flat =
                ctx.broadcast_flattened(id, || per_source.iter().flatten().cloned().collect());
            Ok((*flat).clone())
        }
        MotionKind::Redistribute(cols) => {
            let child_cols = child.output_cols();
            let positions: Vec<usize> =
                cols.iter()
                    .map(|c| {
                        child_cols.iter().position(|x| x == c).ok_or_else(|| {
                            Error::Execution(format!("redistribute column {c} missing"))
                        })
                    })
                    .collect::<Result<_>>()?;
            let n = storage.num_segments() as u64;
            let mut out = Vec::new();
            for rows in per_source {
                for r in rows {
                    let target = (r.hash_columns(&positions) % n) as u32;
                    if SegmentId(target) == seg {
                        out.push(r.clone());
                    }
                }
            }
            Ok(out)
        }
    }
}

/// How one level of a dynamic PartitionSelector turns an input tuple into
/// a [`DerivedSet`], prepared once per selector execution.
enum LevelProbe<'a> {
    /// No predicate on this level: every piece stays selected.
    Full,
    /// `part_key = <input column>` — the shape every equality DPE join
    /// produces. The derived set is a point (or empty for a NULL driver),
    /// with no per-row expression substitution or derivation.
    EqInput(usize),
    /// Anything else: substitute the tuple's values and re-derive.
    General(&'a Expr),
}

impl LevelProbe<'_> {
    /// `get_val(i)` returns the current input tuple's value at row
    /// position `i` — a row or a block column, the probe doesn't care.
    fn derive(
        &self,
        get_val: &dyn Fn(usize) -> Datum,
        positions: &[(u32, usize)],
        ctx: &ExecContext<'_>,
        key: &ColRef,
    ) -> DerivedSet {
        match self {
            LevelProbe::Full => DerivedSet::full(),
            LevelProbe::EqInput(pos) => {
                let v = get_val(*pos);
                if v.is_null() {
                    // key = NULL never holds (same as derive_cmp).
                    DerivedSet::empty_exact()
                } else {
                    DerivedSet {
                        set: IntervalSet::point(v),
                        exact: true,
                        null_possible: false,
                    }
                }
            }
            LevelProbe::General(p) => {
                let subst: HashMap<u32, Expr> = positions
                    .iter()
                    .map(|&(id, i)| (id, Expr::Lit(get_val(i))))
                    .collect();
                let bound = mpp_expr::substitute_columns(p, &subst);
                derive_interval_set(&bound, key, Some(ctx.params))
            }
        }
    }
}

/// Does `pred` have the shape `key = <input col>` (either orientation)?
/// Returns the row position of the driving input column.
fn eq_input_probe(pred: &Expr, key: &ColRef, positions: &[(u32, usize)]) -> Option<usize> {
    let Expr::Cmp {
        op: CmpOp::Eq,
        left,
        right,
    } = pred
    else {
        return None;
    };
    let other = match (left.as_ref(), right.as_ref()) {
        (Expr::Col(c), other) if c == key => other,
        (other, Expr::Col(c)) if c == key => other,
        _ => return None,
    };
    match other {
        Expr::Col(c) => positions
            .iter()
            .find(|&&(id, _)| id == c.id)
            .map(|&(_, i)| i),
        _ => None,
    }
}

/// Per-tuple partition selection (dynamic elimination): substitute the
/// input tuple's values into each level predicate, derive the interval
/// set for the partitioning key, and propagate the selected OIDs. The
/// per-level probes are prepared once; the dominant equality shape skips
/// expression substitution entirely per row.
pub(crate) struct TupleSelector<'a> {
    tree: &'a PartTree,
    positions: Vec<(u32, usize)>,
    probes: Vec<(&'a ColRef, LevelProbe<'a>)>,
    seen: HashSet<Vec<Datum>>,
}

impl<'a> TupleSelector<'a> {
    /// Prepare the per-level probes once per selector execution.
    pub(crate) fn prepare(
        tree: &'a PartTree,
        part_keys: &'a [ColRef],
        predicates: &'a [Option<Expr>],
        child_cols: &[ColRef],
    ) -> Result<TupleSelector<'a>> {
        // Columns of the predicates that come from the input (not the
        // scan's partition keys): these get substituted per row.
        let key_set: HashSet<u32> = part_keys.iter().map(|k| k.id).collect();
        let mut input_cols: Vec<ColRef> = Vec::new();
        for p in predicates.iter().flatten() {
            for c in collect_columns(p) {
                if !key_set.contains(&c.id) && !input_cols.contains(&c) {
                    input_cols.push(c);
                }
            }
        }
        let positions: Vec<(u32, usize)> = input_cols
            .iter()
            .map(|c| {
                child_cols
                    .iter()
                    .position(|x| x == c)
                    .map(|i| (c.id, i))
                    .ok_or_else(|| {
                        Error::Execution(format!(
                            "PartitionSelector predicate references {c}, not in its input"
                        ))
                    })
            })
            .collect::<Result<_>>()?;

        let probes: Vec<(&ColRef, LevelProbe<'_>)> = part_keys
            .iter()
            .zip(predicates)
            .map(|(key, pred)| {
                let probe = match pred {
                    None => LevelProbe::Full,
                    Some(p) => match eq_input_probe(p, key, &positions) {
                        Some(pos) => LevelProbe::EqInput(pos),
                        None => LevelProbe::General(p),
                    },
                };
                (key, probe)
            })
            .collect();
        Ok(TupleSelector {
            tree,
            positions,
            probes,
            seen: HashSet::new(),
        })
    }

    /// Probe one input tuple, presented as a value accessor over its row
    /// positions. Dedup on the driving values spans every call on this
    /// selector, so a batch of blocks routes to one dedup'd OID set.
    pub(crate) fn observe(
        &mut self,
        get_val: &dyn Fn(usize) -> Datum,
        ctx: &ExecContext<'_>,
        propagate: &mut dyn FnMut(Vec<PartOid>),
    ) -> Result<()> {
        let key_vals: Vec<Datum> = self.positions.iter().map(|&(_, i)| get_val(i)).collect();
        if !self.seen.insert(key_vals) {
            return Ok(()); // same driving values → same partitions
        }
        let derived: Vec<DerivedSet> = self
            .probes
            .iter()
            .map(|(key, probe)| probe.derive(get_val, &self.positions, ctx, key))
            .collect();
        propagate(self.tree.select_partitions(&derived)?);
        Ok(())
    }
}

/// Per-tuple partition selection over materialized rows (row engine).
fn select_per_tuple(
    tree: &PartTree,
    part_keys: &[ColRef],
    predicates: &[Option<Expr>],
    rows: &[Row],
    child_cols: &[ColRef],
    ctx: &ExecContext<'_>,
    mut propagate: impl FnMut(Vec<PartOid>),
) -> Result<()> {
    let mut sel = TupleSelector::prepare(tree, part_keys, predicates, child_cols)?;
    for row in rows {
        sel.observe(&|i| row.values()[i].clone(), ctx, &mut propagate)?;
    }
    Ok(())
}

fn apply_filter(
    rows: Vec<Row>,
    filter: &Option<Expr>,
    output: &[ColRef],
    ctx: &ExecContext<'_>,
) -> Result<Vec<Row>> {
    match filter {
        None => Ok(rows),
        Some(pred) => {
            let pred = compiled(pred, output, ctx);
            let mut out = Vec::with_capacity(rows.len());
            for r in rows {
                if pred.eval_predicate(&r)? {
                    out.push(r);
                }
            }
            Ok(out)
        }
    }
}

pub(crate) fn null_row(width: usize) -> Row {
    Row::new(vec![Datum::Null; width])
}

/// Hash join building on the left (outer) side, probing with the right.
#[allow(clippy::too_many_arguments)]
pub(crate) fn hash_join(
    join_type: JoinType,
    left_keys: &[Expr],
    right_keys: &[Expr],
    residual: &Option<Expr>,
    left: &PhysicalPlan,
    right: &PhysicalPlan,
    l_rows: Vec<Row>,
    r_rows: Vec<Row>,
    ctx: &ExecContext<'_>,
) -> Result<Vec<Row>> {
    let l_cols = left.output_cols();
    let r_cols = right.output_cols();
    let l_keys: Vec<Arc<CompiledExpr>> = left_keys
        .iter()
        .map(|k| compiled(k, &l_cols, ctx))
        .collect();
    let r_keys: Vec<Arc<CompiledExpr>> = right_keys
        .iter()
        .map(|k| compiled(k, &r_cols, ctx))
        .collect();
    let mut joined_cols = l_cols.clone();
    joined_cols.extend(r_cols.clone());
    let residual = residual
        .as_ref()
        .map(|res| compiled(res, &joined_cols, ctx));

    // Build on the left.
    let mut table: HashMap<Vec<Datum>, Vec<usize>> = HashMap::new();
    let mut l_keysv: Vec<Option<Vec<Datum>>> = Vec::with_capacity(l_rows.len());
    for (i, r) in l_rows.iter().enumerate() {
        let mut key = Vec::with_capacity(l_keys.len());
        let mut has_null = false;
        for k in &l_keys {
            let v = k.eval(r)?;
            has_null |= v.is_null();
            key.push(v);
        }
        if has_null {
            l_keysv.push(None); // null keys never match
        } else {
            table.entry(key.clone()).or_default().push(i);
            l_keysv.push(Some(key));
        }
    }

    let mut matched = vec![false; l_rows.len()];
    let mut out = Vec::new();
    for rr in &r_rows {
        let mut key = Vec::with_capacity(r_keys.len());
        let mut has_null = false;
        for k in &r_keys {
            let v = k.eval(rr)?;
            has_null |= v.is_null();
            key.push(v);
        }
        if has_null {
            continue;
        }
        let Some(candidates) = table.get(&key) else {
            continue;
        };
        for &li in candidates {
            let joined = l_rows[li].concat(rr);
            if let Some(res) = &residual {
                if !res.eval_predicate(&joined)? {
                    continue;
                }
            }
            matched[li] = true;
            if join_type.outputs_right() {
                out.push(joined);
            }
        }
    }

    match join_type {
        JoinType::Inner => Ok(out),
        JoinType::LeftOuter => {
            let width = r_cols.len();
            for (i, l) in l_rows.iter().enumerate() {
                if !matched[i] {
                    out.push(l.concat(&null_row(width)));
                }
            }
            Ok(out)
        }
        JoinType::LeftSemi => Ok(l_rows
            .into_iter()
            .enumerate()
            .filter(|(i, _)| matched[*i])
            .map(|(_, r)| r)
            .collect()),
        JoinType::LeftAnti => Ok(l_rows
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !matched[*i])
            .map(|(_, r)| r)
            .collect()),
    }
}

/// Nested-loops join.
pub(crate) fn nl_join(
    join_type: JoinType,
    pred: &Option<Expr>,
    left: &PhysicalPlan,
    right: &PhysicalPlan,
    l_rows: Vec<Row>,
    r_rows: Vec<Row>,
    ctx: &ExecContext<'_>,
) -> Result<Vec<Row>> {
    let mut joined_cols = left.output_cols();
    let r_width = right.output_cols().len();
    joined_cols.extend(right.output_cols());
    let pred = pred.as_ref().map(|p| compiled(p, &joined_cols, ctx));
    let mut out = Vec::new();
    for l in &l_rows {
        let mut matched = false;
        for r in &r_rows {
            let joined = l.concat(r);
            let ok = match &pred {
                None => true,
                Some(p) => p.eval_predicate(&joined)?,
            };
            if ok {
                matched = true;
                match join_type {
                    JoinType::Inner | JoinType::LeftOuter => out.push(joined),
                    JoinType::LeftSemi => break,
                    JoinType::LeftAnti => break,
                }
            }
        }
        match join_type {
            JoinType::LeftOuter if !matched => out.push(l.concat(&null_row(r_width))),
            JoinType::LeftSemi if matched => out.push(l.clone()),
            JoinType::LeftAnti if !matched => out.push(l.clone()),
            _ => {}
        }
    }
    Ok(out)
}

/// One aggregate call's running state.
#[derive(Clone)]
pub(crate) struct Acc {
    count: i64,
    sum: f64,
    sum_is_float: bool,
    sum_i: i64,
    min: Option<Datum>,
    max: Option<Datum>,
    non_null: i64,
}

impl Acc {
    fn new() -> Acc {
        Acc {
            count: 0,
            sum: 0.0,
            sum_is_float: false,
            sum_i: 0,
            min: None,
            max: None,
            non_null: 0,
        }
    }

    /// Fold one row's argument value in (`None` = argument-less COUNT(*)).
    fn observe(&mut self, v: Option<Datum>) -> Result<()> {
        self.count += 1;
        if let Some(v) = v {
            if !v.is_null() {
                self.non_null += 1;
                match &v {
                    Datum::Float64(f) => {
                        self.sum_is_float = true;
                        self.sum += f;
                    }
                    Datum::Int32(_) | Datum::Int64(_) | Datum::Date(_) => {
                        let i = v.as_i64()?;
                        self.sum_i = self
                            .sum_i
                            .checked_add(i)
                            .ok_or_else(|| Error::Arithmetic("sum overflow".into()))?;
                        self.sum += i as f64;
                    }
                    _ => {}
                }
                match &self.min {
                    Some(m) if &v >= m => {}
                    _ => self.min = Some(v.clone()),
                }
                match &self.max {
                    Some(m) if &v <= m => {}
                    _ => self.max = Some(v),
                }
            }
        }
        Ok(())
    }

    fn finalize(&self, call: &AggCall) -> Datum {
        match call.func {
            AggFunc::Count => match &call.arg {
                None => Datum::Int64(self.count),
                Some(_) => Datum::Int64(self.non_null),
            },
            AggFunc::Sum => {
                if self.non_null == 0 {
                    Datum::Null
                } else if self.sum_is_float {
                    Datum::Float64(self.sum)
                } else {
                    Datum::Int64(self.sum_i)
                }
            }
            AggFunc::Avg => {
                if self.non_null == 0 {
                    Datum::Null
                } else {
                    Datum::Float64(self.sum / self.non_null as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Datum::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Datum::Null),
        }
    }
}

/// Row-at-a-time hash-aggregation state: the row engine's aggregation,
/// and the block engine's exact-first-error fallback (its strict path is
/// `agg_kernel.rs`). Group keys are built **once** per input row
/// and moved into the index on first sight (the former implementation
/// cloned each key up to three times per row); the per-group prefix row
/// is cloned once per *distinct* group.
pub(crate) struct AggExec {
    /// Compiled aggregate arguments (`None` = COUNT(*), no argument).
    pub(crate) args: Vec<Option<Arc<CompiledExpr>>>,
    /// Row positions of the GROUP BY columns in the child output.
    pub(crate) positions: Vec<usize>,
    index: HashMap<Vec<Datum>, usize>,
    /// Group states in first-seen order: (group-key values, accumulators).
    groups: Vec<(Vec<Datum>, Vec<Acc>)>,
}

impl AggExec {
    pub(crate) fn prepare(
        group_by: &[ColRef],
        aggs: &[AggCall],
        child_cols: &[ColRef],
        ctx: &ExecContext<'_>,
    ) -> Result<AggExec> {
        let args = aggs
            .iter()
            .map(|call| call.arg.as_ref().map(|e| compiled(e, child_cols, ctx)))
            .collect();
        let positions = group_by
            .iter()
            .map(|c| {
                child_cols
                    .iter()
                    .position(|x| x == c)
                    .ok_or_else(|| Error::Execution(format!("group column {c} missing")))
            })
            .collect::<Result<_>>()?;
        Ok(AggExec {
            args,
            positions,
            index: HashMap::new(),
            groups: Vec::new(),
        })
    }

    /// Slot index for a group key, creating the group on first sight. The
    /// key is moved, not cloned — the single extra copy (the group's
    /// output prefix) happens once per distinct group.
    fn slot(&mut self, key: Vec<Datum>) -> usize {
        let n_aggs = self.args.len();
        match self.index.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let i = self.groups.len();
                self.groups
                    .push((e.key().clone(), vec![Acc::new(); n_aggs]));
                e.insert(i);
                i
            }
        }
    }

    /// Fold one input row: build the key once, evaluate the arguments in
    /// call order.
    pub(crate) fn observe_row(&mut self, row: &Row) -> Result<()> {
        let key: Vec<Datum> = self
            .positions
            .iter()
            .map(|&i| row.values()[i].clone())
            .collect();
        let s = self.slot(key);
        for (acc, arg) in self.groups[s].1.iter_mut().zip(&self.args) {
            let v = match arg {
                None => None,
                Some(e) => Some(e.eval(row)?),
            };
            acc.observe(v)?;
        }
        Ok(())
    }

    /// Emit one output row per group, in first-seen order. Scalar
    /// aggregates over empty input produce one default row — on the
    /// singleton segment only (the optimizer gathers below scalar aggs,
    /// so segment 0 is where the single input slice lives).
    pub(crate) fn finalize(self, aggs: &[AggCall], seg: SegmentId) -> Result<Vec<Row>> {
        if self.groups.is_empty() && self.positions.is_empty() {
            if seg != SegmentId(0) {
                return Ok(Vec::new());
            }
            return Ok(vec![empty_scalar_row(aggs)]);
        }
        let mut out = Vec::with_capacity(self.groups.len());
        for (key, accs) in &self.groups {
            let mut vals: Vec<Datum> = key.clone();
            for (acc, call) in accs.iter().zip(aggs) {
                vals.push(acc.finalize(call));
            }
            out.push(Row::new(vals));
        }
        Ok(out)
    }
}

/// The one row a scalar aggregate emits over empty input: `COUNT` is 0,
/// everything else NULL.
pub(crate) fn empty_scalar_row(aggs: &[AggCall]) -> Row {
    let vals = aggs.iter().map(|call| match call.func {
        AggFunc::Count => Datum::Int64(0),
        _ => Datum::Null,
    });
    Row::new(vals.collect())
}

/// Hash aggregation (row engine).
fn hash_agg(
    group_by: &[ColRef],
    aggs: &[AggCall],
    rows: Vec<Row>,
    child_cols: &[ColRef],
    seg: SegmentId,
    ctx: &ExecContext<'_>,
) -> Result<Vec<Row>> {
    let mut agg = AggExec::prepare(group_by, aggs, child_cols, ctx)?;
    for row in &rows {
        agg.observe_row(row)?;
    }
    agg.finalize(aggs, seg)
}

/// Execute a DML plan (always the root). Statistics follow the rows:
/// `Storage::insert` folds what it appends into the leaf summaries and
/// `Storage::overwrite` moves the counts, so nothing is re-analyzed here
/// and the planning epoch does not move.
fn exec_dml(plan: &PhysicalPlan, storage: &Storage, ctx: &ExecContext<'_>) -> Result<Vec<Row>> {
    match plan {
        PhysicalPlan::Insert { table, child } => {
            let mut rows = Vec::new();
            for seg in storage.segments() {
                rows.extend(exec(child, seg, storage, ctx)?);
            }
            let n = storage.insert(*table, rows)?;
            Ok(vec![Row::new(vec![Datum::Int64(n as i64)])])
        }
        PhysicalPlan::Delete {
            table,
            target_cols,
            child,
        } => {
            let rows = collect_target_rows(child, target_cols, storage, ctx)?;
            let n = rows.len();
            delete_rows(*table, rows, storage)?;
            Ok(vec![Row::new(vec![Datum::Int64(n as i64)])])
        }
        PhysicalPlan::Update {
            table,
            target_cols,
            assignments,
            child,
        } => {
            // Materialize old rows and their replacements first (the scan
            // must not observe its own updates).
            let child_cols = child.output_cols();
            let assignments: Vec<(usize, Arc<CompiledExpr>)> = assignments
                .iter()
                .map(|(idx, e)| (*idx, compiled(e, &child_cols, ctx)))
                .collect();
            let positions: Vec<usize> = target_cols
                .iter()
                .map(|c| {
                    child_cols
                        .iter()
                        .position(|x| x == c)
                        .ok_or_else(|| Error::Execution(format!("update column {c} missing")))
                })
                .collect::<Result<_>>()?;
            let mut old_rows = Vec::new();
            let mut new_rows = Vec::new();
            for seg in storage.segments() {
                for row in exec(child, seg, storage, ctx)? {
                    let old = row.project(&positions);
                    let mut vals: Vec<Datum> = old.values().to_vec();
                    for (idx, e) in &assignments {
                        vals[*idx] = e.eval(&row)?;
                    }
                    old_rows.push(old);
                    new_rows.push(Row::new(vals));
                }
            }
            let n = old_rows.len();
            delete_rows(*table, old_rows, storage)?;
            // Re-inserting routes updated tuples to their (possibly new)
            // partition and segment — cross-partition updates included.
            storage.insert(*table, new_rows)?;
            Ok(vec![Row::new(vec![Datum::Int64(n as i64)])])
        }
        other => Err(Error::Execution(format!(
            "exec_dml called on {}",
            other.name()
        ))),
    }
}

fn collect_target_rows(
    child: &PhysicalPlan,
    target_cols: &[ColRef],
    storage: &Storage,
    ctx: &ExecContext<'_>,
) -> Result<Vec<Row>> {
    let child_cols = child.output_cols();
    let positions: Vec<usize> = target_cols
        .iter()
        .map(|c| {
            child_cols
                .iter()
                .position(|x| x == c)
                .ok_or_else(|| Error::Execution(format!("target column {c} missing")))
        })
        .collect::<Result<_>>()?;
    let mut out = Vec::new();
    for seg in storage.segments() {
        for row in exec(child, seg, storage, ctx)? {
            out.push(row.project(&positions));
        }
    }
    Ok(out)
}

/// Remove rows by value, one stored instance per requested instance (bag
/// semantics).
fn delete_rows(table: TableOid, rows: Vec<Row>, storage: &Storage) -> Result<()> {
    // Group removal counts by storage location. locate_row returns every
    // location for replicated tables; a hashed/singleton table has
    // exactly one.
    let mut by_loc: HashMap<(PhysId, SegmentId), HashMap<Row, usize>> = HashMap::new();
    for row in rows {
        for loc in storage.locate_row(table, &row)? {
            *by_loc
                .entry(loc)
                .or_default()
                .entry(row.clone())
                .or_insert(0) += 1;
        }
    }
    for ((phys, seg), mut counts) in by_loc {
        let current = storage.scan(phys, seg);
        let mut kept = Vec::with_capacity(current.len());
        for r in current {
            match counts.get_mut(&r) {
                Some(c) if *c > 0 => *c -= 1,
                _ => kept.push(r),
            }
        }
        storage.overwrite(phys, seg, kept);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpp_catalog::builders::range_parts_equal_width;
    use mpp_catalog::{Catalog, Distribution, TableDesc};
    use mpp_common::{row, Column, DataType, PartScanId, Schema};

    fn cr(id: u32, name: &str) -> ColRef {
        ColRef::new(id, name)
    }

    /// R(a, b): hash on a, 10 partitions on b over [0, 100).
    /// S(a, b): hash on a, unpartitioned.
    fn setup() -> (Storage, TableOid, TableOid) {
        let cat = Catalog::new();
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int32),
            Column::new("b", DataType::Int32),
        ]);
        let r = cat.allocate_table_oid();
        let first = cat.allocate_part_oids(10);
        cat.register(TableDesc {
            oid: r,
            name: "r".into(),
            schema: schema.clone(),
            distribution: Distribution::Hashed(vec![0]),
            partitioning: Some(
                range_parts_equal_width(1, Datum::Int32(0), Datum::Int32(100), 10, first).unwrap(),
            ),
        })
        .unwrap();
        let s = cat.allocate_table_oid();
        cat.register(TableDesc {
            oid: s,
            name: "s".into(),
            schema,
            distribution: Distribution::Hashed(vec![0]),
            partitioning: None,
        })
        .unwrap();
        let st = Storage::new(cat, 4);
        st.insert(r, (0..100).map(|i| row![i, i])).unwrap();
        st.insert(s, (0..10).map(|i| row![i, i * 10])).unwrap();
        (st, r, s)
    }

    fn r_scan(r: TableOid, id: u32) -> PhysicalPlan {
        PhysicalPlan::DynamicScan {
            table: r,
            table_name: "r".into(),
            part_scan_id: PartScanId(id),
            output: vec![cr(1, "a"), cr(2, "b")],
            filter: None,
            restrict: None,
        }
    }

    fn static_selector(r: TableOid, id: u32, pred: Option<Expr>) -> PhysicalPlan {
        PhysicalPlan::PartitionSelector {
            table: r,
            table_name: "r".into(),
            part_scan_id: PartScanId(id),
            part_keys: vec![cr(2, "b")],
            predicates: vec![pred],
            child: None,
        }
    }

    #[test]
    fn full_dynamic_scan_reads_everything() {
        // Figure 5(a): selector with no predicate → all 10 parts.
        let (st, r, _) = setup();
        let plan = PhysicalPlan::Motion {
            kind: MotionKind::Gather,
            child: Box::new(PhysicalPlan::Sequence {
                children: vec![static_selector(r, 1, None), r_scan(r, 1)],
            }),
        };
        let res = execute(&st, &plan).unwrap();
        assert_eq!(res.rows.len(), 100);
        assert_eq!(res.stats.parts_scanned_for(r), 10);
    }

    #[test]
    fn equality_selection_scans_one_part() {
        // Figure 5(b): b = 35 → only the [30, 40) partition.
        let (st, r, _) = setup();
        let pred = Expr::eq(Expr::col(cr(2, "b")), Expr::lit(35i32));
        let plan = PhysicalPlan::Motion {
            kind: MotionKind::Gather,
            child: Box::new(PhysicalPlan::Filter {
                pred: pred.clone(),
                child: Box::new(PhysicalPlan::Sequence {
                    children: vec![static_selector(r, 1, Some(pred)), r_scan(r, 1)],
                }),
            }),
        };
        let res = execute(&st, &plan).unwrap();
        assert_eq!(res.rows.len(), 1);
        assert_eq!(res.stats.parts_scanned_for(r), 1);
    }

    #[test]
    fn range_selection_scans_matching_parts() {
        // Figure 5(c): b < 25 → 3 partitions.
        let (st, r, _) = setup();
        let pred = Expr::lt(Expr::col(cr(2, "b")), Expr::lit(25i32));
        let plan = PhysicalPlan::Motion {
            kind: MotionKind::Gather,
            child: Box::new(PhysicalPlan::Filter {
                pred: pred.clone(),
                child: Box::new(PhysicalPlan::Sequence {
                    children: vec![static_selector(r, 1, Some(pred)), r_scan(r, 1)],
                }),
            }),
        };
        let res = execute(&st, &plan).unwrap();
        assert_eq!(res.rows.len(), 25);
        assert_eq!(res.stats.parts_scanned_for(r), 3);
    }

    #[test]
    fn two_selectors_one_scan_count_each_part_once() {
        // Two static selectors probe the same DynamicScan with
        // overlapping selections: b < 25 → parts {0,1,2} and
        // b BETWEEN 15 AND 45 → parts {1,2,3,4}. The registry unions
        // per (scan, segment) into a set, so the scan must open the 5
        // distinct partitions exactly once each — `parts_scanned` and
        // `part_opens` must not double-count the overlap {1,2}.
        let (st, r, _) = setup();
        let p1 = Expr::lt(Expr::col(cr(2, "b")), Expr::lit(25i32));
        let p2 = Expr::between(Expr::col(cr(2, "b")), Expr::lit(15i32), Expr::lit(45i32));
        let plan = PhysicalPlan::Motion {
            kind: MotionKind::Gather,
            child: Box::new(PhysicalPlan::Sequence {
                children: vec![
                    static_selector(r, 1, Some(p1)),
                    static_selector(r, 1, Some(p2)),
                    r_scan(r, 1),
                ],
            }),
        };
        for engine in [ExecEngine::Row, ExecEngine::Batch] {
            let res = execute_with_params_sched(&st, &plan, &[], engine, &SchedConfig::default())
                .unwrap();
            // Parts {0..=4} hold b ∈ [0, 50): rows 0..50.
            assert_eq!(res.rows.len(), 50, "{engine:?}");
            assert_eq!(res.stats.parts_scanned_for(r), 5, "{engine:?}");
            // Every segment opens each distinct partition once; the
            // overlap would push this to 7 per segment if propagations
            // accumulated instead of unioned.
            assert_eq!(res.stats.part_opens, 5 * 4, "{engine:?}");
            assert_eq!(res.stats.selector_runs, 2 * 4, "{engine:?}");
        }
    }

    #[test]
    fn append_stitched_branches_count_each_part_once() {
        // The adaptive optimizer stitches per-group plans with an Append
        // whose branches each carry a restricted DynamicScan (own
        // part_scan_id). With deliberately *overlapping* restricts —
        // parts {0,1,2} and {1,2,3,4} — `parts_scanned` must stay a set
        // of 5 distinct parts, not 7; only `part_opens` sees every open.
        let (st, r, _) = setup();
        let leaves: Vec<PartOid> = st
            .catalog()
            .part_tree(r)
            .unwrap()
            .leaves()
            .iter()
            .map(|l| l.oid)
            .collect();
        let branch = |id: u32, group: &[usize]| {
            let mut scan = r_scan(r, id);
            if let PhysicalPlan::DynamicScan { restrict, .. } = &mut scan {
                *restrict = Some(group.iter().map(|&i| leaves[i]).collect());
            }
            PhysicalPlan::Sequence {
                children: vec![static_selector(r, id, None), scan],
            }
        };
        let plan = PhysicalPlan::Motion {
            kind: MotionKind::Gather,
            child: Box::new(PhysicalPlan::Append {
                output: vec![cr(1, "a"), cr(2, "b")],
                children: vec![branch(1, &[0, 1, 2]), branch(2, &[1, 2, 3, 4])],
            }),
        };
        for engine in [ExecEngine::Row, ExecEngine::Batch] {
            let res = execute_with_params_sched(&st, &plan, &[], engine, &SchedConfig::default())
                .unwrap();
            // Branch 1 reads b ∈ [0,30), branch 2 reads b ∈ [10,50).
            assert_eq!(res.rows.len(), 30 + 40, "{engine:?}");
            assert_eq!(res.stats.parts_scanned_for(r), 5, "{engine:?}");
            // Each branch opens its own group on every segment: the
            // overlap {1,2} is opened by both (7 opens/segment), but the
            // distinct-parts set above must not double-count it.
            assert_eq!(res.stats.part_opens, 7 * 4, "{engine:?}");
            assert_eq!(res.stats.scan_rows[&r], 70, "{engine:?}");
        }
    }

    #[test]
    fn join_dpe_scans_only_matching_parts() {
        // Figure 5(d): selector on the outer side driven by S tuples.
        let (st, r, s) = setup();
        // Keep only S rows with b ∈ {0, 10} → partitions [0,10) and [10,20).
        let s_scan = PhysicalPlan::TableScan {
            table: s,
            table_name: "s".into(),
            output: vec![cr(3, "sa"), cr(4, "sb")],
            filter: Some(Expr::lt(Expr::col(cr(4, "sb")), Expr::lit(20i32))),
        };
        let selector = PhysicalPlan::PartitionSelector {
            table: r,
            table_name: "r".into(),
            part_scan_id: PartScanId(1),
            part_keys: vec![cr(2, "b")],
            predicates: vec![Some(Expr::eq(
                Expr::col(cr(2, "b")),
                Expr::col(cr(4, "sb")),
            ))],
            child: Some(Box::new(PhysicalPlan::Motion {
                kind: MotionKind::Broadcast,
                child: Box::new(s_scan),
            })),
        };
        let join = PhysicalPlan::HashJoin {
            join_type: JoinType::Inner,
            left_keys: vec![Expr::col(cr(4, "sb"))],
            right_keys: vec![Expr::col(cr(2, "b"))],
            residual: None,
            left: Box::new(selector),
            right: Box::new(r_scan(r, 1)),
        };
        let plan = PhysicalPlan::Motion {
            kind: MotionKind::Gather,
            child: Box::new(join),
        };
        let res = execute(&st, &plan).unwrap();
        // S rows with sb<20: (0,0) and (1,10); R matches b=0 and b=10.
        assert_eq!(res.rows.len(), 2);
        assert_eq!(
            res.stats.parts_scanned_for(r),
            2,
            "DPE must prune to 2 parts"
        );
    }

    #[test]
    fn scan_without_selector_fails() {
        let (st, r, _) = setup();
        let plan = PhysicalPlan::Motion {
            kind: MotionKind::Gather,
            child: Box::new(r_scan(r, 1)),
        };
        let err = execute(&st, &plan).unwrap_err();
        assert_eq!(err.kind(), "invalid_plan");
    }

    #[test]
    fn prepared_parameter_selection() {
        // b = $1, bound at run time (the prepared-statement case of §1).
        let (st, r, _) = setup();
        let pred = Expr::eq(Expr::col(cr(2, "b")), Expr::Param(1));
        let plan = PhysicalPlan::Motion {
            kind: MotionKind::Gather,
            child: Box::new(PhysicalPlan::Filter {
                pred: pred.clone(),
                child: Box::new(PhysicalPlan::Sequence {
                    children: vec![static_selector(r, 1, Some(pred)), r_scan(r, 1)],
                }),
            }),
        };
        let res = run_on(&st, &plan, &[Datum::Int32(42)], 1).unwrap();
        assert_eq!(res.rows.len(), 1);
        assert_eq!(res.rows[0], row![42, 42]);
        assert_eq!(res.stats.parts_scanned_for(r), 1);
        // A different binding selects a different partition.
        let res = run_on(&st, &plan, &[Datum::Int32(7)], 1).unwrap();
        assert_eq!(res.rows[0], row![7, 7]);
    }

    #[test]
    fn redistribute_motion_rebalances() {
        let (st, _, s) = setup();
        // Redistribute S on sb, then count per segment via scan outputs.
        let scan = PhysicalPlan::TableScan {
            table: s,
            table_name: "s".into(),
            output: vec![cr(3, "sa"), cr(4, "sb")],
            filter: None,
        };
        let plan = PhysicalPlan::Motion {
            kind: MotionKind::Redistribute(vec![cr(4, "sb")]),
            child: Box::new(scan),
        };
        // Executing the whole plan returns the union over segments: all 10
        // rows exactly once.
        let res = execute(&st, &plan).unwrap();
        assert_eq!(res.rows.len(), 10);
        assert!(res.stats.rows_moved >= 10);
    }

    #[test]
    fn broadcast_motion_replicates() {
        let (st, _, s) = setup();
        let scan = PhysicalPlan::TableScan {
            table: s,
            table_name: "s".into(),
            output: vec![cr(3, "sa"), cr(4, "sb")],
            filter: None,
        };
        let plan = PhysicalPlan::Motion {
            kind: MotionKind::Broadcast,
            child: Box::new(scan),
        };
        let res = execute(&st, &plan).unwrap();
        // Every one of 4 segments sees all 10 rows.
        assert_eq!(res.rows.len(), 40);
    }

    #[test]
    fn hash_join_types() {
        let (st, _, s) = setup();
        let left = PhysicalPlan::Values {
            rows: vec![
                vec![Datum::Int32(1)],
                vec![Datum::Int32(2)],
                vec![Datum::Int32(99)],
                vec![Datum::Null],
            ],
            output: vec![cr(10, "x")],
        };
        let right = PhysicalPlan::Motion {
            kind: MotionKind::Gather,
            child: Box::new(PhysicalPlan::TableScan {
                table: s,
                table_name: "s".into(),
                output: vec![cr(3, "sa"), cr(4, "sb")],
                filter: None,
            }),
        };
        let mk = |jt| PhysicalPlan::HashJoin {
            join_type: jt,
            left_keys: vec![Expr::col(cr(10, "x"))],
            right_keys: vec![Expr::col(cr(3, "sa"))],
            residual: None,
            left: Box::new(left.clone()),
            right: Box::new(right.clone()),
        };
        let inner = execute(&st, &mk(JoinType::Inner)).unwrap();
        assert_eq!(inner.rows.len(), 2);
        assert_eq!(inner.rows[0].len(), 3);
        let semi = execute(&st, &mk(JoinType::LeftSemi)).unwrap();
        assert_eq!(semi.rows.len(), 2);
        assert_eq!(semi.rows[0].len(), 1);
        let anti = execute(&st, &mk(JoinType::LeftAnti)).unwrap();
        // 99 and NULL have no match.
        assert_eq!(anti.rows.len(), 2);
        let outer = execute(&st, &mk(JoinType::LeftOuter)).unwrap();
        assert_eq!(outer.rows.len(), 4);
        let nulls = outer
            .rows
            .iter()
            .filter(|r| r.values()[1].is_null())
            .count();
        assert_eq!(nulls, 2);
    }

    #[test]
    fn aggregation_with_groups_and_nulls() {
        let (st, _, _) = setup();
        let values = PhysicalPlan::Values {
            rows: vec![
                vec![Datum::Int32(1), Datum::Int32(10)],
                vec![Datum::Int32(1), Datum::Null],
                vec![Datum::Int32(2), Datum::Int32(5)],
            ],
            output: vec![cr(1, "g"), cr(2, "v")],
        };
        let agg = PhysicalPlan::HashAgg {
            group_by: vec![cr(1, "g")],
            aggs: vec![
                AggCall::count_star(),
                AggCall::new(AggFunc::Count, Expr::col(cr(2, "v"))),
                AggCall::new(AggFunc::Sum, Expr::col(cr(2, "v"))),
                AggCall::new(AggFunc::Avg, Expr::col(cr(2, "v"))),
                AggCall::new(AggFunc::Min, Expr::col(cr(2, "v"))),
            ],
            output: vec![
                cr(1, "g"),
                cr(20, "c1"),
                cr(21, "c2"),
                cr(22, "s"),
                cr(23, "a"),
                cr(24, "m"),
            ],
            child: Box::new(values),
        };
        let res = execute(&st, &agg).unwrap();
        assert_eq!(res.rows.len(), 2);
        let g1 = res
            .rows
            .iter()
            .find(|r| r.values()[0] == Datum::Int32(1))
            .unwrap();
        assert_eq!(g1.values()[1], Datum::Int64(2)); // count(*)
        assert_eq!(g1.values()[2], Datum::Int64(1)); // count(v)
        assert_eq!(g1.values()[3], Datum::Int64(10)); // sum
        assert_eq!(g1.values()[4], Datum::Float64(10.0)); // avg ignores null
        assert_eq!(g1.values()[5], Datum::Int32(10)); // min
    }

    #[test]
    fn scalar_agg_on_empty_input() {
        let (st, _, _) = setup();
        let agg = PhysicalPlan::HashAgg {
            group_by: vec![],
            aggs: vec![
                AggCall::count_star(),
                AggCall::new(AggFunc::Sum, Expr::col(cr(1, "x"))),
            ],
            output: vec![cr(20, "c"), cr(21, "s")],
            child: Box::new(PhysicalPlan::Values {
                rows: vec![],
                output: vec![cr(1, "x")],
            }),
        };
        let res = execute(&st, &agg).unwrap();
        // The empty-input scalar-agg row is produced on segment 0 only
        // (the optimizer gathers below scalar aggregates).
        assert_eq!(res.rows.len(), 1);
        assert_eq!(res.rows[0].values()[0], Datum::Int64(0));
        assert_eq!(res.rows[0].values()[1], Datum::Null);
    }

    #[test]
    fn legacy_gated_part_scans() {
        // Legacy dynamic elimination: init plan computes the OID set, the
        // Append lists every partition with a gate.
        let (st, r, s) = setup();
        let tree = st.catalog().part_tree(r).unwrap();
        let init = PhysicalPlan::InitPlanOids {
            param: 1,
            table: r,
            key: Expr::col(cr(4, "sb")),
            child: Box::new(PhysicalPlan::TableScan {
                table: s,
                table_name: "s".into(),
                output: vec![cr(3, "sa"), cr(4, "sb")],
                filter: Some(Expr::lt(Expr::col(cr(4, "sb")), Expr::lit(20i32))),
            }),
        };
        let scans: Vec<PhysicalPlan> = tree
            .leaves()
            .iter()
            .map(|leaf| PhysicalPlan::PartScan {
                table: r,
                part: leaf.oid,
                part_name: leaf.name.clone(),
                output: vec![cr(1, "a"), cr(2, "b")],
                filter: None,
                gate: Some(1),
            })
            .collect();
        let plan = PhysicalPlan::Motion {
            kind: MotionKind::Gather,
            child: Box::new(PhysicalPlan::Sequence {
                children: vec![
                    init,
                    PhysicalPlan::Append {
                        output: vec![cr(1, "a"), cr(2, "b")],
                        children: scans,
                    },
                ],
            }),
        };
        let res = execute(&st, &plan).unwrap();
        // Gated to partitions containing b=0 and b=10: 20 rows.
        assert_eq!(res.rows.len(), 20);
        assert_eq!(res.stats.parts_scanned_for(r), 2);
    }

    #[test]
    fn dml_insert_update_delete() {
        let (st, r, _) = setup();
        // INSERT two rows.
        let ins = PhysicalPlan::Insert {
            table: r,
            child: Box::new(PhysicalPlan::Values {
                rows: vec![
                    vec![Datum::Int32(200), Datum::Int32(55)],
                    vec![Datum::Int32(201), Datum::Int32(56)],
                ],
                output: vec![cr(1, "a"), cr(2, "b")],
            }),
        };
        let res = execute(&st, &ins).unwrap();
        assert_eq!(res.rows[0], row![2i64]);
        assert_eq!(st.row_count(r).unwrap(), 102);

        // UPDATE: move b=55 → b=5 (crosses partitions).
        let scan = PhysicalPlan::Sequence {
            children: vec![
                static_selector(
                    r,
                    1,
                    Some(Expr::eq(Expr::col(cr(2, "b")), Expr::lit(55i32))),
                ),
                r_scan(r, 1),
            ],
        };
        let upd = PhysicalPlan::Update {
            table: r,
            target_cols: vec![cr(1, "a"), cr(2, "b")],
            assignments: vec![(1, Expr::lit(5i32))],
            child: Box::new(PhysicalPlan::Filter {
                pred: Expr::eq(Expr::col(cr(2, "b")), Expr::lit(55i32)),
                child: Box::new(scan),
            }),
        };
        let res = execute(&st, &upd).unwrap();
        assert_eq!(res.rows[0], row![2i64]); // rows 55 (original) + 55 (inserted)
        assert_eq!(st.row_count(r).unwrap(), 102);

        // DELETE everything with b < 10 (now includes the moved rows).
        let scan = PhysicalPlan::Sequence {
            children: vec![
                static_selector(
                    r,
                    2,
                    Some(Expr::lt(Expr::col(cr(2, "b")), Expr::lit(10i32))),
                ),
                PhysicalPlan::DynamicScan {
                    table: r,
                    table_name: "r".into(),
                    part_scan_id: PartScanId(2),
                    output: vec![cr(1, "a"), cr(2, "b")],
                    filter: Some(Expr::lt(Expr::col(cr(2, "b")), Expr::lit(10i32))),
                    restrict: None,
                },
            ],
        };
        let del = PhysicalPlan::Delete {
            table: r,
            target_cols: vec![cr(1, "a"), cr(2, "b")],
            child: Box::new(scan),
        };
        let res = execute(&st, &del).unwrap();
        assert_eq!(res.rows[0], row![12i64]); // 10 original + 2 moved
        assert_eq!(st.row_count(r).unwrap(), 90);
    }

    #[test]
    fn multilevel_dynamic_selection() {
        // Two-level table: 5 ranges × 2 list values.
        let cat = Catalog::new();
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int32),
            Column::new("region", DataType::Utf8),
        ]);
        let t = cat.allocate_table_oid();
        let first = cat.allocate_part_oids(10);
        let tree = mpp_catalog::PartTree::new(
            vec![
                mpp_catalog::builders::range_level_equal_width(
                    0,
                    Datum::Int32(0),
                    Datum::Int32(50),
                    5,
                )
                .unwrap(),
                mpp_catalog::builders::list_level(
                    1,
                    vec![
                        ("r1".into(), vec![Datum::str("A")]),
                        ("r2".into(), vec![Datum::str("B")]),
                    ],
                    false,
                )
                .unwrap(),
            ],
            first,
        )
        .unwrap();
        cat.register(TableDesc {
            oid: t,
            name: "t".into(),
            schema,
            distribution: Distribution::Hashed(vec![0]),
            partitioning: Some(tree),
        })
        .unwrap();
        let st = Storage::new(cat, 4);
        st.insert(
            t,
            (0..50).map(|i| {
                Row::new(vec![
                    Datum::Int32(i),
                    Datum::str(if i % 2 == 0 { "A" } else { "B" }),
                ])
            }),
        )
        .unwrap();

        // k = 7 AND region = 'B' → exactly one leaf.
        let keys = vec![cr(1, "k"), cr(2, "region")];
        let plan = PhysicalPlan::Motion {
            kind: MotionKind::Gather,
            child: Box::new(PhysicalPlan::Sequence {
                children: vec![
                    PhysicalPlan::PartitionSelector {
                        table: t,
                        table_name: "t".into(),
                        part_scan_id: PartScanId(1),
                        part_keys: keys.clone(),
                        predicates: vec![
                            Some(Expr::eq(Expr::col(cr(1, "k")), Expr::lit(7i32))),
                            Some(Expr::eq(Expr::col(cr(2, "region")), Expr::lit("B"))),
                        ],
                        child: None,
                    },
                    PhysicalPlan::DynamicScan {
                        table: t,
                        table_name: "t".into(),
                        part_scan_id: PartScanId(1),
                        output: keys,
                        filter: Some(Expr::eq(Expr::col(cr(1, "k")), Expr::lit(7i32))),
                        restrict: None,
                    },
                ],
            }),
        };
        let res = execute(&st, &plan).unwrap();
        assert_eq!(res.rows.len(), 1);
        assert_eq!(res.stats.parts_scanned_for(t), 1);
    }

    // ---- worker-count equivalence and error behavior ----

    /// Execute on the default engine with exactly `workers` workers.
    fn run_on(
        st: &Storage,
        plan: &PhysicalPlan,
        params: &[Datum],
        workers: usize,
    ) -> Result<QueryResult> {
        let sched = SchedConfig::with_workers(workers);
        execute_with_params_sched(st, plan, params, ExecEngine::default(), &sched)
    }

    fn row_counts(rows: &[Row]) -> HashMap<Row, usize> {
        let mut m = HashMap::new();
        for r in rows {
            *m.entry(r.clone()).or_insert(0) += 1;
        }
        m
    }

    /// One worker (streamed root) and one worker per segment (staged
    /// root) must return the same bag of rows and identical merged
    /// statistics (everything except per-segment `elapsed`).
    fn assert_worker_counts_agree(
        st: &Storage,
        plan: &PhysicalPlan,
        params: &[Datum],
    ) -> QueryResult {
        let seq = run_on(st, plan, params, 1).unwrap();
        let par = run_on(st, plan, params, st.num_segments()).unwrap();
        assert_eq!(row_counts(&seq.rows), row_counts(&par.rows));
        assert_eq!(seq.stats.parts_scanned, par.stats.parts_scanned);
        assert_eq!(seq.stats.part_opens, par.stats.part_opens);
        assert_eq!(seq.stats.table_scans, par.stats.table_scans);
        assert_eq!(seq.stats.tuples_scanned, par.stats.tuples_scanned);
        assert_eq!(seq.stats.rows_moved, par.stats.rows_moved);
        assert_eq!(seq.stats.motions, par.stats.motions);
        assert_eq!(seq.stats.selector_runs, par.stats.selector_runs);
        assert_eq!(seq.stats.per_motion_rows, par.stats.per_motion_rows);
        assert_eq!(seq.stats.per_segment.len(), par.stats.per_segment.len());
        for (s, p) in seq.stats.per_segment.iter().zip(&par.stats.per_segment) {
            assert_eq!(s.parts_scanned, p.parts_scanned);
            assert_eq!(s.part_opens, p.part_opens);
            assert_eq!(s.table_scans, p.table_scans);
            assert_eq!(s.tuples_scanned, p.tuples_scanned);
            assert_eq!(s.rows_moved, p.rows_moved);
            assert_eq!(s.selector_runs, p.selector_runs);
        }
        par
    }

    #[test]
    fn parallel_matches_sequential_on_dynamic_scans() {
        let (st, r, _) = setup();
        let pred = Expr::lt(Expr::col(cr(2, "b")), Expr::lit(25i32));
        let plan = PhysicalPlan::Motion {
            kind: MotionKind::Gather,
            child: Box::new(PhysicalPlan::Filter {
                pred: pred.clone(),
                child: Box::new(PhysicalPlan::Sequence {
                    children: vec![static_selector(r, 1, Some(pred)), r_scan(r, 1)],
                }),
            }),
        };
        let res = assert_worker_counts_agree(&st, &plan, &[]);
        assert_eq!(res.rows.len(), 25);
        assert_eq!(res.stats.parts_scanned_for(r), 3);
    }

    #[test]
    fn parallel_matches_sequential_on_dpe_join() {
        // The Figure 5(d) shape: a Broadcast stage feeding a selector
        // that drives the dynamic scan on each segment.
        let (st, r, s) = setup();
        let s_scan = PhysicalPlan::TableScan {
            table: s,
            table_name: "s".into(),
            output: vec![cr(3, "sa"), cr(4, "sb")],
            filter: Some(Expr::lt(Expr::col(cr(4, "sb")), Expr::lit(20i32))),
        };
        let selector = PhysicalPlan::PartitionSelector {
            table: r,
            table_name: "r".into(),
            part_scan_id: PartScanId(1),
            part_keys: vec![cr(2, "b")],
            predicates: vec![Some(Expr::eq(
                Expr::col(cr(2, "b")),
                Expr::col(cr(4, "sb")),
            ))],
            child: Some(Box::new(PhysicalPlan::Motion {
                kind: MotionKind::Broadcast,
                child: Box::new(s_scan),
            })),
        };
        let join = PhysicalPlan::HashJoin {
            join_type: JoinType::Inner,
            left_keys: vec![Expr::col(cr(4, "sb"))],
            right_keys: vec![Expr::col(cr(2, "b"))],
            residual: None,
            left: Box::new(selector),
            right: Box::new(r_scan(r, 1)),
        };
        let plan = PhysicalPlan::Motion {
            kind: MotionKind::Gather,
            child: Box::new(join),
        };
        let res = assert_worker_counts_agree(&st, &plan, &[]);
        assert_eq!(res.rows.len(), 2);
        assert_eq!(res.stats.parts_scanned_for(r), 2);
    }

    #[test]
    fn parallel_matches_sequential_with_params() {
        let (st, r, _) = setup();
        let pred = Expr::eq(Expr::col(cr(2, "b")), Expr::Param(1));
        let plan = PhysicalPlan::Motion {
            kind: MotionKind::Gather,
            child: Box::new(PhysicalPlan::Filter {
                pred: pred.clone(),
                child: Box::new(PhysicalPlan::Sequence {
                    children: vec![static_selector(r, 1, Some(pred)), r_scan(r, 1)],
                }),
            }),
        };
        let res = assert_worker_counts_agree(&st, &plan, &[Datum::Int32(42)]);
        assert_eq!(res.rows, vec![row![42, 42]]);
        assert_eq!(res.stats.parts_scanned_for(r), 1);
    }

    #[test]
    fn parallel_detects_invalid_plan() {
        // §3.1: DynamicScan whose selector never ran must error with one
        // worker per segment exactly like with one worker.
        let (st, r, _) = setup();
        let plan = PhysicalPlan::Motion {
            kind: MotionKind::Gather,
            child: Box::new(r_scan(r, 1)),
        };
        for workers in [1, st.num_segments()] {
            let err = run_on(&st, &plan, &[], workers).unwrap_err();
            assert_eq!(err.kind(), "invalid_plan", "workers={workers}");
        }
    }

    #[test]
    fn parallel_legacy_gated_part_scans_block_until_published() {
        // The legacy gate is the cross-thread case: segment 0 computes
        // the OID set while segments 1–3 block at their first gate.
        let (st, r, s) = setup();
        let tree = st.catalog().part_tree(r).unwrap();
        let init = PhysicalPlan::InitPlanOids {
            param: 1,
            table: r,
            key: Expr::col(cr(4, "sb")),
            child: Box::new(PhysicalPlan::TableScan {
                table: s,
                table_name: "s".into(),
                output: vec![cr(3, "sa"), cr(4, "sb")],
                filter: Some(Expr::lt(Expr::col(cr(4, "sb")), Expr::lit(20i32))),
            }),
        };
        let scans: Vec<PhysicalPlan> = tree
            .leaves()
            .iter()
            .map(|leaf| PhysicalPlan::PartScan {
                table: r,
                part: leaf.oid,
                part_name: leaf.name.clone(),
                output: vec![cr(1, "a"), cr(2, "b")],
                filter: None,
                gate: Some(1),
            })
            .collect();
        let plan = PhysicalPlan::Motion {
            kind: MotionKind::Gather,
            child: Box::new(PhysicalPlan::Sequence {
                children: vec![
                    init,
                    PhysicalPlan::Append {
                        output: vec![cr(1, "a"), cr(2, "b")],
                        children: scans,
                    },
                ],
            }),
        };
        let res = assert_worker_counts_agree(&st, &plan, &[]);
        assert_eq!(res.rows.len(), 20);
        assert_eq!(res.stats.parts_scanned_for(r), 2);
    }

    #[test]
    fn gate_below_motion_reads_publisher_above_it() {
        // The legacy planner emits Sequence[InitPlanOids, Join(...,
        // Broadcast(gated Append))]: the gate sits in an *earlier* stage
        // than its publisher's slice. Init plans pre-run before the main
        // plan at every worker count, so this works — and identically.
        let (st, r, s) = setup();
        let part = st.catalog().part_tree(r).unwrap().leaves()[0].oid;
        let plan = PhysicalPlan::Append {
            output: vec![cr(1, "a"), cr(2, "b")],
            children: vec![
                PhysicalPlan::Motion {
                    kind: MotionKind::Gather,
                    child: Box::new(PhysicalPlan::PartScan {
                        table: r,
                        part,
                        part_name: "p".into(),
                        output: vec![cr(1, "a"), cr(2, "b")],
                        filter: None,
                        gate: Some(1),
                    }),
                },
                PhysicalPlan::InitPlanOids {
                    param: 1,
                    table: r,
                    key: Expr::col(cr(4, "sb")),
                    child: Box::new(PhysicalPlan::TableScan {
                        table: s,
                        table_name: "s".into(),
                        output: vec![cr(3, "sa"), cr(4, "sb")],
                        filter: None,
                    }),
                },
            ],
        };
        // S values 0..10 route to partition [0,10) = the first leaf: the
        // gate admits the scan, so its 10 rows come back either way.
        let res = assert_worker_counts_agree(&st, &plan, &[]);
        assert_eq!(res.rows.len(), 10);
        assert_eq!(res.stats.parts_scanned_for(r), 1);
    }

    #[test]
    fn init_plan_oids_rejects_multilevel_table() {
        // Regression: InitPlanOids used to route the key through level 0
        // only, silently picking wrong partitions on multi-level tables.
        let cat = Catalog::new();
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int32),
            Column::new("region", DataType::Utf8),
        ]);
        let t = cat.allocate_table_oid();
        let first = cat.allocate_part_oids(10);
        let tree = mpp_catalog::PartTree::new(
            vec![
                mpp_catalog::builders::range_level_equal_width(
                    0,
                    Datum::Int32(0),
                    Datum::Int32(50),
                    5,
                )
                .unwrap(),
                mpp_catalog::builders::list_level(
                    1,
                    vec![
                        ("r1".into(), vec![Datum::str("A")]),
                        ("r2".into(), vec![Datum::str("B")]),
                    ],
                    false,
                )
                .unwrap(),
            ],
            first,
        )
        .unwrap();
        cat.register(TableDesc {
            oid: t,
            name: "t".into(),
            schema,
            distribution: Distribution::Hashed(vec![0]),
            partitioning: Some(tree),
        })
        .unwrap();
        let st = Storage::new(cat, 4);
        st.insert(t, (0..10).map(|i| row![i, "A"])).unwrap();

        let leaves = st.catalog().part_tree(t).unwrap().leaves().to_vec();
        let plan = PhysicalPlan::Sequence {
            children: vec![
                PhysicalPlan::InitPlanOids {
                    param: 1,
                    table: t,
                    key: Expr::col(cr(1, "k")),
                    child: Box::new(PhysicalPlan::Values {
                        rows: vec![vec![Datum::Int32(7)]],
                        output: vec![cr(1, "k")],
                    }),
                },
                PhysicalPlan::PartScan {
                    table: t,
                    part: leaves[0].oid,
                    part_name: leaves[0].name.clone(),
                    output: vec![cr(1, "k"), cr(2, "region")],
                    filter: None,
                    gate: Some(1),
                },
            ],
        };
        for workers in [1, st.num_segments()] {
            let err = run_on(&st, &plan, &[], workers).unwrap_err();
            assert_eq!(err.kind(), "invalid_plan", "workers={workers}");
            assert!(err.to_string().contains("single-level"), "{err}");
        }
    }

    #[test]
    fn motion_cache_key_is_stable_across_clones() {
        // Address-keyed caching regressed when plans were cloned: the
        // clone's nodes had fresh addresses and missed the cache/stats
        // keys. Stable MotionIds make the clone behave identically.
        let (st, r, _) = setup();
        let plan = PhysicalPlan::Motion {
            kind: MotionKind::Gather,
            child: Box::new(PhysicalPlan::Sequence {
                children: vec![static_selector(r, 1, None), r_scan(r, 1)],
            }),
        };
        let a = execute(&st, &plan).unwrap();
        let b = execute(&st, &plan.clone()).unwrap();
        assert_eq!(a.stats.motions, b.stats.motions);
        assert_eq!(a.stats.per_motion_rows, b.stats.per_motion_rows);
        assert_eq!(
            a.stats.per_motion_rows.get(&mpp_common::MotionId(0)),
            Some(&100)
        );
    }
}
