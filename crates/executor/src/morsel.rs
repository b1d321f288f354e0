//! Morsel-driven work-stealing execution.
//!
//! This module is the one stage driver behind every worker count and both
//! [`ExecEngine`]s: the plan is cut into slices at Motion boundaries
//! (children before parents), and each stage's work is decomposed into
//! *tasks* that run on a small work-stealing scheduler ([`run_tasks`]).
//! The worker count ([`SchedConfig::workers`]) is the only scheduling
//! decision. With one worker the tasks drain in deque order on the
//! calling thread — segment-major evaluation order — and a root Gather
//! streams to the sink per segment (`stream_root`); with more, every
//! stage, the root included, runs on the pool.
//!
//! For the row engine — and for block-engine slices whose shape doesn't
//! fuse — a task is "one segment's slice", matching the old per-segment
//! thread model. For block-engine slices of the shape
//!
//! ```text
//! (Filter|Project)* [HashAgg] (Filter|Project)*
//!     (TableScan | PartScan | DynamicScan | Append[PartScan..]
//!      | Sequence[static selectors.., scan])
//! ```
//!
//! the slice is *fused*: each segment's scan output is cut into morsels of
//! at most [`SchedConfig::morsel_rows`] rows (partition × block ranges),
//! and every morsel runs the whole scan→filter→project→partial-agg
//! pipeline as one task. A skewed partition therefore spreads over all
//! workers instead of serializing its segment's thread, and the fused
//! pipeline keeps per-morsel group state in the typed aggregation kernel
//! (`agg_kernel.rs`, shared with the unfused `HashAgg` arm) instead
//! of per-row `Vec<Datum>` keys.
//!
//! ## Determinism
//!
//! Results must be bit-identical to the per-segment drivers at every
//! worker count:
//!
//! * the morsel decomposition depends only on the stored blocks and
//!   `morsel_rows` — never on the worker count — and per-segment results
//!   (blocks, partial aggregates, buffered stats) are merged in morsel
//!   order, so stats and rows are scheduling-independent;
//! * fused tasks accumulate into *buffered* [`SegmentStats`], absorbed
//!   into the shared context only when the whole segment succeeds;
//! * any morsel error — and any merge whose result the partial
//!   accumulators cannot prove exact (int-sum overflow detected via i128
//!   prefix extremes, float sums merged across morsels, whose value
//!   depends on addition order) — discards the segment's buffered state
//!   and **re-runs that segment's slice through the unfused
//!   [`exec_block`] path**, adopting whatever that reference run produces
//!   (rows or error). Row-fallback error *ordering* therefore always
//!   matches the row engine: the re-run surfaces the row-major-first
//!   error, regardless of which morsel failed first under stealing.
//!
//! Static partition selectors run once per segment on the driver thread
//! (they publish OID sets and count `selector_runs` against the real
//! context); the re-run path strips them from the slice so their stats
//! are never double-counted.

use crate::agg_kernel::{AggSpec, Finalized, PartialAgg};
use crate::block_exec::{exec_block, filter_block_core, project_block_core, rows_to_chunks};
use crate::context::ExecContext;
use crate::exec::{compiled, exec, AggExec, ExecEngine};
use crate::pool;
use crate::slice::SlicePlan;
use crate::stats::SegmentStats;
use crate::stream::{ResultChunk, RowSink};
use mpp_common::{
    Error, MotionId, PartOid, PartScanId, Result, Row, RowBlock, SegmentId, TableOid,
};
use mpp_expr::CompiledExpr;
use mpp_plan::{MotionKind, PhysicalPlan};
use mpp_storage::{PhysId, Storage};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Scheduler configuration. Not part of any plan-cache key: it changes
/// how a plan executes, never what it computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SchedConfig {
    /// Worker count; `None` means one. One worker runs every task on the
    /// calling thread and streams a root Gather per segment; more run
    /// the tasks on the shared pool with stealing and stage the root.
    pub workers: Option<usize>,
    /// Maximum logical rows per morsel.
    pub morsel_rows: usize,
}

impl Default for SchedConfig {
    fn default() -> SchedConfig {
        SchedConfig {
            workers: None,
            morsel_rows: 4096,
        }
    }
}

impl SchedConfig {
    /// Default morsels on exactly `workers` workers.
    pub fn with_workers(workers: usize) -> SchedConfig {
        SchedConfig {
            workers: Some(workers),
            ..SchedConfig::default()
        }
    }
}

/// Run `tasks` on `workers` workers with work stealing and return each
/// task's result in task order (`None` = the task panicked).
///
/// Tasks are dealt round-robin onto per-worker deques; a worker pops its
/// own deque from the front and steals from the back of others. Worker 0
/// is the calling thread; workers 1.. are jobs on the shared segment
/// pool. With one worker this degenerates to draining the single deque
/// FIFO on the caller — exact sequential order. A panicking task is
/// caught per task: the other tasks still run, the workers drain to
/// completion, and nothing leaks (the pool threads outlive the call by
/// design and `pool::run_with` joins every job before returning).
pub(crate) fn run_tasks<'env, T: Send>(
    workers: usize,
    tasks: Vec<Box<dyn FnOnce() -> T + Send + 'env>>,
) -> Vec<Option<T>> {
    let n = tasks.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    type Deque<'env, T> = Mutex<VecDeque<(usize, Box<dyn FnOnce() -> T + Send + 'env>)>>;
    let deques: Vec<Deque<'env, T>> = (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, t) in tasks.into_iter().enumerate() {
        deques[i % workers].lock().push_back((i, t));
    }
    let drain = |me: usize| loop {
        let task = {
            let own = deques[me].lock().pop_front();
            own.or_else(|| (1..workers).find_map(|d| deques[(me + d) % workers].lock().pop_back()))
        };
        match task {
            None => break,
            Some((idx, f)) => {
                if let Ok(v) = catch_unwind(AssertUnwindSafe(f)) {
                    *slots[idx].lock() = Some(v);
                }
            }
        }
    };
    let drain = &drain;
    let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (1..workers)
        .map(|w| Box::new(move || drain(w)) as Box<dyn FnOnce() + Send + '_>)
        .collect();
    let ((), _oks) = pool::run_with(jobs, || drain(0));
    slots.into_iter().map(|m| m.into_inner()).collect()
}

/// Run one closure per segment on the scheduler and join the results in
/// segment order, first error wins (a panicked task reports as the same
/// internal error the per-segment pool driver used).
fn run_per_segment<T, F>(workers: usize, segs: &[SegmentId], f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(SegmentId) -> Result<T> + Sync,
{
    let f = &f;
    let tasks: Vec<Box<dyn FnOnce() -> Result<T> + Send + '_>> = segs
        .iter()
        .map(|&seg| Box::new(move || f(seg)) as Box<dyn FnOnce() -> Result<T> + Send + '_>)
        .collect();
    run_tasks(workers, tasks)
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| Err(Error::Internal("segment worker panicked".into()))))
        .collect()
}

/// The unified stage driver: materialize every Motion stage in
/// children-before-parents order, then run the root slice, emitting its
/// output through `sink` chunk by chunk. Every worker count and both
/// engines route through here, so Motions always materialize eagerly
/// stage by stage. Returns the number of rows emitted.
pub(crate) fn run_stages_stream(
    plan: &PhysicalPlan,
    storage: &Storage,
    ctx: &ExecContext<'_>,
    engine: ExecEngine,
    sched: &SchedConfig,
    sink: &mut RowSink<'_>,
) -> Result<u64> {
    let slices = SlicePlan::cut(plan);
    // From here on every Motion a task reads must come from a stage (or
    // from the init-plan phase, whose subtree Motions are already cached
    // and whose stages are skipped below).
    ctx.freeze_motions();
    let segs: Vec<SegmentId> = storage.segments().collect();
    if segs.is_empty() {
        return Ok(0);
    }
    let workers = sched.workers.unwrap_or(1).max(1);
    match engine {
        ExecEngine::Row => run_stages_rows(&slices, storage, ctx, workers, &segs, sink),
        ExecEngine::Batch => run_stages_blocks(&slices, storage, ctx, workers, &segs, sched, sink),
    }
}

/// The incremental-delivery fast path: when the plan root is an uncached
/// `Motion{Gather}` and exactly one worker runs, the final Gather is not
/// materialized as a stage at all — each segment's child-slice output is
/// handed to the sink as that segment finishes, so the first chunks
/// reach a network client while later segments are still scanning.
///
/// This is observable-behavior-identical to the staged path: Gather
/// consumption on segment 0 records no stats (it takes the preroute
/// copy), the single `record_motion_counts` still happens exactly once
/// after *all* segments succeeded, rows arrive in segment order, and the
/// first error in segment order wins either way.
fn stream_root<'p>(
    slices: &SlicePlan<'p>,
    ctx: &ExecContext<'_>,
    workers: usize,
) -> Option<(MotionId, &'p PhysicalPlan)> {
    if workers != 1 {
        // Several workers overlap segments; streaming them one segment at
        // a time would serialize the workers. Keep the staged path.
        return None;
    }
    match slices.root {
        PhysicalPlan::Motion {
            kind: MotionKind::Gather,
            child,
        } => {
            let id = ctx.motion_id_of(slices.root).ok()?;
            // An init-plan phase may have materialized this Motion
            // already; consuming the cache is then the correct path.
            if ctx.motion_cached(id).is_none() && ctx.motion_cached_blocks(id).is_none() {
                Some((id, child.as_ref()))
            } else {
                None
            }
        }
        _ => None,
    }
}

fn run_stages_rows(
    slices: &SlicePlan<'_>,
    storage: &Storage,
    ctx: &ExecContext<'_>,
    workers: usize,
    segs: &[SegmentId],
    sink: &mut RowSink<'_>,
) -> Result<u64> {
    // One task per segment; with `preroute` set (Gather stages) each task
    // clones its own output while the rows are warm, concatenated in
    // segment order — byte-identical to what `route_motion` assembles.
    let run_slice = |node: &PhysicalPlan, preroute: bool| -> Result<(Vec<Vec<Row>>, Vec<Row>)> {
        let pairs = run_per_segment(workers, segs, |seg| {
            let t0 = Instant::now();
            let res = exec(node, seg, storage, ctx);
            ctx.seg_stats(seg).elapsed += t0.elapsed();
            res.map(|rows| {
                let copy = if preroute { rows.clone() } else { Vec::new() };
                (rows, copy)
            })
        })?;
        let mut per_source = Vec::with_capacity(pairs.len());
        let mut routed = Vec::new();
        for (rows, copy) in pairs {
            per_source.push(rows);
            routed.extend(copy);
        }
        Ok((per_source, routed))
    };

    let streamed = stream_root(slices, ctx, workers);
    for site in &slices.stages {
        ctx.check_cancel()?;
        let id = ctx.motion_id_of(site.node)?;
        if matches!(streamed, Some((sid, _)) if sid == id) {
            // The root Gather streams; its child runs below, per segment.
            continue;
        }
        if ctx.motion_cached(id).is_some() {
            continue;
        }
        let preroute = matches!(site.kind, MotionKind::Gather);
        let (per_source, routed) = run_slice(site.child, preroute)?;
        ctx.record_motion(id, &per_source);
        ctx.motion_store(id, Arc::new(per_source));
        if preroute {
            ctx.preroute_put(id, routed);
        }
    }
    ctx.check_cancel()?;
    if let Some((id, child)) = streamed {
        let mut counts = Vec::with_capacity(segs.len());
        let mut total = 0u64;
        for &seg in segs {
            ctx.check_cancel()?;
            let t0 = Instant::now();
            let res = exec(child, seg, storage, ctx);
            ctx.seg_stats(seg).elapsed += t0.elapsed();
            let rows = res?;
            counts.push(rows.len() as u64);
            total += rows.len() as u64;
            if !rows.is_empty() {
                ctx.check_cancel()?;
                sink(ResultChunk::Rows(rows))?;
            }
        }
        // Recorded only once the whole Gather succeeded — the staged
        // path's stats carry no trace of a failed materialization either.
        ctx.record_motion_counts(id, &counts);
        return Ok(total);
    }
    let (per_segment, _) = run_slice(slices.root, false)?;
    let mut total = 0u64;
    for rows in per_segment {
        total += rows.len() as u64;
        if !rows.is_empty() {
            ctx.check_cancel()?;
            sink(ResultChunk::Rows(rows))?;
        }
    }
    Ok(total)
}

#[allow(clippy::too_many_arguments)]
fn run_stages_blocks(
    slices: &SlicePlan<'_>,
    storage: &Storage,
    ctx: &ExecContext<'_>,
    workers: usize,
    segs: &[SegmentId],
    sched: &SchedConfig,
    sink: &mut RowSink<'_>,
) -> Result<u64> {
    let run_slice =
        |node: &PhysicalPlan, preroute: bool| -> Result<(Vec<Vec<RowBlock>>, Vec<RowBlock>)> {
            if let Some(fused) = FusedSlice::analyze(node, ctx) {
                return run_fused(&fused, storage, ctx, workers, segs, sched, preroute);
            }
            let pairs = run_per_segment(workers, segs, |seg| {
                let t0 = Instant::now();
                let res = exec_block(node, seg, storage, ctx);
                ctx.seg_stats(seg).elapsed += t0.elapsed();
                res.map(|chunks| {
                    let copy = if preroute { chunks.clone() } else { Vec::new() };
                    (chunks, copy)
                })
            })?;
            let mut per_source = Vec::with_capacity(pairs.len());
            let mut routed = Vec::new();
            for (chunks, copy) in pairs {
                per_source.push(chunks);
                routed.extend(copy);
            }
            Ok((per_source, routed))
        };

    let streamed = stream_root(slices, ctx, workers);
    for site in &slices.stages {
        ctx.check_cancel()?;
        let id = ctx.motion_id_of(site.node)?;
        if matches!(streamed, Some((sid, _)) if sid == id) {
            // The root Gather streams; its child runs below, per segment.
            continue;
        }
        // Skip stages already materialized — by an earlier stage, or by
        // the init-plan phase (init subtrees run the row engine and cache
        // rows; their Motions are never consumed by the main traversal).
        if ctx.motion_cached_blocks(id).is_some() || ctx.motion_cached(id).is_some() {
            continue;
        }
        let preroute = matches!(site.kind, MotionKind::Gather);
        let (per_source, routed) = run_slice(site.child, preroute)?;
        let counts: Vec<u64> = per_source
            .iter()
            .map(|chunks| chunks.iter().map(|b| b.len() as u64).sum())
            .collect();
        ctx.record_motion_counts(id, &counts);
        ctx.motion_store_blocks(id, Arc::new(per_source));
        if preroute {
            ctx.preroute_blocks_put(id, routed);
        }
    }
    ctx.check_cancel()?;
    if let Some((id, child)) = streamed {
        // Analyze once; the fused driver then runs one segment at a time
        // so chunks stream out as each segment completes. Single-segment
        // invocations produce the same morsel decomposition, merge order
        // and stats as one all-segments invocation — only the scheduling
        // envelope shrinks.
        let fused = FusedSlice::analyze(child, ctx);
        let mut counts = Vec::with_capacity(segs.len());
        let mut total = 0u64;
        for &seg in segs {
            ctx.check_cancel()?;
            let chunks = match &fused {
                Some(f) => {
                    let (mut per_source, _) =
                        run_fused(f, storage, ctx, workers, &[seg], sched, false)?;
                    per_source.pop().unwrap_or_default()
                }
                None => {
                    let t0 = Instant::now();
                    let res = exec_block(child, seg, storage, ctx);
                    ctx.seg_stats(seg).elapsed += t0.elapsed();
                    res?
                }
            };
            let rows: u64 = chunks.iter().map(|b| b.len() as u64).sum();
            counts.push(rows);
            total += rows;
            // A cancel check per block, not just per segment: a Cancel
            // frame arriving while a big segment result drains to a
            // network sink must stop at the next block boundary.
            for b in chunks {
                if !b.is_empty() {
                    ctx.check_cancel()?;
                    sink(ResultChunk::Block(b))?;
                }
            }
        }
        ctx.record_motion_counts(id, &counts);
        return Ok(total);
    }
    let (per_segment, _) = run_slice(slices.root, false)?;
    let mut total = 0u64;
    for chunks in per_segment {
        for b in chunks {
            total += b.len() as u64;
            if !b.is_empty() {
                ctx.check_cancel()?;
                sink(ResultChunk::Block(b))?;
            }
        }
    }
    Ok(total)
}

// ---------------------------------------------------------------------
// Fused slices
// ---------------------------------------------------------------------

/// A fused pipeline operator above the scan.
enum FusedOp {
    Filter(Arc<CompiledExpr>),
    Project(Vec<Arc<CompiledExpr>>),
}

/// One partition scan of an `Append` (or a lone `PartScan`).
struct PartSpec {
    table: TableOid,
    part: PartOid,
    gate: Option<u32>,
    filter: Option<Arc<CompiledExpr>>,
}

/// Blocks enumerated from a segment, each with its scan-embedded filter.
type ScannedBlocks = Vec<(RowBlock, Option<Arc<CompiledExpr>>)>;

/// Where a fused slice's blocks come from.
enum FusedSource {
    Table {
        table: TableOid,
        filter: Option<Arc<CompiledExpr>>,
    },
    Parts(Vec<PartSpec>),
    Dynamic {
        table: TableOid,
        id: PartScanId,
        filter: Option<Arc<CompiledExpr>>,
        /// Adaptive group branch: intersect the selector-propagated OIDs
        /// with this set before scanning (mirrors `DynamicScan::restrict`).
        restrict: Option<Vec<PartOid>>,
    },
}

struct FusedSlice<'p> {
    /// Static partition selectors (a `Sequence` prefix), run once per
    /// segment on the driver against the real context.
    selectors: Vec<&'p PhysicalPlan>,
    source: FusedSource,
    /// Per-morsel operators below the aggregation (scan-embedded filters
    /// ride on each enumerated block instead — they can differ per
    /// `Append` child).
    pre_ops: Vec<FusedOp>,
    agg: Option<AggSpec<'p>>,
    /// Operators above the aggregation; they see at most one chunk per
    /// segment and run on the driver after the merge.
    post_ops: Vec<FusedOp>,
    /// The slice child itself — the reference path for re-runs.
    node: &'p PhysicalPlan,
    /// Re-run plan with the selector prefix stripped (only built when
    /// selectors exist): selectors already ran during enumeration, and
    /// running them twice would double-count `selector_runs`.
    rerun: Option<PhysicalPlan>,
}

impl<'p> FusedSlice<'p> {
    /// Decide whether `node` has the fusable shape, compiling every
    /// expression once. Anything unexpected — including a compile-time
    /// aggregation error — declines fusion so the per-segment reference
    /// path surfaces identical behavior.
    fn analyze(node: &'p PhysicalPlan, ctx: &ExecContext<'_>) -> Option<FusedSlice<'p>> {
        let mut cur = node;
        let mut post_rev: Vec<FusedOp> = Vec::new();
        let mut pre_rev: Vec<FusedOp> = Vec::new();
        let mut agg: Option<AggSpec<'p>> = None;
        loop {
            match cur {
                PhysicalPlan::Filter { pred, child } => {
                    let op = FusedOp::Filter(compiled(pred, &child.output_cols(), ctx));
                    if agg.is_some() {
                        pre_rev.push(op);
                    } else {
                        post_rev.push(op);
                    }
                    cur = child;
                }
                PhysicalPlan::Project { exprs, child, .. } => {
                    let cols = child.output_cols();
                    let op =
                        FusedOp::Project(exprs.iter().map(|e| compiled(e, &cols, ctx)).collect());
                    if agg.is_some() {
                        pre_rev.push(op);
                    } else {
                        post_rev.push(op);
                    }
                    cur = child;
                }
                PhysicalPlan::HashAgg {
                    group_by,
                    aggs,
                    child,
                    ..
                } => {
                    if agg.is_some() {
                        return None;
                    }
                    let prep = AggExec::prepare(group_by, aggs, &child.output_cols(), ctx).ok()?;
                    agg = Some(AggSpec::new(&prep, aggs, cur.output_cols().len()));
                    cur = child;
                }
                _ => break,
            }
        }
        if agg.is_none() {
            // No aggregation: every operator runs per morsel.
            pre_rev = std::mem::take(&mut post_rev);
        }
        pre_rev.reverse();
        post_rev.reverse();

        let (selectors, src_node): (Vec<&'p PhysicalPlan>, &'p PhysicalPlan) = match cur {
            PhysicalPlan::Sequence { children } => {
                let (last, init) = children.split_last()?;
                if !init
                    .iter()
                    .all(|c| matches!(c, PhysicalPlan::PartitionSelector { child: None, .. }))
                {
                    return None;
                }
                (init.iter().collect(), last)
            }
            _ => (Vec::new(), cur),
        };
        let part_spec = |c: &PhysicalPlan| -> Option<PartSpec> {
            match c {
                PhysicalPlan::PartScan {
                    table,
                    part,
                    output,
                    filter,
                    gate,
                    ..
                } => Some(PartSpec {
                    table: *table,
                    part: *part,
                    gate: *gate,
                    filter: filter.as_ref().map(|f| compiled(f, output, ctx)),
                }),
                _ => None,
            }
        };
        let source = match src_node {
            PhysicalPlan::TableScan {
                table,
                output,
                filter,
                ..
            } => FusedSource::Table {
                table: *table,
                filter: filter.as_ref().map(|f| compiled(f, output, ctx)),
            },
            PhysicalPlan::PartScan { .. } => FusedSource::Parts(vec![part_spec(src_node)?]),
            PhysicalPlan::DynamicScan {
                table,
                part_scan_id,
                output,
                filter,
                restrict,
                ..
            } => FusedSource::Dynamic {
                table: *table,
                id: *part_scan_id,
                filter: filter.as_ref().map(|f| compiled(f, output, ctx)),
                restrict: restrict.clone(),
            },
            PhysicalPlan::Append { children, .. } => {
                FusedSource::Parts(children.iter().map(part_spec).collect::<Option<Vec<_>>>()?)
            }
            _ => return None,
        };
        let rerun = if selectors.is_empty() {
            None
        } else {
            Some(strip_selectors(node))
        };
        Some(FusedSlice {
            selectors,
            source,
            pre_ops: pre_rev,
            agg,
            post_ops: post_rev,
            node,
            rerun,
        })
    }

    /// Scan this segment's blocks, recording scan stats into a *local*
    /// buffer. Mirrors the scan arms of [`exec_block`] exactly (including
    /// the no-record early return of a gated-out `PartScan`).
    fn enumerate_segment(
        &self,
        seg: SegmentId,
        storage: &Storage,
        ctx: &ExecContext<'_>,
    ) -> Result<(SegmentStats, ScannedBlocks)> {
        let mut local = SegmentStats::default();
        let mut blocks = Vec::new();
        let mut push = |block: Option<RowBlock>, filter: &Option<Arc<CompiledExpr>>| {
            if let Some(b) = block {
                if !b.is_empty() {
                    blocks.push((b, filter.clone()));
                }
            }
        };
        match &self.source {
            FusedSource::Table { table, filter } => {
                let block = storage.scan_block(PhysId::Table(*table), seg);
                local.record_table_scan(*table, block.as_ref().map_or(0, |b| b.len()));
                push(block, filter);
            }
            FusedSource::Parts(specs) => {
                for s in specs {
                    ctx.check_cancel()?;
                    if let Some(g) = s.gate {
                        if !ctx.oid_param_contains(g, s.part)? {
                            continue;
                        }
                    }
                    let block = storage.scan_block(PhysId::Part(s.part), seg);
                    local.record_part_scan(s.table, s.part, block.as_ref().map_or(0, |b| b.len()));
                    push(block, &s.filter);
                }
            }
            FusedSource::Dynamic {
                table,
                id,
                filter,
                restrict,
            } => {
                let mut oids = ctx.consume_parts(*id, seg)?;
                if let Some(keep) = restrict {
                    oids.retain(|oid| keep.contains(oid));
                }
                let scans =
                    storage.scan_batch_blocks(oids.iter().map(|&oid| PhysId::Part(oid)), seg);
                for (oid, (_, block)) in oids.iter().zip(scans) {
                    ctx.check_cancel()?;
                    local.record_part_scan(*table, *oid, block.as_ref().map_or(0, |b| b.len()));
                    push(block, filter);
                }
            }
        }
        Ok((local, blocks))
    }
}

/// Clone the fused spine with the `Sequence` selector prefix removed: the
/// re-run path must not run selectors again. Only the linear fused shape
/// is ever passed here.
fn strip_selectors(node: &PhysicalPlan) -> PhysicalPlan {
    match node {
        PhysicalPlan::Sequence { children } => children
            .last()
            .cloned()
            .expect("fused Sequence has a scan child"),
        PhysicalPlan::Filter { pred, child } => PhysicalPlan::Filter {
            pred: pred.clone(),
            child: Box::new(strip_selectors(child)),
        },
        PhysicalPlan::Project {
            exprs,
            output,
            child,
        } => PhysicalPlan::Project {
            exprs: exprs.clone(),
            output: output.clone(),
            child: Box::new(strip_selectors(child)),
        },
        PhysicalPlan::HashAgg {
            group_by,
            aggs,
            output,
            child,
        } => PhysicalPlan::HashAgg {
            group_by: group_by.clone(),
            aggs: aggs.clone(),
            output: output.clone(),
            child: Box::new(strip_selectors(child)),
        },
        other => other.clone(),
    }
}

/// What one morsel task hands back to the driver.
enum MorselPayload {
    /// Filter/project pipeline output (`None` = fully filtered out).
    Blocks(Option<RowBlock>),
    /// Per-morsel partial aggregation state.
    Agg(Box<PartialAgg>),
}

struct MorselOut {
    stats: SegmentStats,
    payload: MorselPayload,
}

/// Run the fused pipeline over one morsel, accumulating stats locally.
fn run_morsel(
    fused: &FusedSlice<'_>,
    block: RowBlock,
    scan_filter: Option<Arc<CompiledExpr>>,
) -> Result<MorselOut> {
    let t0 = Instant::now();
    let mut stats = SegmentStats::default();
    // Densify sliced morsels up front: expression kernels evaluate
    // *physical* columns, so a sel-backed slice of a big stored block
    // would re-evaluate the whole block for every morsel cut from it —
    // O(block) work per O(morsel) slice.
    let block = if block.sel().is_some() {
        block.compact()
    } else {
        block
    };
    let mut cur = Some(block);
    if let Some(pred) = &scan_filter {
        cur = filter_block_core(pred, cur.take().expect("morsel block"), &mut stats)?;
    }
    if cur.is_some() {
        for op in &fused.pre_ops {
            match op {
                FusedOp::Filter(pred) => {
                    cur = filter_block_core(pred, cur.take().expect("live block"), &mut stats)?;
                }
                FusedOp::Project(exprs) => {
                    let nb =
                        project_block_core(exprs, cur.as_ref().expect("live block"), &mut stats)?;
                    cur = if nb.is_empty() {
                        None
                    } else {
                        stats.blocks_produced += 1;
                        Some(nb)
                    };
                }
            }
            if cur.is_none() {
                break;
            }
        }
    }
    let payload = match &fused.agg {
        Some(agg) => {
            let mut pa = PartialAgg::new(agg.calls.len());
            if let Some(b) = &cur {
                pa.absorb(b, agg, &mut stats)?;
            }
            MorselPayload::Agg(Box::new(pa))
        }
        None => MorselPayload::Blocks(cur),
    };
    stats.elapsed += t0.elapsed();
    Ok(MorselOut { stats, payload })
}

/// Apply the post-aggregation operators to a segment's chunk list,
/// mirroring the Filter/Project arms of [`exec_block`].
fn apply_ops(
    mut chunks: Vec<RowBlock>,
    ops: &[FusedOp],
    stats: &mut SegmentStats,
) -> Result<Vec<RowBlock>> {
    for op in ops {
        let mut next = Vec::with_capacity(chunks.len());
        for b in chunks {
            match op {
                FusedOp::Filter(pred) => {
                    if let Some(nb) = filter_block_core(pred, b, stats)? {
                        next.push(nb);
                    }
                }
                FusedOp::Project(exprs) => {
                    let nb = project_block_core(exprs, &b, stats)?;
                    if !nb.is_empty() {
                        stats.blocks_produced += 1;
                        next.push(nb);
                    }
                }
            }
        }
        chunks = next;
    }
    Ok(chunks)
}

/// Drive one fused slice: selectors, enumeration, morsel tasks, merge.
#[allow(clippy::too_many_arguments)]
fn run_fused(
    fused: &FusedSlice<'_>,
    storage: &Storage,
    ctx: &ExecContext<'_>,
    workers: usize,
    segs: &[SegmentId],
    sched: &SchedConfig,
    preroute: bool,
) -> Result<(Vec<Vec<RowBlock>>, Vec<RowBlock>)> {
    let n_segs = segs.len();
    let mut seg_errs: Vec<Option<Error>> = Vec::with_capacity(n_segs);
    seg_errs.resize_with(n_segs, || None);
    let mut seg_stats: Vec<SegmentStats> = vec![SegmentStats::default(); n_segs];

    // Selectors publish OID sets and count against the real context; the
    // segment re-run path never repeats them.
    for (i, &seg) in segs.iter().enumerate() {
        for sel in &fused.selectors {
            let t0 = Instant::now();
            let res = exec(sel, seg, storage, ctx);
            ctx.seg_stats(seg).elapsed += t0.elapsed();
            if let Err(e) = res {
                seg_errs[i] = Some(e);
                break;
            }
        }
    }

    // Enumerate every segment's blocks and cut them into morsels. The
    // decomposition depends only on the stored blocks and `morsel_rows`,
    // never on the worker count.
    let mr = sched.morsel_rows.max(1);
    let mut morsel_seg: Vec<usize> = Vec::new();
    let mut morsels: Vec<(RowBlock, Option<Arc<CompiledExpr>>)> = Vec::new();
    for (i, &seg) in segs.iter().enumerate() {
        if seg_errs[i].is_some() {
            continue;
        }
        let t0 = Instant::now();
        match fused.enumerate_segment(seg, storage, ctx) {
            Ok((mut local, blocks)) => {
                local.elapsed += t0.elapsed();
                seg_stats[i] = local;
                for (b, f) in blocks {
                    for m in mpp_storage::block_morsels(&b, mr) {
                        morsel_seg.push(i);
                        morsels.push((m, f.clone()));
                    }
                }
            }
            Err(e) => seg_errs[i] = Some(e),
        }
    }

    let tasks: Vec<Box<dyn FnOnce() -> Result<MorselOut> + Send + '_>> = morsels
        .into_iter()
        .map(|(block, filter)| {
            Box::new(move || run_morsel(fused, block, filter))
                as Box<dyn FnOnce() -> Result<MorselOut> + Send + '_>
        })
        .collect();
    let outs = run_tasks(workers, tasks);

    // Group morsel outcomes back by segment, in morsel order.
    let mut seg_outs: Vec<Vec<Option<Result<MorselOut>>>> = Vec::with_capacity(n_segs);
    seg_outs.resize_with(n_segs, Vec::new);
    for (i, out) in morsel_seg.into_iter().zip(outs) {
        seg_outs[i].push(out);
    }

    let rerun_node = fused.rerun.as_ref().unwrap_or(fused.node);
    let rerun = |seg: SegmentId| -> Result<Vec<RowBlock>> {
        let t0 = Instant::now();
        let res = exec_block(rerun_node, seg, storage, ctx);
        ctx.seg_stats(seg).elapsed += t0.elapsed();
        res
    };

    let mut first_err: Option<Error> = None;
    let mut per_source: Vec<Vec<RowBlock>> = Vec::with_capacity(n_segs);
    'segs: for (i, &seg) in segs.iter().enumerate() {
        per_source.push(Vec::new());
        if first_err.is_some() {
            // A lower segment already failed; the query result is that
            // error regardless of what later segments would produce.
            continue;
        }
        if let Some(e) = seg_errs[i].take() {
            first_err = Some(e);
            continue;
        }
        let mut stats = std::mem::take(&mut seg_stats[i]);
        let mut payloads: Vec<MorselPayload> = Vec::with_capacity(seg_outs[i].len());
        let mut needs_rerun = false;
        for out in seg_outs[i].drain(..) {
            match out {
                None => {
                    first_err = Some(Error::Internal("morsel worker panicked".into()));
                    continue 'segs;
                }
                Some(Err(_)) => {
                    // Discard buffered state; the reference re-run
                    // reproduces the row-major-first error exactly.
                    needs_rerun = true;
                    break;
                }
                Some(Ok(mo)) => {
                    stats.absorb(mo.stats);
                    payloads.push(mo.payload);
                }
            }
        }
        let chunks = if needs_rerun {
            None
        } else if let Some(agg) = &fused.agg {
            let mut iter = payloads.into_iter();
            let mut pa = match iter.next() {
                Some(MorselPayload::Agg(pa)) => *pa,
                Some(MorselPayload::Blocks(_)) => unreachable!("agg slice yields agg payloads"),
                None => PartialAgg::new(agg.calls.len()),
            };
            for p in iter {
                match p {
                    MorselPayload::Agg(other) => pa.merge(*other),
                    MorselPayload::Blocks(_) => unreachable!("agg slice yields agg payloads"),
                }
            }
            match pa.finalize(agg, seg) {
                Finalized::Rows(rows) => {
                    let chunks = rows_to_chunks(rows, agg.width);
                    apply_ops(chunks, &fused.post_ops, &mut stats).ok()
                }
                Finalized::NeedsExact => None,
            }
        } else {
            let chunks: Vec<RowBlock> = payloads
                .into_iter()
                .filter_map(|p| match p {
                    MorselPayload::Blocks(b) => b,
                    MorselPayload::Agg(_) => unreachable!("pipeline slice yields block payloads"),
                })
                .collect();
            Some(chunks)
        };
        match chunks {
            Some(chunks) => {
                ctx.seg_stats(seg).absorb(stats);
                per_source[i] = chunks;
            }
            None => match rerun(seg) {
                Ok(chunks) => per_source[i] = chunks,
                Err(e) => first_err = Some(e),
            },
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    let routed = if preroute {
        per_source.iter().flatten().cloned().collect()
    } else {
        Vec::new()
    };
    Ok((per_source, routed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute_with_params_sched, QueryResult};
    use mpp_catalog::{Catalog, Distribution, TableDesc};
    use mpp_common::value::ArithOp;
    use mpp_common::{row, Column, DataType, Datum, Schema};
    use mpp_expr::{CmpOp, ColRef, Expr};
    use mpp_plan::{AggCall, AggFunc};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn boxed<'env, T, F: FnOnce() -> T + Send + 'env>(
        f: F,
    ) -> Box<dyn FnOnce() -> T + Send + 'env> {
        Box::new(f)
    }

    #[test]
    fn run_tasks_returns_results_in_task_order() {
        for workers in [1, 2, 3, 8] {
            let tasks: Vec<_> = (0..17).map(|i| boxed(move || i * 10)).collect();
            let out = run_tasks(workers, tasks);
            let want: Vec<Option<i32>> = (0..17).map(|i| Some(i * 10)).collect();
            assert_eq!(out, want, "workers={workers}");
        }
    }

    #[test]
    fn run_tasks_single_worker_runs_fifo_on_caller() {
        let order = Mutex::new(Vec::new());
        let caller = std::thread::current().id();
        let tasks: Vec<_> = (0..5)
            .map(|i| {
                let order = &order;
                boxed(move || {
                    order.lock().push(i);
                    assert_eq!(std::thread::current().id(), caller);
                })
            })
            .collect();
        run_tasks(1, tasks);
        assert_eq!(*order.lock(), vec![0, 1, 2, 3, 4]);
    }

    /// No worker idles while unclaimed tasks remain: task 0 occupies
    /// worker 0 until every other task has completed, and half of those
    /// sit in worker 0's own deque — they can only complete if the other
    /// workers steal them. Deterministic (a latch, not a clock); the wait
    /// is bounded so a scheduler that does not steal fails instead of
    /// hanging.
    #[test]
    fn idle_workers_steal_queued_tasks() {
        use std::sync::{Condvar, Mutex as StdMutex};
        use std::time::Duration;
        for workers in [2usize, 3] {
            let n = 12usize;
            let done = StdMutex::new(0usize);
            let all_done = Condvar::new();
            let tasks: Vec<_> = (0..n)
                .map(|i| {
                    let (done, all_done) = (&done, &all_done);
                    boxed(move || {
                        if i > 0 {
                            *done.lock().unwrap() += 1;
                            all_done.notify_all();
                            return true;
                        }
                        let (_guard, timeout) = all_done
                            .wait_timeout_while(
                                done.lock().unwrap(),
                                Duration::from_secs(60),
                                |d| *d < n - 1,
                            )
                            .unwrap();
                        !timeout.timed_out()
                    })
                })
                .collect();
            let out = run_tasks(workers, tasks);
            assert_eq!(
                out[0],
                Some(true),
                "workers={workers}: tasks queued behind the blocked worker were never stolen"
            );
            assert!(out.iter().all(|r| *r == Some(true)), "workers={workers}");
        }
    }

    #[test]
    fn panicking_task_does_not_wedge_or_leak() {
        // A panicking morsel must not take its worker down, block the
        // join, or poison the scheduler for later batches.
        let done = AtomicUsize::new(0);
        let tasks: Vec<_> = (0..12)
            .map(|i| {
                let done = &done;
                boxed(move || {
                    if i % 3 == 0 {
                        panic!("boom {i}");
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                    i
                })
            })
            .collect();
        let out = run_tasks(4, tasks);
        for (i, slot) in out.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(*slot, None, "task {i} should have panicked");
            } else {
                assert_eq!(*slot, Some(i), "task {i} should have completed");
            }
        }
        assert_eq!(done.load(Ordering::Relaxed), 8);
        // The scheduler (and the shared worker pool) is immediately
        // reusable.
        let again = run_tasks(4, (0..4).map(|i| boxed(move || i)).collect());
        assert_eq!(again, vec![Some(0), Some(1), Some(2), Some(3)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// S6: under any mix of panicking tasks and any worker count, the
        /// scheduler always joins, non-panicking tasks always complete,
        /// and panicking ones report `None` — no wedged or leaked workers.
        #[test]
        fn scheduler_survives_arbitrary_panics(
            panics in proptest::collection::vec(any::<bool>(), 1..24),
            workers in 1usize..6,
        ) {
            let ran = AtomicUsize::new(0);
            let tasks: Vec<_> = panics
                .iter()
                .enumerate()
                .map(|(i, &p)| {
                    let ran = &ran;
                    boxed(move || {
                        if p {
                            panic!("injected");
                        }
                        ran.fetch_add(1, Ordering::Relaxed);
                        i
                    })
                })
                .collect();
            let out = run_tasks(workers, tasks);
            prop_assert_eq!(out.len(), panics.len());
            for (i, (slot, &p)) in out.iter().zip(&panics).enumerate() {
                if p {
                    prop_assert_eq!(*slot, None);
                } else {
                    prop_assert_eq!(*slot, Some(i));
                }
            }
            let survivors = panics.iter().filter(|&&p| !p).count();
            prop_assert_eq!(ran.load(Ordering::Relaxed), survivors);
        }
    }

    fn cr(id: u32, name: &str) -> ColRef {
        ColRef::new(id, name)
    }

    /// t(a, b) hash-distributed on b across `segs` segments.
    fn setup(segs: usize, rows: impl IntoIterator<Item = (i64, i64)>) -> (Storage, TableOid) {
        let cat = Catalog::new();
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int64),
            Column::new("b", DataType::Int64),
        ]);
        let t = cat.allocate_table_oid();
        cat.register(TableDesc {
            oid: t,
            name: "t".into(),
            schema,
            distribution: Distribution::Hashed(vec![1]),
            partitioning: None,
        })
        .unwrap();
        let st = Storage::new(cat, segs);
        st.insert(t, rows.into_iter().map(|(a, b)| row![a, b]))
            .unwrap();
        (st, t)
    }

    fn scan(t: TableOid, filter: Option<Expr>) -> PhysicalPlan {
        PhysicalPlan::TableScan {
            table: t,
            table_name: "t".into(),
            output: vec![cr(1, "a"), cr(2, "b")],
            filter,
        }
    }

    /// `Gather(HashAgg(scan))` — the fusable shape in one slice.
    fn agg_plan(t: TableOid, filter: Option<Expr>, calls: Vec<AggCall>) -> PhysicalPlan {
        let mut out = vec![cr(2, "b")];
        for (i, _) in calls.iter().enumerate() {
            out.push(cr(10 + i as u32, "agg"));
        }
        PhysicalPlan::Motion {
            kind: MotionKind::Gather,
            child: Box::new(PhysicalPlan::HashAgg {
                group_by: vec![cr(2, "b")],
                aggs: calls,
                output: out,
                child: Box::new(scan(t, filter)),
            }),
        }
    }

    fn sorted_rows(mut r: QueryResult) -> Vec<Row> {
        r.rows.sort_by(|a, b| format!("{a}").cmp(&format!("{b}")));
        r.rows
    }

    fn run(st: &Storage, plan: &PhysicalPlan, sched: &SchedConfig) -> Result<QueryResult> {
        execute_with_params_sched(st, plan, &[], ExecEngine::Batch, sched)
    }

    /// The row engine on one worker: the semantic reference every block
    /// schedule must reproduce (rows, error text, overflow behaviour).
    fn reference(st: &Storage, plan: &PhysicalPlan) -> Result<QueryResult> {
        execute_with_params_sched(st, plan, &[], ExecEngine::Row, &SchedConfig::default())
    }

    fn all_scheds() -> Vec<SchedConfig> {
        let mut out = vec![SchedConfig::default()];
        for workers in [1, 2, 4, 8] {
            for morsel_rows in [3, 4096] {
                out.push(SchedConfig {
                    workers: Some(workers),
                    morsel_rows,
                });
            }
        }
        out
    }

    #[test]
    fn fused_agg_matches_reference_across_workers() {
        // Skewed: value 7 dominates.
        let rows: Vec<(i64, i64)> = (0..200)
            .map(|i| (i % 23, if i % 10 == 0 { i % 4 } else { 7 }))
            .collect();
        let (st, t) = setup(4, rows);
        let filter = Some(Expr::cmp(
            CmpOp::Lt,
            Expr::col(cr(1, "a")),
            Expr::lit(Datum::Int64(20)),
        ));
        let plan = agg_plan(
            t,
            filter,
            vec![
                AggCall::count_star(),
                AggCall::new(AggFunc::Sum, Expr::col(cr(1, "a"))),
                AggCall::new(AggFunc::Min, Expr::col(cr(1, "a"))),
                AggCall::new(AggFunc::Max, Expr::col(cr(1, "a"))),
                AggCall::new(AggFunc::Avg, Expr::col(cr(1, "a"))),
            ],
        );
        let baseline = reference(&st, &plan).unwrap();
        let want_rows = sorted_rows(baseline);
        for sched in all_scheds() {
            let got = run(&st, &plan, &sched).unwrap();
            // Merged stats must be scheduling-independent.
            assert_eq!(got.stats.tuples_scanned, 200, "{sched:?}");
            assert_eq!(sorted_rows(got), want_rows, "{sched:?}");
        }
    }

    #[test]
    fn fused_pipeline_without_agg_matches_reference() {
        let rows: Vec<(i64, i64)> = (0..100).map(|i| (i, i % 5)).collect();
        let (st, t) = setup(3, rows);
        let plan = PhysicalPlan::Motion {
            kind: MotionKind::Gather,
            child: Box::new(PhysicalPlan::Filter {
                pred: Expr::cmp(
                    CmpOp::Ge,
                    Expr::col(cr(1, "a")),
                    Expr::lit(Datum::Int64(40)),
                ),
                child: Box::new(scan(t, None)),
            }),
        };
        let want = sorted_rows(reference(&st, &plan).unwrap());
        assert_eq!(want.len(), 60);
        for sched in all_scheds() {
            let got = run(&st, &plan, &sched).unwrap();
            assert_eq!(sorted_rows(got), want, "{sched:?}");
        }
    }

    /// S1 at the unit level: when several morsels of one segment error
    /// (division by zero), every worker count must surface the exact
    /// error the row-major reference produces.
    #[test]
    fn multi_morsel_errors_match_row_major_order() {
        // b = 0 everywhere => single segment; a == 13 and a == 57 divide
        // by zero, in different morsels when morsel_rows is small.
        let rows: Vec<(i64, i64)> = (0..80).map(|i| (i, 0)).collect();
        let (st, t) = setup(2, rows);
        // 100 / (a - 13): errors at a == 13.
        let div = |k: i64| Expr::Arith {
            op: ArithOp::Div,
            left: Box::new(Expr::lit(Datum::Int64(100))),
            right: Box::new(Expr::Arith {
                op: ArithOp::Sub,
                left: Box::new(Expr::col(cr(1, "a"))),
                right: Box::new(Expr::lit(Datum::Int64(k))),
            }),
        };
        let pred = Expr::cmp(
            CmpOp::Gt,
            Expr::Arith {
                op: ArithOp::Add,
                left: Box::new(div(13)),
                right: Box::new(div(57)),
            },
            Expr::lit(Datum::Int64(-1000)),
        );
        let plan = PhysicalPlan::Motion {
            kind: MotionKind::Gather,
            child: Box::new(PhysicalPlan::Filter {
                pred,
                child: Box::new(scan(t, None)),
            }),
        };
        let want = reference(&st, &plan).unwrap_err();
        for sched in all_scheds() {
            let got = run(&st, &plan, &sched).unwrap_err();
            assert_eq!(got.to_string(), want.to_string(), "{sched:?}");
        }
    }

    /// An int sum whose running prefix overflows i64 must error exactly
    /// like the sequential accumulator — even when a later morsel would
    /// bring the total back in range.
    #[test]
    fn transient_sum_overflow_reruns_and_errors() {
        let big = i64::MAX / 2 + 1;
        // Two big positives overflow mid-stream; the negatives would
        // cancel it out if partials were naively summed in i128.
        let rows: Vec<(i64, i64)> = vec![(big, 0), (big, 0), (-big, 0), (-big, 0)];
        let (st, t) = setup(1, rows);
        let plan = agg_plan(
            t,
            None,
            vec![AggCall::new(AggFunc::Sum, Expr::col(cr(1, "a")))],
        );
        let want = reference(&st, &plan).unwrap_err();
        assert!(want.to_string().contains("overflow"), "{want}");
        for sched in all_scheds() {
            // morsel_rows == 3 splits the four rows across two morsels.
            let got = run(&st, &plan, &sched).unwrap_err();
            assert_eq!(got.to_string(), want.to_string(), "{sched:?}");
        }
    }

    /// Scalar aggregation over zero rows: exactly one default row, from
    /// segment 0, under every decomposition.
    #[test]
    fn scalar_agg_on_empty_fused_input() {
        let (st, t) = setup(3, Vec::new());
        let plan = PhysicalPlan::Motion {
            kind: MotionKind::Gather,
            child: Box::new(PhysicalPlan::HashAgg {
                group_by: vec![],
                aggs: vec![
                    AggCall::count_star(),
                    AggCall::new(AggFunc::Sum, Expr::col(cr(1, "a"))),
                ],
                output: vec![cr(10, "count"), cr(11, "sum")],
                child: Box::new(scan(t, None)),
            }),
        };
        for sched in all_scheds() {
            let got = run(&st, &plan, &sched).unwrap();
            assert_eq!(
                got.rows,
                vec![Row::new(vec![Datum::Int64(0), Datum::Null])],
                "{sched:?}"
            );
        }
    }

    /// Float sums merged across morsels re-run through the reference
    /// path, so results are bit-identical to the row engine — not merely
    /// close.
    #[test]
    fn float_sums_are_bit_identical_across_worker_counts() {
        let cat = Catalog::new();
        let schema = Schema::new(vec![
            Column::new("x", DataType::Float64),
            Column::new("g", DataType::Int64),
        ]);
        let t = cat.allocate_table_oid();
        cat.register(TableDesc {
            oid: t,
            name: "f".into(),
            schema,
            distribution: Distribution::Hashed(vec![1]),
            partitioning: None,
        })
        .unwrap();
        let st = Storage::new(cat, 2);
        // Sums of many different-magnitude floats: any reordering of the
        // additions changes the low bits.
        st.insert(
            t,
            (0..300).map(|i| row![(i as f64) * 0.1 + 1e10 / ((i + 1) as f64), i % 3]),
        )
        .unwrap();
        let plan = PhysicalPlan::Motion {
            kind: MotionKind::Gather,
            child: Box::new(PhysicalPlan::HashAgg {
                group_by: vec![cr(2, "g")],
                aggs: vec![
                    AggCall::new(AggFunc::Sum, Expr::col(cr(1, "x"))),
                    AggCall::new(AggFunc::Avg, Expr::col(cr(1, "x"))),
                ],
                output: vec![cr(2, "g"), cr(10, "sum"), cr(11, "avg")],
                child: Box::new(PhysicalPlan::TableScan {
                    table: t,
                    table_name: "f".into(),
                    output: vec![cr(1, "x"), cr(2, "g")],
                    filter: None,
                }),
            }),
        };
        let want = sorted_rows(reference(&st, &plan).unwrap());
        for sched in all_scheds() {
            let got = sorted_rows(run(&st, &plan, &sched).unwrap());
            assert_eq!(got, want, "{sched:?}");
        }
    }
}
