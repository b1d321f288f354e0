//! Morsel-driven work-stealing execution.
//!
//! This module is the one stage driver behind every worker count and both
//! [`ExecEngine`]s: the plan is cut into slices at Motion boundaries
//! (children before parents), and each stage's work is decomposed into
//! *tasks* that run on a small work-stealing scheduler (`run_tasks`).
//! Every stage, on either engine, stores its output in the context's one
//! Motion cache as per-source-segment chunk lists; a row-engine slice
//! hands its rows over as one chunk. The worker count
//! ([`SchedConfig::workers`]) is the only scheduling decision. With one
//! worker the tasks drain in deque order on the calling thread —
//! segment-major evaluation order — and a root Gather streams to the
//! sink per segment (`stream_root`); with more, every stage, the root
//! included, runs on the pool. Init plans and DML target subtrees take
//! the same stage loop through `run_subtree_rows` (row engine, one
//! worker) before the main plan runs, and their stages stay cached.
//!
//! For the row engine — and for block-engine slices whose shape doesn't
//! fuse — a task is "one segment's slice". Only block-engine slices of
//! the shape
//!
//! ```text
//! (Filter|Project)* [HashAgg] (Filter|Project)*
//!     (TableScan | PartScan | DynamicScan | Append[PartScan..]
//!      | Sequence[static selectors.., scan])
//! ```
//!
//! are *fused*: each segment's scan output — read through
//! `scan_blocks`, the scan arms' own code — is cut into morsels of at
//! most [`SchedConfig::morsel_rows`] rows (partition × block ranges), and
//! every morsel runs the filter and project operators below the
//! aggregation as one task. A skewed partition therefore spreads over all
//! workers instead of serializing its segment's thread. Aggregation is
//! not split: once the morsels have run, one task per segment passes the
//! segment's morsel blocks, in morsel order, to `hash_agg_blocks` — the
//! `HashAgg` arm itself — and then runs the operators above it.
//!
//! ## Determinism
//!
//! Results must be bit-identical to the per-segment drivers at every
//! worker count:
//!
//! * the morsel decomposition depends only on the stored blocks and
//!   `morsel_rows` — never on the worker count — and per-segment results
//!   (blocks, buffered stats) are collected in morsel order, so stats and
//!   rows are scheduling-independent; an aggregate folds the same rows in
//!   the same order as the unfused arm, so a float sum is its sequential
//!   fold, bit for bit;
//! * fused tasks accumulate into *buffered* [`SegmentStats`], absorbed
//!   into the shared context only when the whole segment succeeds;
//! * a morsel error — and nothing else — discards the segment's buffered
//!   state and **re-runs that segment's slice through the unfused
//!   `exec_block` path**, adopting whatever that reference run produces
//!   (rows or error). Row-fallback error *ordering* therefore always
//!   matches the row engine: the re-run surfaces the row-major-first
//!   error, regardless of which morsel failed first under stealing. An
//!   error in the fold or above it is already the reference's error: the
//!   same code sees the same rows in the same order.
//!
//! Static partition selectors run once per segment on the driver thread
//! (they publish OID sets and count `selector_runs` against the real
//! context). The re-run runs the slice itself, selectors included: they
//! publish the same OIDs again, and the segment's `selector_runs` gives
//! back the first runs beforehand so they are never double-counted.

use crate::block_exec::{
    exec_block, filter_block_core, hash_agg_blocks, project_block_core, rows_to_chunks, scan_blocks,
};
use crate::context::ExecContext;
use crate::exec::{compiled, exec, ExecEngine};
use crate::pool;
use crate::slice::{MotionSite, SlicePlan};
use crate::stats::SegmentStats;
use crate::stream::{ResultChunk, RowSink};
use mpp_common::{Error, MotionId, Result, Row, RowBlock, SegmentId};
use mpp_expr::CompiledExpr;
use mpp_plan::{MotionKind, PhysicalPlan};
use mpp_storage::Storage;
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

/// The stage driver: materialize every Motion stage in
/// children-before-parents order, then run the root slice, emitting its
/// output through `sink` chunk by chunk. Every worker count and both
/// engines route through here. Returns the number of rows emitted.
pub(crate) fn run_stages_stream(
    plan: &PhysicalPlan,
    storage: &Storage,
    ctx: &ExecContext<'_>,
    engine: ExecEngine,
    sched: &SchedConfig,
    sink: &mut RowSink<'_>,
) -> Result<u64> {
    let st = Stages {
        storage,
        ctx,
        engine,
        workers: sched.workers.unwrap_or(1).max(1),
        segs: storage.segments().collect(),
        sched,
    };
    if st.segs.is_empty() {
        return Ok(0);
    }
    let slices = SlicePlan::cut(plan);
    let streamed = stream_root(&slices, ctx, st.workers);
    st.materialize(&slices.stages, streamed.map(|(id, _)| id))?;
    ctx.check_cancel()?;
    if let Some((id, child)) = streamed {
        // Analyze once; the fused driver then runs one segment at a time
        // so chunks stream out as each segment completes. Single-segment
        // invocations produce the same morsel decomposition, fold order
        // and stats as one all-segments invocation — only the scheduling
        // envelope shrinks.
        let fused = st.fuse(child);
        let mut counts = Vec::with_capacity(st.segs.len());
        for &seg in &st.segs {
            ctx.check_cancel()?;
            let chunks = match &fused {
                Some(f) => run_fused(f, &st, &[seg], false)?
                    .0
                    .pop()
                    .unwrap_or_default(),
                None => st.run_on(child, seg)?,
            };
            counts.push(emit(chunks, ctx, sink)?);
        }
        // Recorded only once the whole Gather succeeded — the staged
        // path's stats carry no trace of a failed materialization either.
        ctx.record_motion(id, &counts);
        return Ok(counts.iter().sum());
    }
    let (per_segment, _) = st.run_slice(slices.root, false)?;
    let mut total = 0u64;
    for chunks in per_segment {
        total += emit(chunks, ctx, sink)?;
    }
    Ok(total)
}

/// The driver for DML targets and init plans: materialize the Motion
/// stages inside `node` on the row engine with one worker, then run
/// `node` itself on every segment in segment order, handing each
/// segment's rows to `f` before the next segment runs. The stages stay
/// cached, so the main plan's stage loop skips them.
pub(crate) fn run_subtree_rows(
    node: &PhysicalPlan,
    storage: &Storage,
    ctx: &ExecContext<'_>,
    mut f: impl FnMut(Vec<Row>) -> Result<()>,
) -> Result<()> {
    let st = Stages {
        storage,
        ctx,
        engine: ExecEngine::Row,
        workers: 1,
        segs: storage.segments().collect(),
        sched: &SchedConfig::default(),
    };
    st.materialize(&SlicePlan::cut(node).stages, None)?;
    for &seg in &st.segs {
        let t0 = Instant::now();
        let rows = exec(node, seg, storage, ctx);
        ctx.seg_stats(seg).elapsed += t0.elapsed();
        f(rows?)?;
    }
    Ok(())
}

/// Push one segment's chunks into `sink`, returning the rows pushed. A
/// cancel check per block, not just per segment: a Cancel frame arriving
/// while a big segment result drains to a network sink must stop at the
/// next block boundary.
fn emit(chunks: Vec<RowBlock>, ctx: &ExecContext<'_>, sink: &mut RowSink<'_>) -> Result<u64> {
    let mut n = 0u64;
    for b in chunks {
        if !b.is_empty() {
            n += b.len() as u64;
            ctx.check_cancel()?;
            sink(ResultChunk::Block(b))?;
        }
    }
    Ok(n)
}

/// The incremental-delivery fast path: when the plan root is an uncached
/// `Motion{Gather}` and exactly one worker runs, the final Gather is not
/// materialized as a stage at all — each segment's child-slice output is
/// handed to the sink as that segment finishes, so the first chunks
/// reach a network client while later segments are still scanning.
///
/// This is observable-behavior-identical to the staged path: Gather
/// consumption on segment 0 records no stats (it takes the preroute
/// copy), the single `record_motion` still happens exactly once after
/// *all* segments succeeded, rows arrive in segment order, and the first
/// error in segment order wins either way.
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
            ctx.motion_cached(id)
                .is_none()
                .then_some((id, child.as_ref()))
        }
        _ => None,
    }
}

/// What every stage of one run shares: the engine, the scheduler and the
/// segments. A task is one segment's slice (or, for a fused block-engine
/// slice, one morsel).
struct Stages<'a, 'c> {
    storage: &'a Storage,
    ctx: &'a ExecContext<'c>,
    engine: ExecEngine,
    workers: usize,
    segs: Vec<SegmentId>,
    sched: &'a SchedConfig,
}

impl Stages<'_, '_> {
    /// One segment's unfused slice output: the block engine's chunks, or
    /// the row engine's rows as one chunk.
    fn run_on(&self, node: &PhysicalPlan, seg: SegmentId) -> Result<Vec<RowBlock>> {
        let t0 = Instant::now();
        let res = match self.engine {
            ExecEngine::Batch => exec_block(node, seg, self.storage, self.ctx),
            ExecEngine::Row => exec(node, seg, self.storage, self.ctx).map(|rows| {
                let width = rows.first().map_or(0, Row::len);
                rows_to_chunks(rows, width)
            }),
        };
        self.ctx.seg_stats(seg).elapsed += t0.elapsed();
        res
    }

    /// `node` as a fused slice, when the block engine runs and the shape
    /// fuses. Only the block engine fuses.
    fn fuse<'p>(&self, node: &'p PhysicalPlan) -> Option<FusedSlice<'p>> {
        match self.engine {
            ExecEngine::Batch => FusedSlice::analyze(node, self.ctx),
            ExecEngine::Row => None,
        }
    }

    /// Run `node` on every segment: the per-segment chunk lists and, with
    /// `preroute` set (Gather stages), their concatenation in segment
    /// order — each task clones its own output while it is warm.
    fn run_slice(
        &self,
        node: &PhysicalPlan,
        preroute: bool,
    ) -> Result<(Vec<Vec<RowBlock>>, Vec<RowBlock>)> {
        if let Some(fused) = self.fuse(node) {
            return run_fused(&fused, self, &self.segs, preroute);
        }
        let pairs = run_per_segment(self.workers, &self.segs, |seg| {
            self.run_on(node, seg).map(|chunks| {
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
    }

    /// Materialize every stage not cached yet, in order, except `skip`
    /// (a root Gather that streams instead). A cached stage was
    /// materialized by an init plan or a DML target subtree
    /// ([`run_subtree_rows`]); running it again would count it twice.
    fn materialize(&self, stages: &[MotionSite<'_>], skip: Option<MotionId>) -> Result<()> {
        for site in stages {
            self.ctx.check_cancel()?;
            let id = self.ctx.motion_id_of(site.node)?;
            if skip == Some(id) || self.ctx.motion_cached(id).is_some() {
                continue;
            }
            let preroute = matches!(site.kind, MotionKind::Gather);
            let (per_source, routed) = self.run_slice(site.child, preroute)?;
            let counts: Vec<u64> = per_source
                .iter()
                .map(|chunks| chunks.iter().map(|b| b.len() as u64).sum())
                .collect();
            self.ctx.record_motion(id, &counts);
            self.ctx.motion_store(id, Arc::new(per_source));
            if preroute {
                self.ctx.preroute_put(id, routed);
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Fused slices
// ---------------------------------------------------------------------

/// A fused pipeline operator above the scan.
enum FusedOp {
    Filter(Arc<CompiledExpr>),
    Project(Vec<Arc<CompiledExpr>>),
}

/// What one morsel task hands back: its buffered stats and its filtered
/// or projected block (none when every row was filtered out).
type MorselOut = Result<(SegmentStats, Vec<RowBlock>)>;

struct FusedSlice<'p> {
    /// Static partition selectors (a `Sequence` prefix), run once per
    /// segment on the driver against the real context.
    selectors: Vec<&'p PhysicalPlan>,
    /// The scan nodes, in order, each with its compiled filter (they can
    /// differ per `Append` child).
    scans: Vec<(&'p PhysicalPlan, Option<Arc<CompiledExpr>>)>,
    /// Per-morsel operators below the aggregation.
    pre_ops: Vec<FusedOp>,
    /// The `HashAgg` node; the driver folds each segment's morsel blocks
    /// through [`hash_agg_blocks`].
    agg: Option<&'p PhysicalPlan>,
    /// Operators above the aggregation; they run on the driver after the
    /// fold.
    post_ops: Vec<FusedOp>,
    /// The slice child itself — the reference path for re-runs.
    node: &'p PhysicalPlan,
}

impl<'p> FusedSlice<'p> {
    /// Decide whether `node` has the fusable shape, compiling every
    /// per-morsel expression once.
    fn analyze(node: &'p PhysicalPlan, ctx: &ExecContext<'_>) -> Option<FusedSlice<'p>> {
        let mut cur = node;
        let mut post_rev: Vec<FusedOp> = Vec::new();
        let mut pre_rev: Vec<FusedOp> = Vec::new();
        let mut agg: Option<&'p PhysicalPlan> = None;
        loop {
            let (op, child) = match cur {
                PhysicalPlan::Filter { pred, child } => (
                    FusedOp::Filter(compiled(pred, &child.output_cols(), ctx)),
                    child,
                ),
                PhysicalPlan::Project { exprs, child, .. } => {
                    let cols = child.output_cols();
                    let exprs = exprs.iter().map(|e| compiled(e, &cols, ctx)).collect();
                    (FusedOp::Project(exprs), child)
                }
                PhysicalPlan::HashAgg { child, .. } if agg.is_none() => {
                    agg = Some(cur);
                    cur = child;
                    continue;
                }
                PhysicalPlan::HashAgg { .. } => return None,
                _ => break,
            };
            if agg.is_some() {
                pre_rev.push(op);
            } else {
                post_rev.push(op);
            }
            cur = child;
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
        let scan = |c: &'p PhysicalPlan| match c {
            PhysicalPlan::TableScan { output, filter, .. }
            | PhysicalPlan::PartScan { output, filter, .. }
            | PhysicalPlan::DynamicScan { output, filter, .. } => {
                Some((c, filter.as_ref().map(|f| compiled(f, output, ctx))))
            }
            _ => None,
        };
        let scans = match src_node {
            // An `Append` fuses only over legacy `PartScan`s.
            PhysicalPlan::Append { children, .. } => children
                .iter()
                .map(|c| scan(c).filter(|_| matches!(c, PhysicalPlan::PartScan { .. })))
                .collect::<Option<Vec<_>>>()?,
            _ => vec![scan(src_node)?],
        };
        Some(FusedSlice {
            selectors,
            scans,
            pre_ops: pre_rev,
            agg,
            post_ops: post_rev,
            node,
        })
    }
}

/// Run the per-morsel operators over one morsel, accumulating stats
/// locally.
fn run_morsel(
    fused: &FusedSlice<'_>,
    block: RowBlock,
    scan_filter: Option<Arc<CompiledExpr>>,
) -> MorselOut {
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
    let chunks = match &scan_filter {
        Some(pred) => filter_block_core(pred, block, &mut stats)?
            .into_iter()
            .collect(),
        None => vec![block],
    };
    let chunks = apply_ops(chunks, &fused.pre_ops, &mut stats)?;
    stats.elapsed += t0.elapsed();
    Ok((stats, chunks))
}

/// Apply fused operators to a chunk list, mirroring the Filter/Project
/// arms of [`exec_block`].
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

/// Drive one fused slice on `segs`: selectors, scans, morsel tasks,
/// then per segment the aggregation fold and the operators above it.
fn run_fused(
    fused: &FusedSlice<'_>,
    st: &Stages<'_, '_>,
    segs: &[SegmentId],
    preroute: bool,
) -> Result<(Vec<Vec<RowBlock>>, Vec<RowBlock>)> {
    let Stages {
        storage,
        ctx,
        workers,
        sched,
        ..
    } = *st;
    let n_segs = segs.len();
    let mut seg_errs: Vec<Option<Error>> = Vec::with_capacity(n_segs);
    seg_errs.resize_with(n_segs, || None);
    let mut seg_stats: Vec<SegmentStats> = vec![SegmentStats::default(); n_segs];

    // Selectors publish OID sets and count against the real context.
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

    // Scan every segment's blocks into a local stats buffer and cut them
    // into morsels. The decomposition depends only on the stored blocks
    // and `morsel_rows`, never on the worker count.
    let mr = sched.morsel_rows.max(1);
    let mut morsel_seg: Vec<usize> = Vec::new();
    let mut morsels: Vec<(RowBlock, Option<Arc<CompiledExpr>>)> = Vec::new();
    for (i, &seg) in segs.iter().enumerate() {
        if seg_errs[i].is_some() {
            continue;
        }
        let t0 = Instant::now();
        let stats = &mut seg_stats[i];
        let res = fused.scans.iter().try_for_each(|(scan, filter)| {
            for b in scan_blocks(scan, seg, storage, ctx, stats)? {
                for m in mpp_storage::block_morsels(&b, mr) {
                    morsel_seg.push(i);
                    morsels.push((m, filter.clone()));
                }
            }
            Ok(())
        });
        stats.elapsed += t0.elapsed();
        if let Err(e) = res {
            seg_errs[i] = Some(e);
        }
    }

    let tasks: Vec<Box<dyn FnOnce() -> MorselOut + Send + '_>> = morsels
        .into_iter()
        .map(|(block, filter)| {
            Box::new(move || run_morsel(fused, block, filter))
                as Box<dyn FnOnce() -> MorselOut + Send + '_>
        })
        .collect();
    let outs = run_tasks(workers, tasks);

    // Group morsel outcomes back by segment, in morsel order.
    let mut seg_outs: Vec<Vec<Option<MorselOut>>> = Vec::with_capacity(n_segs);
    seg_outs.resize_with(n_segs, Vec::new);
    for (i, out) in morsel_seg.into_iter().zip(outs) {
        seg_outs[i].push(out);
    }

    // Then one task per segment: fold its morsel blocks and run the
    // operators above the fold — or, after a morsel error, re-run it.
    let finish = |seg, mut stats: SegmentStats, outs: Vec<Option<MorselOut>>| {
        let mut chunks = Vec::new();
        for out in outs {
            match out.ok_or_else(|| Error::Internal("morsel worker panicked".into()))? {
                // Discard buffered state; the reference re-run
                // reproduces the row-major-first error exactly. It runs
                // the selectors again, which publish the same OIDs, so
                // their first runs leave `selector_runs`.
                Err(_) => {
                    ctx.seg_stats(seg).selector_runs -= fused.selectors.len() as u64;
                    return exec_block(fused.node, seg, storage, ctx);
                }
                Ok((s, blocks)) => {
                    stats.absorb(s);
                    chunks.extend(blocks);
                }
            }
        }
        ctx.seg_stats(seg).absorb(stats);
        match fused.agg {
            Some(agg) => hash_agg_blocks(agg, &chunks, seg, ctx)
                .and_then(|rows| apply_ops(rows, &fused.post_ops, &mut ctx.seg_stats(seg))),
            None => Ok(chunks),
        }
    };
    let finish = &finish;
    let tasks: Vec<Box<dyn FnOnce() -> Result<Vec<RowBlock>> + Send + '_>> = segs
        .iter()
        .zip(seg_errs)
        .zip(seg_stats)
        .zip(seg_outs)
        .map(|(((&seg, err), stats), outs)| {
            Box::new(move || {
                if let Some(e) = err {
                    return Err(e);
                }
                let t0 = Instant::now();
                let res = finish(seg, stats, outs);
                ctx.seg_stats(seg).elapsed += t0.elapsed();
                res
            }) as Box<dyn FnOnce() -> Result<Vec<RowBlock>> + Send + '_>
        })
        .collect();
    // The first error in segment order wins.
    let per_source = run_tasks(workers, tasks)
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| Err(Error::Internal("segment worker panicked".into()))))
        .collect::<Result<Vec<_>>>()?;
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
    use mpp_common::TableOid;
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
    fn transient_sum_overflow_errors_like_the_row_engine() {
        let big = i64::MAX / 2 + 1;
        // Two big positives overflow mid-stream; the negatives would
        // cancel it out if the sum were checked only at the end.
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

    /// f(x Float64, g Int64, n Int64) hash-distributed on g over two
    /// segments. Its floats span many magnitudes, so any reordering of
    /// their additions changes a sum's low bits.
    fn float_table() -> (Storage, TableOid) {
        let cat = Catalog::new();
        let schema = Schema::new(vec![
            Column::new("x", DataType::Float64),
            Column::new("g", DataType::Int64),
            Column::new("n", DataType::Int64),
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
        st.insert(
            t,
            (0..300i64).map(|i| row![(i as f64) * 0.1 + 1e10 / ((i + 1) as f64), i % 3, i]),
        )
        .unwrap();
        (st, t)
    }

    /// `Gather(HashAgg(scan f))` grouped on g: a fused aggregate, since
    /// the GROUP BY covers the distribution key.
    fn float_agg_plan(t: TableOid, aggs: Vec<AggCall>, filter: Option<Expr>) -> PhysicalPlan {
        let mut output = vec![cr(2, "g")];
        output.extend((0..aggs.len()).map(|i| cr(10 + i as u32, "agg")));
        PhysicalPlan::Motion {
            kind: MotionKind::Gather,
            child: Box::new(PhysicalPlan::HashAgg {
                group_by: vec![cr(2, "g")],
                aggs,
                output,
                child: Box::new(PhysicalPlan::TableScan {
                    table: t,
                    table_name: "f".into(),
                    output: vec![cr(1, "x"), cr(2, "g"), cr(3, "n")],
                    filter,
                }),
            }),
        }
    }

    /// A segment's morsel blocks are folded in morsel order, so float sums
    /// are bit-identical to the row engine — not merely close.
    #[test]
    fn float_sums_are_bit_identical_across_worker_counts() {
        let (st, t) = float_table();
        let plan = float_agg_plan(
            t,
            vec![
                AggCall::new(AggFunc::Sum, Expr::col(cr(1, "x"))),
                AggCall::new(AggFunc::Avg, Expr::col(cr(1, "x"))),
            ],
            None,
        );
        let want = sorted_rows(reference(&st, &plan).unwrap());
        for sched in all_scheds() {
            let got = sorted_rows(run(&st, &plan, &sched).unwrap());
            assert_eq!(got, want, "{sched:?}");
        }
    }

    /// A fused float sum re-runs nothing: it produces exactly the blocks
    /// an integer sum over the same filtered morsels does, and its rows
    /// are the row engine's, bit for bit.
    #[test]
    fn fused_float_sum_produces_the_blocks_of_an_int_sum() {
        let (st, t) = float_table();
        let sched = SchedConfig {
            workers: Some(1),
            morsel_rows: 3,
        };
        let x_pos = Expr::cmp(
            CmpOp::Gt,
            Expr::col(cr(1, "x")),
            Expr::lit(Datum::Float64(0.0)),
        );
        let blocks_produced = |arg: ColRef| {
            let aggs = vec![AggCall::new(AggFunc::Sum, Expr::col(arg.clone()))];
            let plan = float_agg_plan(t, aggs, Some(x_pos.clone()));
            let want = sorted_rows(reference(&st, &plan).unwrap());
            let got = run(&st, &plan, &sched).unwrap();
            let n = got.stats.blocks_produced;
            assert_eq!(
                format!("{:?}", sorted_rows(got)),
                format!("{want:?}"),
                "sum({arg})"
            );
            n
        };
        assert_eq!(blocks_produced(cr(1, "x")), blocks_produced(cr(3, "n")));
    }
}
