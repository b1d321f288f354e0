//! Execution context: the per-query runtime state.
//!
//! Every structure here is thread-safe (`Sync`): with more than one
//! worker ([`crate::SchedConfig::workers`]) the scheduler's workers
//! execute against the same `ExecContext` concurrently, so the interior
//! mutability is `parking_lot::Mutex` / atomics rather than `RefCell`.
//! One worker uses the identical state — the locks are simply
//! uncontended.

use crate::prepared::CompiledCache;
use crate::stats::{ExecutionStats, SegmentStats};
use crate::stream::CancelToken;
use mpp_common::{Datum, Error, MotionId, PartOid, PartScanId, Result, RowBlock, SegmentId};
use mpp_plan::PhysicalPlan;
use parking_lot::{Mutex, MutexGuard};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A Redistribute's routing: `routes[d][c]` lists, ascending, the
/// physical rows of source chunk `c` (in flattened source order) that
/// destination segment `d` receives.
pub(crate) type Routes = Vec<Vec<Vec<u32>>>;

/// Per-query runtime state shared by all operators and segments.
///
/// `part_registry` is the simulator's stand-in for the shared-memory
/// channel between a `PartitionSelector` and its `DynamicScan` (paper
/// §2.2): it is keyed by *(partScanId, segment)*, so OIDs selected on one
/// segment are only visible to the scan on the **same** segment — exactly
/// the property that makes plans with a Motion between the pair invalid.
/// That keying is independent of the worker count: concurrent workers
/// share the registry but never read another segment's entries.
pub struct ExecContext<'a> {
    /// Prepared-statement parameter values (`$1` = index 0).
    pub params: &'a [Datum],
    /// (scan id, segment) → selected partition OIDs. An entry exists once
    /// the selector has run, even when it selected nothing.
    part_registry: Mutex<HashMap<(PartScanId, SegmentId), BTreeSet<PartOid>>>,
    /// Legacy init-plan OID-set parameters (`$oidsN` gates). The driver
    /// publishes every `InitPlanOids` before the main plan runs, so gates
    /// only ever see the table complete.
    oid_params: Mutex<HashMap<u32, HashSet<PartOid>>>,
    /// Motion materialization cache: stable [`MotionId`] → per-source-
    /// segment chunk lists, filled by the stage driver for both engines
    /// (a row-engine slice hands its rows over as one chunk). `Arc` so
    /// concurrent readers share one materialization.
    motion_cache: Mutex<HashMap<MotionId, Arc<Vec<Vec<RowBlock>>>>>,
    /// Redistribute memo: per destination segment, per chunk (in
    /// flattened source order), the physical rows it receives — routed
    /// once per Motion instead of once per destination segment.
    redist_routes: Mutex<HashMap<MotionId, Arc<Routes>>>,
    /// Node address → stable id, precomputed from the plan's pre-order
    /// Motion positions. Read-only during execution.
    motion_ids: HashMap<usize, MotionId>,
    /// Pre-routed Gather output (chunk lists concatenated in segment
    /// order): the stage driver has each task clone its own slice output
    /// (warm, and concurrent under several workers), so the consuming
    /// slice on segment 0 takes the assembled copy instead of cloning
    /// the whole cache serially. Take-once: re-executions (e.g. a Motion
    /// under a nested-loop inner) fall back to routing from
    /// `motion_cache`.
    preroute: Mutex<HashMap<MotionId, Vec<RowBlock>>>,
    /// Rows materialized per Motion node.
    per_motion_rows: Mutex<HashMap<MotionId, u64>>,
    motions: AtomicU64,
    /// One slot per segment; a worker only locks the slot of the segment
    /// it runs, so contention is nil.
    seg_stats: Vec<Mutex<SegmentStats>>,
    /// Compiled-expression templates for the nodes of the plan this
    /// context runs: a [`crate::prepared::PreparedPlan`]'s own cache, or a
    /// fresh one for a single execution. Every expression site lowers
    /// through it.
    compiled_cache: &'a CompiledCache,
    /// Cooperative cancellation, checked at block boundaries (per stage,
    /// per segment, per partition scanned). A fresh token never trips, so
    /// the collecting entry points pay only an uncontended atomic load.
    cancel: CancelToken,
}

impl<'a> ExecContext<'a> {
    /// Context for executing `plan`, whose expressions lower through
    /// `cache`: precomputes the Motion-id overlay.
    pub fn for_plan(
        plan: &PhysicalPlan,
        params: &'a [Datum],
        cache: &'a CompiledCache,
        num_segments: usize,
    ) -> ExecContext<'a> {
        let motion_ids = plan
            .motion_sites()
            .into_iter()
            .map(|(id, node)| (node as *const PhysicalPlan as usize, id))
            .collect();
        ExecContext {
            motion_ids,
            ..ExecContext::new(params, cache, num_segments)
        }
    }

    /// Bare context with no plan overlay — for unit tests of the
    /// registry itself.
    pub fn new(
        params: &'a [Datum],
        cache: &'a CompiledCache,
        num_segments: usize,
    ) -> ExecContext<'a> {
        ExecContext {
            params,
            part_registry: Mutex::new(HashMap::new()),
            oid_params: Mutex::new(HashMap::new()),
            motion_cache: Mutex::new(HashMap::new()),
            redist_routes: Mutex::new(HashMap::new()),
            motion_ids: HashMap::new(),
            preroute: Mutex::new(HashMap::new()),
            per_motion_rows: Mutex::new(HashMap::new()),
            motions: AtomicU64::new(0),
            seg_stats: (0..num_segments.max(1))
                .map(|_| Mutex::new(SegmentStats::default()))
                .collect(),
            compiled_cache: cache,
            cancel: CancelToken::new(),
        }
    }

    /// Attach a cancellation token to this execution.
    pub(crate) fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Cooperative cancellation point: `Err(Error::Cancelled)` once the
    /// token tripped (explicitly or by deadline).
    pub fn check_cancel(&self) -> Result<()> {
        self.cancel.check()
    }

    pub(crate) fn compiled_cache(&self) -> &'a CompiledCache {
        self.compiled_cache
    }

    /// The `partition_propagation` built-in (paper Table 1): push OIDs to
    /// the DynamicScan with this id on this segment.
    pub fn propagate_parts(
        &self,
        id: PartScanId,
        segment: SegmentId,
        oids: impl IntoIterator<Item = PartOid>,
    ) {
        let mut reg = self.part_registry.lock();
        reg.entry((id, segment)).or_default().extend(oids);
    }

    /// Mark a selector as having run even if it selected no partitions.
    pub fn mark_selector_ran(&self, id: PartScanId, segment: SegmentId) {
        self.part_registry.lock().entry((id, segment)).or_default();
    }

    /// Consume the propagated OIDs for a DynamicScan. Errors if no
    /// selector ran on this segment — the runtime symptom of the §3.1
    /// invalid plans, detected identically at every worker count.
    pub fn consume_parts(&self, id: PartScanId, segment: SegmentId) -> Result<Vec<PartOid>> {
        self.part_registry
            .lock()
            .get(&(id, segment))
            .map(|s| s.iter().copied().collect())
            .ok_or_else(|| {
                Error::InvalidPlan(format!(
                    "DynamicScan {id} on {segment}: no PartitionSelector ran in this \
                     process (is a Motion separating the pair?)"
                ))
            })
    }

    /// Publish an init-plan OID set.
    pub fn set_oid_param(&self, param: u32, oids: HashSet<PartOid>) {
        self.oid_params.lock().insert(param, oids);
    }

    /// Gate check for a legacy `PartScan`. Init plans run before the main
    /// plan at every worker count, so an absent parameter means the plan never
    /// computes it — an invalid plan, not a timing issue.
    pub fn oid_param_contains(&self, param: u32, oid: PartOid) -> Result<bool> {
        self.oid_params
            .lock()
            .get(&param)
            .map(|set| set.contains(&oid))
            .ok_or_else(|| {
                Error::InvalidPlan(format!("OID-set parameter $oids{param} was never computed"))
            })
    }

    /// Stable id of a Motion node, from the precomputed overlay.
    pub(crate) fn motion_id_of(&self, node: &PhysicalPlan) -> Result<MotionId> {
        self.motion_ids
            .get(&(node as *const PhysicalPlan as usize))
            .copied()
            .ok_or_else(|| {
                Error::Internal("Motion node not in the plan the context was built for".into())
            })
    }

    pub(crate) fn motion_cached(&self, id: MotionId) -> Option<Arc<Vec<Vec<RowBlock>>>> {
        self.motion_cache.lock().get(&id).cloned()
    }

    pub(crate) fn motion_store(&self, id: MotionId, per_source: Arc<Vec<Vec<RowBlock>>>) {
        self.motion_cache.lock().insert(id, per_source);
    }

    /// Redistribute: every destination's selection per chunk, routed
    /// once per Motion by the first reader and shared by the rest.
    pub(crate) fn redistribute_routes(
        &self,
        id: MotionId,
        build: impl FnOnce() -> Routes,
    ) -> Arc<Routes> {
        Arc::clone(
            self.redist_routes
                .lock()
                .entry(id)
                .or_insert_with(|| Arc::new(build())),
        )
    }

    /// How many Motions have their routes cached.
    #[cfg(test)]
    pub(crate) fn routes_cached(&self) -> usize {
        self.redist_routes.lock().len()
    }

    /// Store a pre-routed copy of a Gather's output for its first
    /// consumption on segment 0.
    pub(crate) fn preroute_put(&self, id: MotionId, chunks: Vec<RowBlock>) {
        self.preroute.lock().insert(id, chunks);
    }

    /// Take the pre-routed copy, if one exists and was not consumed yet.
    pub(crate) fn preroute_take(&self, id: MotionId) -> Option<Vec<RowBlock>> {
        self.preroute.lock().remove(&id)
    }

    /// Record one Motion materialization from its per-source-segment row
    /// counts: a global motion count, rows keyed by the stable motion id,
    /// and per-source-segment rows-moved attribution.
    pub(crate) fn record_motion(&self, id: MotionId, per_source: &[u64]) {
        self.motions.fetch_add(1, Ordering::Relaxed);
        let total: u64 = per_source.iter().sum();
        *self.per_motion_rows.lock().entry(id).or_insert(0) += total;
        for (s, &rows) in per_source.iter().enumerate() {
            if let Some(slot) = self.seg_stats.get(s) {
                slot.lock().rows_moved += rows;
            }
        }
    }

    /// This segment's stats slot.
    pub(crate) fn seg_stats(&self, seg: SegmentId) -> MutexGuard<'_, SegmentStats> {
        self.seg_stats[seg.0 as usize % self.seg_stats.len()].lock()
    }

    /// Merge everything into the final query-level stats.
    pub fn into_stats(self) -> ExecutionStats {
        let mut stats = ExecutionStats {
            motions: self.motions.into_inner(),
            per_motion_rows: self.per_motion_rows.into_inner(),
            ..ExecutionStats::default()
        };
        stats.merge_segments(self.seg_stats.into_iter().map(|m| m.into_inner()).collect());
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn propagation_is_per_segment() {
        let cache = CompiledCache::new();
        let ctx = ExecContext::new(&[], &cache, 2);
        ctx.propagate_parts(PartScanId(1), SegmentId(0), [PartOid(5)]);
        assert_eq!(
            ctx.consume_parts(PartScanId(1), SegmentId(0)).unwrap(),
            vec![PartOid(5)]
        );
        // Same scan id, different segment: nothing was propagated there.
        let err = ctx.consume_parts(PartScanId(1), SegmentId(1)).unwrap_err();
        assert_eq!(err.kind(), "invalid_plan");
    }

    #[test]
    fn empty_selection_still_counts_as_ran() {
        let cache = CompiledCache::new();
        let ctx = ExecContext::new(&[], &cache, 1);
        ctx.mark_selector_ran(PartScanId(2), SegmentId(0));
        assert!(ctx
            .consume_parts(PartScanId(2), SegmentId(0))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn propagation_accumulates_and_dedupes() {
        let cache = CompiledCache::new();
        let ctx = ExecContext::new(&[], &cache, 1);
        ctx.propagate_parts(PartScanId(1), SegmentId(0), [PartOid(5), PartOid(6)]);
        ctx.propagate_parts(PartScanId(1), SegmentId(0), [PartOid(5), PartOid(7)]);
        assert_eq!(
            ctx.consume_parts(PartScanId(1), SegmentId(0)).unwrap(),
            vec![PartOid(5), PartOid(6), PartOid(7)]
        );
    }

    #[test]
    fn oid_params_gate() {
        let cache = CompiledCache::new();
        let ctx = ExecContext::new(&[], &cache, 1);
        assert!(ctx.oid_param_contains(1, PartOid(5)).is_err());
        ctx.set_oid_param(1, [PartOid(5)].into_iter().collect());
        assert!(ctx.oid_param_contains(1, PartOid(5)).unwrap());
        assert!(!ctx.oid_param_contains(1, PartOid(6)).unwrap());
    }

    #[test]
    fn registry_is_shared_across_threads() {
        // Concurrent workers publish into and read from the same registry;
        // per-segment keying keeps their entries apart.
        let cache = CompiledCache::new();
        let ctx = ExecContext::new(&[], &cache, 4);
        std::thread::scope(|s| {
            for seg in 0..4u32 {
                let ctx = &ctx;
                s.spawn(move || {
                    ctx.propagate_parts(PartScanId(1), SegmentId(seg), [PartOid(seg)]);
                });
            }
        });
        for seg in 0..4u32 {
            assert_eq!(
                ctx.consume_parts(PartScanId(1), SegmentId(seg)).unwrap(),
                vec![PartOid(seg)]
            );
        }
    }

    #[test]
    fn context_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<ExecContext<'static>>();
    }
}
