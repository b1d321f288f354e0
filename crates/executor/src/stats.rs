//! Execution statistics.
//!
//! Counters are collected **per segment** in a [`SegmentStats`] (a
//! worker locks only the slot of the segment it runs) and merged
//! deterministically — in segment order, with order-insensitive set
//! unions and sums — into the query-level [`ExecutionStats`]. Every
//! merged counter is therefore identical at every worker count for the
//! same plan; only `elapsed` depends on it (time on concurrent workers
//! vs. a share of one thread).

use mpp_common::{MotionId, PartOid, SegmentId, TableOid};
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// Counters collected by one segment (worker) during one execution.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SegmentStats {
    /// Wall-clock time this segment's tasks spent executing its slices:
    /// on several workers, time on whichever worker ran them; on one,
    /// the segment's share of the calling thread. Excluded from
    /// worker-count equivalence.
    pub elapsed: Duration,
    /// Distinct leaf partitions this segment scanned, per root table.
    pub parts_scanned: HashMap<TableOid, HashSet<PartOid>>,
    /// Partition opens on this segment (each loop over a partition counts).
    pub part_opens: u64,
    /// Unpartitioned-table scans on this segment.
    pub table_scans: u64,
    /// Tuples this segment read from storage.
    pub tuples_scanned: u64,
    /// Rows this segment *sent* across Motion boundaries.
    pub rows_moved: u64,
    /// Partition-selector invocations on this segment.
    pub selector_runs: u64,
    /// Rows this segment processed through vectorized (columnar block)
    /// operator paths: batch filters, projections, join-key extraction,
    /// aggregate input, per-tuple selector probes.
    pub rows_vectorized: u64,
    /// Rows the block engine routed through the row-at-a-time fallback
    /// (per-block, when strict batch evaluation cannot reproduce exact
    /// row semantics — e.g. a row error mid-block), plus rows handled by
    /// operators that always run row-wise (nested-loops join).
    pub rows_row_fallback: u64,
    /// `RowBlock` chunks the block engine's operators produced.
    pub blocks_produced: u64,
    /// Tuples read from storage per root table (partitioned or not) —
    /// the *actual* per-table scan cardinalities the runtime feedback
    /// loop compares against the optimizer's estimates.
    pub scan_rows: HashMap<TableOid, u64>,
}

impl SegmentStats {
    pub fn record_part_scan(&mut self, table: TableOid, part: PartOid, tuples: usize) {
        self.parts_scanned.entry(table).or_default().insert(part);
        self.part_opens += 1;
        self.tuples_scanned += tuples as u64;
        *self.scan_rows.entry(table).or_default() += tuples as u64;
    }

    pub fn record_table_scan(&mut self, table: TableOid, tuples: usize) {
        self.table_scans += 1;
        self.tuples_scanned += tuples as u64;
        *self.scan_rows.entry(table).or_default() += tuples as u64;
    }

    /// Fold another stats buffer into this one (same field set as
    /// [`ExecutionStats::merge_segments`], plus `elapsed`). Used by the
    /// morsel scheduler to absorb a segment's buffered counters only
    /// once the whole segment has succeeded.
    pub fn absorb(&mut self, other: SegmentStats) {
        self.elapsed += other.elapsed;
        for (table, parts) in other.parts_scanned {
            self.parts_scanned.entry(table).or_default().extend(parts);
        }
        self.part_opens += other.part_opens;
        self.table_scans += other.table_scans;
        self.tuples_scanned += other.tuples_scanned;
        self.rows_moved += other.rows_moved;
        self.selector_runs += other.selector_runs;
        self.rows_vectorized += other.rows_vectorized;
        self.rows_row_fallback += other.rows_row_fallback;
        self.blocks_produced += other.blocks_produced;
        for (table, rows) in other.scan_rows {
            *self.scan_rows.entry(table).or_default() += rows;
        }
    }
}

/// Counters for one query execution, merged across segments.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ExecutionStats {
    /// Distinct leaf partitions scanned, per root table — the metric of
    /// paper Figure 16.
    pub parts_scanned: HashMap<TableOid, HashSet<PartOid>>,
    /// Total partition opens (a partition scanned on several segments or
    /// in several loops counts each time).
    pub part_opens: u64,
    /// Unpartitioned-table scans.
    pub table_scans: u64,
    /// Tuples read from storage.
    pub tuples_scanned: u64,
    /// Rows that crossed a Motion boundary.
    pub rows_moved: u64,
    /// Motion executions.
    pub motions: u64,
    /// Rows emitted by the root.
    pub rows_returned: u64,
    /// Partition-selector invocations.
    pub selector_runs: u64,
    /// Rows processed through vectorized (columnar block) operator paths.
    pub rows_vectorized: u64,
    /// Rows the block engine fell back to row-at-a-time evaluation for.
    pub rows_row_fallback: u64,
    /// `RowBlock` chunks produced by block operators.
    pub blocks_produced: u64,
    /// Rows materialized by each Motion node, keyed by its stable
    /// [`MotionId`] (not its node address, so clones/re-executions of a
    /// plan report under the same key).
    pub per_motion_rows: HashMap<MotionId, u64>,
    /// Tuples read from storage per root table — actual per-table scan
    /// cardinalities for the runtime feedback loop.
    pub scan_rows: HashMap<TableOid, u64>,
    /// Per-segment breakdown, indexed by `SegmentId.0`.
    pub per_segment: Vec<SegmentStats>,
}

impl ExecutionStats {
    /// Distinct partitions scanned across all tables.
    pub fn total_parts_scanned(&self) -> usize {
        self.parts_scanned.values().map(|s| s.len()).sum()
    }

    /// Distinct partitions scanned for one table.
    pub fn parts_scanned_for(&self, table: TableOid) -> usize {
        self.parts_scanned.get(&table).map(|s| s.len()).unwrap_or(0)
    }

    pub fn record_part_scan(&mut self, table: TableOid, part: PartOid, tuples: usize) {
        self.parts_scanned.entry(table).or_default().insert(part);
        self.part_opens += 1;
        self.tuples_scanned += tuples as u64;
        *self.scan_rows.entry(table).or_default() += tuples as u64;
    }

    pub fn record_table_scan(&mut self, table: TableOid, tuples: usize) {
        self.table_scans += 1;
        self.tuples_scanned += tuples as u64;
        *self.scan_rows.entry(table).or_default() += tuples as u64;
    }

    /// The per-segment view for one segment, if it exists.
    pub fn segment(&self, seg: SegmentId) -> Option<&SegmentStats> {
        self.per_segment.get(seg.0 as usize)
    }

    /// Fold per-segment counters into the query-level totals, in segment
    /// order. Sets and sums are order-insensitive, so the result is
    /// identical no matter how the segments were scheduled.
    pub fn merge_segments(&mut self, per_segment: Vec<SegmentStats>) {
        for seg in &per_segment {
            for (table, parts) in &seg.parts_scanned {
                self.parts_scanned
                    .entry(*table)
                    .or_default()
                    .extend(parts.iter().copied());
            }
            self.part_opens += seg.part_opens;
            self.table_scans += seg.table_scans;
            self.tuples_scanned += seg.tuples_scanned;
            self.rows_moved += seg.rows_moved;
            self.selector_runs += seg.selector_runs;
            self.rows_vectorized += seg.rows_vectorized;
            self.rows_row_fallback += seg.rows_row_fallback;
            self.blocks_produced += seg.blocks_produced;
            for (table, rows) in &seg.scan_rows {
                *self.scan_rows.entry(*table).or_default() += rows;
            }
        }
        self.per_segment = per_segment;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_parts_counted_once() {
        let mut s = ExecutionStats::default();
        s.record_part_scan(TableOid(1), PartOid(10), 5);
        s.record_part_scan(TableOid(1), PartOid(10), 7); // same part, other segment
        s.record_part_scan(TableOid(1), PartOid(11), 3);
        s.record_part_scan(TableOid(2), PartOid(20), 1);
        assert_eq!(s.parts_scanned_for(TableOid(1)), 2);
        assert_eq!(s.total_parts_scanned(), 3);
        assert_eq!(s.part_opens, 4);
        assert_eq!(s.tuples_scanned, 16);
        assert_eq!(s.scan_rows[&TableOid(1)], 15);
        assert_eq!(s.scan_rows[&TableOid(2)], 1);
    }

    #[test]
    fn merge_is_deterministic_and_complete() {
        let mut a = SegmentStats::default();
        a.record_part_scan(TableOid(1), PartOid(10), 5);
        a.record_table_scan(TableOid(3), 3);
        a.rows_moved = 7;
        a.selector_runs = 1;
        let mut b = SegmentStats::default();
        b.record_part_scan(TableOid(1), PartOid(10), 2); // same part on another segment
        b.record_part_scan(TableOid(1), PartOid(11), 4);
        b.rows_moved = 2;

        let mut fwd = ExecutionStats::default();
        fwd.merge_segments(vec![a.clone(), b.clone()]);
        assert_eq!(fwd.parts_scanned_for(TableOid(1)), 2);
        assert_eq!(fwd.part_opens, 3);
        assert_eq!(fwd.table_scans, 1);
        assert_eq!(fwd.tuples_scanned, 14);
        assert_eq!(fwd.rows_moved, 9);
        assert_eq!(fwd.selector_runs, 1);
        assert_eq!(fwd.scan_rows[&TableOid(1)], 11);
        assert_eq!(fwd.scan_rows[&TableOid(3)], 3);
        assert_eq!(fwd.per_segment.len(), 2);
        assert_eq!(fwd.segment(SegmentId(1)).unwrap().part_opens, 2);

        // The totals do not depend on which segment did what.
        let mut rev = ExecutionStats::default();
        rev.merge_segments(vec![b, a]);
        assert_eq!(rev.parts_scanned, fwd.parts_scanned);
        assert_eq!(rev.part_opens, fwd.part_opens);
        assert_eq!(rev.tuples_scanned, fwd.tuples_scanned);
        assert_eq!(rev.rows_moved, fwd.rows_moved);
    }
}
