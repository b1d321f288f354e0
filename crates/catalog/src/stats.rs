//! Table statistics for cardinality estimation and costing.
//!
//! Besides the classic NDV / null-fraction / min-max summary, columns can
//! carry an equi-depth [`Histogram`] built by `ANALYZE` and tables keep
//! per-leaf-partition row counts, which is what lets the optimizer cost a
//! `DynamicScan` by the rows of the partitions that *survive* elimination
//! rather than by a whole-table fraction.
//!
//! [`TableStats`] is what the optimizer reads. It is *derived*: every leaf
//! partition (or unpartitioned table) owns a bounded, mergeable
//! [`LeafSummary`] that inserts fold rows into as they arrive, and
//! [`TableStats::from_leaves`] merges those into the table's statistics.
//! The summaries live beside the data in the storage engine, never inside
//! the struct `Catalog::stats` clones.

use mpp_common::{Datum, PartOid};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Number of buckets every equi-depth histogram carries.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Values a leaf partition's [`ValueSample`] keeps per column. A table's
/// histogram is built from all its leaves' samples together, so its
/// effective sample is this times the number of leaves.
pub const LEAF_SAMPLE_CAP: usize = 256;

/// Values the [`ValueSample`] of an unpartitioned table keeps per column:
/// it is the table's only stratum, so it carries the whole budget.
pub const TABLE_SAMPLE_CAP: usize = 4096;

/// Distinct values an `NdvSketch` counts exactly before it switches to
/// HyperLogLog registers. `8 * NDV_EXACT_CAP` bytes is also the size of
/// the register array, so a sketch never exceeds 4 KiB.
pub const NDV_EXACT_CAP: usize = 512;

const HLL_BITS: u32 = 12;
const HLL_REGISTERS: usize = 1 << HLL_BITS;

/// An equi-depth histogram over an integer-ordered column.
///
/// `bounds` holds `n+1` non-decreasing values: bucket `i` covers
/// `(bounds[i], bounds[i+1]]` (the first bucket is closed on the left) and
/// each bucket holds ~`total / n` of the non-null values. Built from a
/// bounded reservoir sample, so construction is a single streaming pass
/// over the data — only the fixed-size sample is ever sorted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    pub bounds: Vec<i64>,
    /// Non-null values summarized.
    pub total: u64,
}

impl Histogram {
    fn buckets(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// Fraction of non-null values `<= v` (0 when the histogram is empty).
    pub fn le_frac(&self, v: i64) -> f64 {
        let n = self.buckets();
        if n == 0 || self.total == 0 {
            return 0.0;
        }
        let lo = self.bounds[0];
        let hi = self.bounds[n];
        if v < lo {
            return 0.0;
        }
        if v >= hi {
            return 1.0;
        }
        // Find the bucket containing v: bounds[i] <= v < bounds[i+1].
        let i = match self.bounds.binary_search(&v) {
            // v equals a boundary; everything up to and including bucket i
            // (which ends at v) qualifies. Skip duplicate boundaries.
            Ok(mut idx) => {
                while idx < n && self.bounds[idx + 1] == v {
                    idx += 1;
                }
                return (idx as f64 / n as f64).clamp(0.0, 1.0);
            }
            Err(ins) => ins - 1,
        };
        let b_lo = self.bounds[i];
        let b_hi = self.bounds[i + 1];
        let within = if b_hi > b_lo {
            (v - b_lo) as f64 / (b_hi - b_lo) as f64
        } else {
            1.0
        };
        ((i as f64 + within) / n as f64).clamp(0.0, 1.0)
    }

    /// Fraction of non-null values in `[lo, hi]` (inclusive both ends).
    pub fn range_frac(&self, lo: Option<i64>, hi: Option<i64>) -> f64 {
        let above_lo = match lo {
            // P(x >= lo) = 1 - P(x <= lo-1)
            Some(l) => 1.0 - self.le_frac(l.saturating_sub(1)),
            None => 1.0,
        };
        let below_hi = match hi {
            Some(h) => self.le_frac(h),
            None => 1.0,
        };
        (above_lo + below_hi - 1.0).clamp(0.0, 1.0)
    }

    /// Equi-depth histogram over the union of several strata, each
    /// described by a uniform sample of it: a sampled value stands for
    /// `seen / kept` values of its stratum. `None` when no stratum saw an
    /// integer value.
    pub fn from_samples<'a>(
        samples: impl IntoIterator<Item = &'a ValueSample>,
    ) -> Option<Histogram> {
        let mut total = 0u64;
        let mut points: Vec<(i64, f64)> = Vec::new();
        for s in samples {
            if s.values.is_empty() {
                continue;
            }
            total += s.seen;
            let weight = s.seen as f64 / s.values.len() as f64;
            points.extend(s.values.iter().map(|&v| (v, weight)));
        }
        if points.is_empty() {
            return None;
        }
        points.sort_unstable_by_key(|p| p.0);
        let weight_sum: f64 = points.iter().map(|p| p.1).sum();
        let n = HISTOGRAM_BUCKETS.min(points.len());
        let mut bounds = Vec::with_capacity(n + 1);
        bounds.push(points[0].0);
        // Bound `b` is the smallest sampled value at which the cumulative
        // weight reaches b/n of the whole.
        let (mut i, mut cum) = (0usize, points[0].1);
        for b in 1..n {
            let target = weight_sum * b as f64 / n as f64;
            while cum < target - weight_sum * 1e-12 && i + 1 < points.len() {
                i += 1;
                cum += points[i].1;
            }
            bounds.push(points[i].0);
        }
        bounds.push(points[points.len() - 1].0);
        Some(Histogram { bounds, total })
    }
}

/// A bounded uniform sample of the integer-ordered values of one column of
/// one leaf: a reservoir of at most `cap` values plus the count of values
/// it was drawn from. Deterministic (fixed xorshift seed), so the same
/// rows in the same order always yield the same sample.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueSample {
    values: Vec<i64>,
    seen: u64,
    rng: u64,
    cap: usize,
}

impl ValueSample {
    pub fn new(cap: usize) -> ValueSample {
        ValueSample {
            values: Vec::new(),
            seen: 0,
            rng: 0x9e3779b97f4a7c15,
            cap: cap.max(1),
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545f4914f6cdd1d)
    }

    /// Feed one non-null value.
    pub fn add(&mut self, v: i64) {
        self.seen += 1;
        if self.values.len() < self.cap {
            self.values.push(v);
        } else {
            // Uniform in 0..seen by multiply-shift: no division per value.
            let j = ((self.next_rand() as u128 * self.seen as u128) >> 64) as u64;
            if (j as usize) < self.cap {
                self.values[j as usize] = v;
            }
        }
    }

    /// Feed an integer-valued datum; non-integer datums are skipped (the
    /// histogram stays value-domain `i64`; string columns rely on NDV).
    pub fn add_datum(&mut self, d: &Datum) {
        match d {
            Datum::Int32(v) => self.add(*v as i64),
            Datum::Int64(v) => self.add(*v),
            Datum::Date(v) => self.add(*v as i64),
            Datum::Bool(v) => self.add(*v as i64),
            _ => {}
        }
    }
}

/// Distinct-value counter: an exact sorted set of 64-bit value hashes up to
/// [`NDV_EXACT_CAP`], HyperLogLog registers above it. Both forms are
/// insert-only and mergeable, and merging is order-independent, so a
/// sketch built row by row equals one built by a rescan of the same rows.
#[derive(Debug, Clone, PartialEq)]
enum NdvSketch {
    Exact(Vec<u64>),
    Registers(Box<[u8]>),
}

impl Default for NdvSketch {
    fn default() -> NdvSketch {
        NdvSketch::Exact(Vec::new())
    }
}

/// The 64-bit hash a sketch keys a value by. Values equal under `Datum`'s
/// coercing equality hash equal: integers, dates and integral floats go
/// through their `i64` value; everything else through
/// `Datum::distribution_hash`, which draws the same classes.
fn value_hash(v: &Datum) -> u64 {
    match v {
        Datum::Int32(x) | Datum::Date(x) => mix64(*x as i64 as u64),
        Datum::Int64(x) => mix64(*x as u64),
        Datum::Float64(f) if f.fract() == 0.0 && f.abs() < 9.0e18 => mix64(*f as i64 as u64),
        _ => mix64(v.distribution_hash()),
    }
}

/// Finalizer of splitmix64: the raw integers, and FNV-1a's output for
/// short inputs, are weak in the high bits that pick the register.
fn mix64(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58476d1ce4e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d049bb133111eb);
    h ^ (h >> 31)
}

fn set_register(regs: &mut [u8], hash: u64) {
    let idx = (hash >> (64 - HLL_BITS)) as usize;
    // Rank of the first set bit among the remaining 64 - HLL_BITS bits;
    // the sentinel bit caps it at 64 - HLL_BITS + 1.
    let rank = ((hash << HLL_BITS) | (1 << (HLL_BITS - 1))).leading_zeros() as u8 + 1;
    if rank > regs[idx] {
        regs[idx] = rank;
    }
}

impl NdvSketch {
    /// Count a non-null value. Values equal under `Datum`'s equality hash
    /// equal (`Int32(5)`, `Int64(5)` and `Date(5)` are one value).
    fn insert(&mut self, v: &Datum) {
        self.insert_hash(value_hash(v));
    }

    fn insert_hash(&mut self, hash: u64) {
        match self {
            NdvSketch::Exact(set) => {
                if let Err(pos) = set.binary_search(&hash) {
                    if set.len() < NDV_EXACT_CAP {
                        set.insert(pos, hash);
                    } else {
                        self.spill();
                        self.insert_hash(hash);
                    }
                }
            }
            NdvSketch::Registers(regs) => set_register(regs, hash),
        }
    }

    /// Exact set → registers.
    fn spill(&mut self) {
        if let NdvSketch::Exact(set) = self {
            let mut regs = vec![0u8; HLL_REGISTERS].into_boxed_slice();
            for &h in set.iter() {
                set_register(&mut regs, h);
            }
            *self = NdvSketch::Registers(regs);
        }
    }

    /// Fold another sketch in: afterwards `self` counts the union.
    fn merge(&mut self, other: &NdvSketch) {
        match other {
            NdvSketch::Exact(set) => {
                for &h in set {
                    self.insert_hash(h);
                }
            }
            NdvSketch::Registers(theirs) => {
                self.spill();
                if let NdvSketch::Registers(ours) = self {
                    for (a, b) in ours.iter_mut().zip(theirs.iter()) {
                        *a = (*a).max(*b);
                    }
                }
            }
        }
    }

    /// Distinct values counted: exact in the exact form; otherwise the
    /// estimator of Ertl, "New cardinality estimation algorithms for
    /// HyperLogLog sketches" (2017), which needs no small- or large-range
    /// correction. Relative standard error 1.04/√4096 ≈ 1.6%.
    fn estimate(&self) -> u64 {
        let regs = match self {
            NdvSketch::Exact(set) => return set.len() as u64,
            NdvSketch::Registers(regs) => regs,
        };
        const Q: usize = (64 - HLL_BITS) as usize;
        let mut hist = [0u32; Q + 2];
        for &r in regs.iter() {
            hist[r as usize] += 1;
        }
        let m = HLL_REGISTERS as f64;
        let mut z = m * hll_tau(1.0 - hist[Q + 1] as f64 / m);
        for k in (1..=Q).rev() {
            z = 0.5 * (z + hist[k] as f64);
        }
        z += m * hll_sigma(hist[0] as f64 / m);
        // alpha_inf = 1 / (2 ln 2)
        (m * m / (2.0 * std::f64::consts::LN_2 * z)).round() as u64
    }
}

fn hll_sigma(mut x: f64) -> f64 {
    if x == 1.0 {
        return f64::INFINITY;
    }
    let (mut y, mut z) = (1.0, x);
    loop {
        x *= x;
        let prev = z;
        z += x * y;
        y += y;
        if z == prev {
            return z;
        }
    }
}

fn hll_tau(mut x: f64) -> f64 {
    if x == 0.0 || x == 1.0 {
        return 0.0;
    }
    let (mut y, mut z) = (1.0, 1.0 - x);
    loop {
        x = x.sqrt();
        let prev = z;
        y *= 0.5;
        z -= (1.0 - x).powi(2) * y;
        if z == prev {
            return z / 3.0;
        }
    }
}

/// What one leaf knows about one of its columns.
#[derive(Debug, Clone, PartialEq)]
struct ColumnSummary {
    nulls: u64,
    min: Option<Datum>,
    max: Option<Datum>,
    ndv: NdvSketch,
    sample: ValueSample,
}

impl ColumnSummary {
    fn new(sample_cap: usize) -> ColumnSummary {
        ColumnSummary {
            nulls: 0,
            min: None,
            max: None,
            ndv: NdvSketch::default(),
            sample: ValueSample::new(sample_cap),
        }
    }

    fn observe(&mut self, v: &Datum) {
        if v.is_null() {
            self.nulls += 1;
            return;
        }
        if self.min.as_ref().is_none_or(|m| v < m) {
            self.min = Some(v.clone());
        }
        if self.max.as_ref().is_none_or(|m| v > m) {
            self.max = Some(v.clone());
        }
        self.ndv.insert(v);
        self.sample.add_datum(v);
    }
}

/// The bounded statistical summary of one leaf partition (or of one
/// unpartitioned table): row count and, per column, null count, min/max,
/// an `NdvSketch` and a [`ValueSample`]. Inserts fold rows in; nothing
/// can be taken back out except the row count, so a leaf that lost rows
/// is re-summarized from its blocks by the next `ANALYZE`.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafSummary {
    rows: u64,
    cols: Vec<ColumnSummary>,
}

impl LeafSummary {
    /// An empty summary of a leaf with `ncols` columns whose samples keep
    /// `sample_cap` values ([`LEAF_SAMPLE_CAP`] or [`TABLE_SAMPLE_CAP`]).
    pub fn new(ncols: usize, sample_cap: usize) -> LeafSummary {
        LeafSummary {
            rows: 0,
            cols: (0..ncols).map(|_| ColumnSummary::new(sample_cap)).collect(),
        }
    }

    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Apply an exact row-count change (deletes are negative).
    pub fn adjust_rows(&mut self, delta: i64) {
        self.rows = self.rows.saturating_add_signed(delta);
    }

    /// Fold one value of column `col` in (the row count is separate: see
    /// [`LeafSummary::adjust_rows`]). Out-of-range columns are ignored.
    pub fn observe(&mut self, col: usize, v: &Datum) {
        if let Some(c) = self.cols.get_mut(col) {
            c.observe(v);
        }
    }

    /// Fold one appended row in.
    pub fn observe_row(&mut self, values: &[Datum]) {
        self.rows += 1;
        for (c, v) in self.cols.iter_mut().zip(values) {
            c.observe(v);
        }
    }
}

/// Per-column summary statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnStats {
    /// Number of distinct values.
    pub ndv: u64,
    /// Fraction of NULLs, in `[0, 1]`.
    pub null_frac: f64,
    pub min: Option<Datum>,
    pub max: Option<Datum>,
    /// Equi-depth histogram over non-null values (ANALYZE only; DML row
    /// deltas leave column statistics as the last ANALYZE wrote them).
    #[serde(default)]
    pub histogram: Option<Histogram>,
}

impl ColumnStats {
    pub fn new(ndv: u64) -> ColumnStats {
        ColumnStats {
            ndv: ndv.max(1),
            null_frac: 0.0,
            min: None,
            max: None,
            histogram: None,
        }
    }

    pub fn with_range(mut self, min: Datum, max: Datum) -> ColumnStats {
        self.min = Some(min);
        self.max = Some(max);
        self
    }

    pub fn with_histogram(mut self, h: Histogram) -> ColumnStats {
        self.histogram = Some(h);
        self
    }
}

/// Statistics of one table.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TableStats {
    pub row_count: u64,
    /// Column index → stats. Sparse: absent columns use defaults.
    pub columns: HashMap<usize, ColumnStats>,
    /// Leaf partition → row count, kept exact by DML row deltas (empty
    /// means never collected: assume a uniform spread across leaves).
    #[serde(default)]
    pub part_rows: HashMap<PartOid, u64>,
}

impl TableStats {
    pub fn new(row_count: u64) -> TableStats {
        TableStats {
            row_count,
            columns: HashMap::new(),
            part_rows: HashMap::new(),
        }
    }

    pub fn with_column(mut self, idx: usize, stats: ColumnStats) -> TableStats {
        self.columns.insert(idx, stats);
        self
    }

    pub fn with_part_rows(mut self, rows: HashMap<PartOid, u64>) -> TableStats {
        self.part_rows = rows;
        self
    }

    /// NDV of a column, defaulting to a fraction of the row count when
    /// unknown (the classic System-R guess).
    pub fn ndv(&self, idx: usize) -> u64 {
        self.columns
            .get(&idx)
            .map(|c| c.ndv)
            .unwrap_or_else(|| (self.row_count / 10).max(1))
    }

    /// Fraction of NULLs in a column (0 when unknown).
    pub fn null_frac(&self, idx: usize) -> f64 {
        self.columns
            .get(&idx)
            .map(|c| c.null_frac.clamp(0.0, 1.0))
            .unwrap_or(0.0)
    }

    /// Selectivity of an equality predicate on the column. Equality never
    /// matches NULL, so the NULL fraction is excluded before the uniform
    /// 1/NDV spread over the remaining rows.
    pub fn eq_selectivity(&self, idx: usize) -> f64 {
        ((1.0 - self.null_frac(idx)) / self.ndv(idx) as f64).clamp(0.0, 1.0)
    }

    /// Merge leaf summaries into table statistics — what `ANALYZE`
    /// installs. `leaves` lists every leaf of the table (`None` is the
    /// unpartitioned table itself); a leaf without a summary holds no
    /// rows. Row and null counts add, min/max fold, NDV sketches merge
    /// (exact while the union stays under [`NDV_EXACT_CAP`]), and the
    /// histogram weighs each leaf's sample by the values it stands for.
    pub fn from_leaves<'a>(
        ncols: usize,
        leaves: impl IntoIterator<Item = (Option<PartOid>, Option<&'a LeafSummary>)>,
    ) -> TableStats {
        let mut stats = TableStats::new(0);
        let mut present: Vec<&LeafSummary> = Vec::new();
        for (part, leaf) in leaves {
            let rows = leaf.map_or(0, LeafSummary::rows);
            stats.row_count += rows;
            if let Some(p) = part {
                stats.part_rows.insert(p, rows);
            }
            present.extend(leaf);
        }
        for c in 0..ncols {
            let cols = || present.iter().filter_map(move |l| l.cols.get(c));
            let mut ndv = NdvSketch::default();
            let (mut nulls, mut min, mut max) = (0u64, None::<&Datum>, None::<&Datum>);
            for col in cols() {
                nulls += col.nulls;
                ndv.merge(&col.ndv);
                min = [min, col.min.as_ref()].into_iter().flatten().min();
                max = [max, col.max.as_ref()].into_iter().flatten().max();
            }
            let mut cs = ColumnStats::new(ndv.estimate());
            if stats.row_count > 0 {
                cs.null_frac = nulls as f64 / stats.row_count as f64;
            }
            cs.min = min.cloned();
            cs.max = max.cloned();
            cs.histogram = Histogram::from_samples(cols().map(|col| &col.sample));
            stats.columns.insert(c, cs);
        }
        stats
    }

    /// Total rows across a set of surviving leaf partitions, or `None`
    /// when per-partition counts were never collected.
    pub fn rows_in_parts<'a>(&self, parts: impl Iterator<Item = &'a PartOid>) -> Option<u64> {
        if self.part_rows.is_empty() {
            return None;
        }
        Some(
            parts
                .map(|p| self.part_rows.get(p).copied().unwrap_or(0))
                .sum(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let s = TableStats::new(1000);
        assert_eq!(s.ndv(0), 100);
        assert!((s.eq_selectivity(0) - 0.01).abs() < 1e-9);
    }

    #[test]
    fn explicit_column_stats_win() {
        let s = TableStats::new(1000).with_column(2, ColumnStats::new(50));
        assert_eq!(s.ndv(2), 50);
        assert_eq!(s.ndv(0), 100);
    }

    #[test]
    fn ndv_never_zero() {
        let s = TableStats::new(0).with_column(0, ColumnStats::new(0));
        assert_eq!(s.ndv(0), 1);
        assert_eq!(s.ndv(1), 1);
    }

    #[test]
    fn eq_selectivity_excludes_nulls() {
        let mut col = ColumnStats::new(10);
        col.null_frac = 0.5;
        let s = TableStats::new(1000).with_column(0, col);
        assert!((s.eq_selectivity(0) - 0.05).abs() < 1e-9);
    }

    fn sample_of(values: impl IntoIterator<Item = i64>) -> ValueSample {
        let mut s = ValueSample::new(TABLE_SAMPLE_CAP);
        for v in values {
            s.add(v);
        }
        s
    }

    #[test]
    fn histogram_uniform_quantiles() {
        let h = Histogram::from_samples([&sample_of(0..10_000)]).unwrap();
        assert_eq!(h.total, 10_000);
        // Median of 0..10000 should be ~5000.
        let le = h.le_frac(5_000);
        assert!((le - 0.5).abs() < 0.05, "le_frac(5000) = {le}");
        assert_eq!(h.le_frac(-1), 0.0);
        assert_eq!(h.le_frac(10_000), 1.0);
        // A [2500, 7500] range covers ~half the values.
        let r = h.range_frac(Some(2_500), Some(7_500));
        assert!((r - 0.5).abs() < 0.08, "range_frac = {r}");
    }

    #[test]
    fn histogram_skewed_data() {
        // 90% of values are 0, the rest uniform in [1, 1000].
        let s = sample_of((0..10_000i64).map(|i| if i % 10 == 0 { 1 + (i % 1000) } else { 0 }));
        let h = Histogram::from_samples([&s]).unwrap();
        let le0 = h.le_frac(0);
        assert!(le0 > 0.8, "le_frac(0) = {le0} for 90%-zero data");
        // A range that excludes zero must estimate well under 20%.
        let r = h.range_frac(Some(1), Some(1_000));
        assert!(r < 0.2, "range_frac(1..1000) = {r}");
    }

    #[test]
    fn histogram_reservoir_bounded() {
        let s = sample_of((0..100_000i64).map(|v| v % 997));
        assert_eq!(s.values.len(), TABLE_SAMPLE_CAP);
        let h = Histogram::from_samples([&s]).unwrap();
        assert_eq!(h.total, 100_000);
        assert!(h.bounds.len() <= HISTOGRAM_BUCKETS + 1);
        // Sample-derived quantiles should still be roughly uniform.
        let le = h.le_frac(498);
        assert!((le - 0.5).abs() < 0.1, "le_frac(498) = {le}");
    }

    #[test]
    fn empty_sample_yields_none() {
        assert!(Histogram::from_samples([&ValueSample::new(8)]).is_none());
        let mut s = ValueSample::new(8);
        s.add_datum(&Datum::str("only strings"));
        s.add_datum(&Datum::Null);
        assert!(Histogram::from_samples([&s]).is_none());
    }

    #[test]
    fn histogram_weighs_strata_by_the_values_they_stand_for() {
        // A big stratum sampled 1-in-40 next to a small one kept whole: the
        // big one must still carry ~10/11 of the mass.
        let mut big = ValueSample::new(LEAF_SAMPLE_CAP);
        (0..10_240i64).for_each(|v| big.add(v % 100));
        let mut small = ValueSample::new(LEAF_SAMPLE_CAP);
        (0..1_024i64).for_each(|v| small.add(1_000 + v % 100));
        assert_eq!((big.values.len(), small.values.len()), (256, 256));
        let h = Histogram::from_samples([&big, &small]).unwrap();
        assert_eq!(h.total, 11_264);
        let le = h.le_frac(99);
        assert!((le - 10.0 / 11.0).abs() < 2.0 / 32.0, "le_frac(99) = {le}");
    }

    #[test]
    fn ndv_sketch_is_exact_then_within_five_percent() {
        let mut s = NdvSketch::default();
        for round in 0..2 {
            for v in 0..NDV_EXACT_CAP as i64 {
                s.insert(&Datum::Int64(v));
                s.insert(&Datum::Int32(v as i32)); // equal values count once
            }
            assert!(matches!(s, NdvSketch::Exact(_)), "round {round}");
            assert_eq!(s.estimate(), NDV_EXACT_CAP as u64);
        }
        for n in [1_000i64, 5_000, 50_000, 1_000_000] {
            for v in 0..n {
                s.insert(&Datum::Int64(v));
            }
            assert!(matches!(s, NdvSketch::Registers(_)));
            let est = s.estimate() as f64;
            assert!((est / n as f64 - 1.0).abs() < 0.05, "n={n} est={est}");
        }
    }

    #[test]
    fn ndv_merge_counts_the_union_in_any_order() {
        let sketch = |r: std::ops::Range<i64>| {
            let mut s = NdvSketch::default();
            r.for_each(|v| s.insert(&Datum::Int64(v)));
            s
        };
        // exact ∪ exact stays exact under the cap and spills over it.
        let mut a = sketch(0..300);
        a.merge(&sketch(200..400));
        assert!(matches!(a, NdvSketch::Exact(_)));
        assert_eq!(a.estimate(), 400);
        a.merge(&sketch(400..700));
        assert!(matches!(a, NdvSketch::Registers(_)));
        // Merging equals inserting, whichever side spilled first.
        let whole = sketch(0..20_000);
        let mut left = sketch(0..10_000);
        left.merge(&sketch(10_000..20_000));
        let mut right = sketch(19_900..20_000);
        right.merge(&sketch(0..19_900));
        assert_eq!(left, whole);
        assert_eq!(right, whole);
    }

    #[test]
    fn leaf_summaries_merge_into_table_stats() {
        let mut a = LeafSummary::new(2, LEAF_SAMPLE_CAP);
        let mut b = LeafSummary::new(2, LEAF_SAMPLE_CAP);
        for i in 0..30 {
            a.observe_row(&[Datum::Int32(i), Datum::str("x")]);
        }
        for i in 20..30 {
            b.observe_row(&[Datum::Int32(i), Datum::Null]);
        }
        let leaves = [
            (Some(PartOid(1)), Some(&a)),
            (Some(PartOid(2)), Some(&b)),
            (Some(PartOid(3)), None),
        ];
        let s = TableStats::from_leaves(2, leaves);
        assert_eq!(s.row_count, 40);
        assert_eq!(s.part_rows[&PartOid(1)], 30);
        assert_eq!(s.part_rows[&PartOid(3)], 0, "an empty leaf is a known zero");
        let c0 = &s.columns[&0];
        assert_eq!(c0.ndv, 30);
        assert_eq!(
            (c0.min.clone(), c0.max.clone()),
            (Some(Datum::Int32(0)), Some(Datum::Int32(29)))
        );
        assert_eq!(c0.histogram.as_ref().unwrap().total, 40);
        let c1 = &s.columns[&1];
        assert_eq!(c1.ndv, 1);
        assert!((c1.null_frac - 0.25).abs() < 1e-12);
        assert!(c1.histogram.is_none(), "strings carry no histogram");
        // Deletes only move the count; the sketches are rebuilt by ANALYZE.
        a.adjust_rows(-5);
        assert_eq!(a.rows(), 25);
    }

    #[test]
    fn part_rows_sum_surviving() {
        let mut parts = HashMap::new();
        parts.insert(PartOid(1), 100);
        parts.insert(PartOid(2), 900);
        let s = TableStats::new(1000).with_part_rows(parts);
        let survivors = [PartOid(2)];
        assert_eq!(s.rows_in_parts(survivors.iter()), Some(900));
        let none = TableStats::new(1000);
        assert_eq!(none.rows_in_parts(survivors.iter()), None);
    }
}
