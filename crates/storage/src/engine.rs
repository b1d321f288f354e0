//! The storage engine proper.

use mpp_catalog::{
    Catalog, Distribution, LeafSummary, TableStats, LEAF_SAMPLE_CAP, TABLE_SAMPLE_CAP,
};
use mpp_common::{Datum, Error, PartOid, Result, Row, RowBlock, SegmentId, TableOid};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identity of a physical table: either a plain (unpartitioned) table or
/// one leaf partition of a partitioned table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PhysId {
    Table(TableOid),
    Part(PartOid),
}

impl PhysId {
    /// The leaf partition this is, `None` for an unpartitioned table.
    fn part(self) -> Option<PartOid> {
        match self {
            PhysId::Table(_) => None,
            PhysId::Part(p) => Some(p),
        }
    }

    fn sample_cap(self) -> usize {
        match self {
            PhysId::Table(_) => TABLE_SAMPLE_CAP,
            PhysId::Part(_) => LEAF_SAMPLE_CAP,
        }
    }
}

impl std::fmt::Display for PhysId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PhysId::Table(t) => write!(f, "{t}"),
            PhysId::Part(p) => write!(f, "{p}"),
        }
    }
}

/// The statistics side of one physical table.
struct Leaf {
    /// Logical rows (one copy of a replicated table) and column sketches.
    summary: LeafSummary,
    /// Rows were removed since `summary` was built: its count is still
    /// exact, but min/max, NDV and sample describe rows that may be gone.
    /// The next ANALYZE rebuilds it from the blocks.
    dirty: bool,
    /// Bumped by every write, so ANALYZE can tell that a leaf changed
    /// between its unlocked rescan and the install.
    writes: u64,
}

impl Leaf {
    fn new(phys: PhysId, width: usize) -> Leaf {
        Leaf {
            summary: LeafSummary::new(width, phys.sample_cap()),
            dirty: false,
            writes: 0,
        }
    }
}

#[derive(Default)]
struct Inner {
    /// (physical table, segment) → resident columnar block (always dense:
    /// no selection vector). Scanning a block is an `Arc` bump per column;
    /// the row-oriented scan APIs materialize rows on the way out.
    data: HashMap<(PhysId, SegmentId), RowBlock>,
}

/// One table's physical tables → their statistical summaries. A leaf that
/// never held a row has none.
type Leaves = HashMap<PhysId, Leaf>;

/// The shared storage engine. Cheap to clone.
///
/// Two locks, taken in this order. A table's `leaves` mutex serializes
/// everything that changes its rows — inserts, overwrites, drops — and
/// ANALYZE's install: a writer holds it while it moves a leaf's blocks, its
/// summary and the catalog's row counts, so the three never disagree to
/// anyone who holds it. It is per table, so loading or analyzing one table
/// never holds up writers of another (the map of tables is locked only to
/// look one up). `inner` guards the blocks themselves and is write-held
/// only to append or swap one; scans take nothing else, so statistics work
/// never makes a query wait.
#[derive(Clone)]
pub struct Storage {
    catalog: Catalog,
    num_segments: usize,
    inner: Arc<RwLock<Inner>>,
    leaves: Arc<Mutex<HashMap<TableOid, Arc<Mutex<Leaves>>>>>,
    leaves_resummarized: Arc<AtomicU64>,
}

impl Storage {
    pub fn new(catalog: Catalog, num_segments: usize) -> Storage {
        assert!(num_segments >= 1, "need at least one segment");
        Storage {
            catalog,
            num_segments,
            inner: Arc::new(RwLock::new(Inner::default())),
            leaves: Arc::default(),
            leaves_resummarized: Arc::default(),
        }
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn num_segments(&self) -> usize {
        self.num_segments
    }

    pub fn segments(&self) -> impl Iterator<Item = SegmentId> {
        (0..self.num_segments as u32).map(SegmentId)
    }

    /// The lock over `table`'s leaf summaries. Entries are never removed,
    /// so everyone who asks for a table gets the same lock.
    fn leaves_of(&self, table: TableOid) -> Arc<Mutex<Leaves>> {
        Arc::clone(self.leaves.lock().entry(table).or_default())
    }

    /// Which segment(s) a row of `table` belongs on.
    fn target_segments(&self, dist: &Distribution, row: &Row) -> Vec<SegmentId> {
        match dist {
            Distribution::Hashed(cols) => {
                let h = row.hash_columns(cols);
                vec![SegmentId((h % self.num_segments as u64) as u32)]
            }
            Distribution::Replicated => self.segments().collect(),
            Distribution::Singleton => vec![SegmentId(0)],
        }
    }

    /// The physical table a row of `table` belongs in (`f_T`; `⊥` is an
    /// error).
    pub fn route_row(&self, table: TableOid, row: &Row) -> Result<PhysId> {
        let desc = self.catalog.table(table)?;
        match &desc.partitioning {
            None => Ok(PhysId::Table(table)),
            Some(tree) => {
                let keys: Vec<Datum> = tree
                    .key_indices()
                    .iter()
                    .map(|&i| {
                        row.get(i).cloned().ok_or_else(|| {
                            Error::Execution(format!("row too short for partition key #{i}"))
                        })
                    })
                    .collect::<Result<_>>()?;
                let oid = tree.route(&keys).ok_or_else(|| {
                    Error::NoMatchingPartition(format!(
                        "table {}: no partition accepts key {:?}",
                        desc.name, keys
                    ))
                })?;
                Ok(PhysId::Part(oid))
            }
        }
    }

    /// Every (physical table, segment) location where a row of `table`
    /// with these values is stored.
    pub fn locate_row(&self, table: TableOid, row: &Row) -> Result<Vec<(PhysId, SegmentId)>> {
        let desc = self.catalog.table(table)?;
        let phys = self.route_row(table, row)?;
        Ok(self
            .target_segments(&desc.distribution, row)
            .into_iter()
            .map(|seg| (phys, seg))
            .collect())
    }

    /// Do the blocks on `segment` count toward a table's logical rows?
    /// Every segment of a replicated table holds a full copy; count one.
    fn counts_rows(dist: &Distribution, segment: SegmentId) -> bool {
        !matches!(dist, Distribution::Replicated) || segment.0 == 0
    }

    /// Insert rows, routing each to its partition and segment(s), and fold
    /// them into the touched leaves' statistical summaries — O(rows
    /// inserted), so a table loaded only by inserts is described as well
    /// as a rescan would describe it. The catalog work — descriptor
    /// resolution, partition-key indices, the distribution — is done once
    /// per batch, not once per row; the per-row cost is one O(log P) route
    /// plus one hash.
    pub fn insert(&self, table: TableOid, rows: impl IntoIterator<Item = Row>) -> Result<usize> {
        let desc = self.catalog.table(table)?;
        let part = desc
            .partitioning
            .as_ref()
            .map(|tree| (tree, tree.key_indices()));
        let mut keys: Vec<Datum> = Vec::with_capacity(part.as_ref().map_or(0, |(_, k)| k.len()));
        let mut staged: HashMap<(PhysId, SegmentId), Vec<Row>> = HashMap::new();
        let mut n = 0usize;
        for row in rows {
            if row.len() != desc.schema.len() {
                return Err(Error::Execution(format!(
                    "table {}: row arity {} != schema arity {}",
                    desc.name,
                    row.len(),
                    desc.schema.len()
                )));
            }
            let phys = match &part {
                None => PhysId::Table(table),
                Some((tree, key_indices)) => {
                    keys.clear();
                    for &i in key_indices {
                        keys.push(row.get(i).cloned().ok_or_else(|| {
                            Error::Execution(format!("row too short for partition key #{i}"))
                        })?);
                    }
                    let oid = tree.route(&keys).ok_or_else(|| {
                        Error::NoMatchingPartition(format!(
                            "table {}: no partition accepts key {:?}",
                            desc.name, keys
                        ))
                    })?;
                    PhysId::Part(oid)
                }
            };
            let mut segs = self.target_segments(&desc.distribution, &row).into_iter();
            let last = segs.next_back();
            for seg in segs {
                staged.entry((phys, seg)).or_default().push(row.clone());
            }
            if let Some(seg) = last {
                staged.entry((phys, seg)).or_default().push(row);
            }
            n += 1;
        }
        if n == 0 {
            return Ok(0);
        }
        let width = desc.schema.len();
        // Fold and append in (leaf, segment) order, the order a rescan
        // walks: a sample depends on the order its values arrive in, and
        // the hash map's order differs from process to process.
        let mut staged: Vec<_> = staged.into_iter().collect();
        staged.sort_unstable_by_key(|(key, _)| *key);
        let leaves = self.leaves_of(table);
        let mut leaves = leaves.lock();
        let mut deltas: HashMap<PhysId, i64> = HashMap::new();
        for ((phys, seg), rows) in &staged {
            if Storage::counts_rows(&desc.distribution, *seg) {
                let leaf = leaves
                    .entry(*phys)
                    .or_insert_with(|| Leaf::new(*phys, width));
                for row in rows {
                    leaf.summary.observe_row(row.values());
                }
                leaf.writes += 1;
                *deltas.entry(*phys).or_insert(0) += rows.len() as i64;
            }
        }
        {
            // One write-lock section, so scans see the batch whole; each
            // group's staged rows are freed as soon as they are appended.
            let mut g = self.inner.write();
            for (key, rows) in staged {
                g.data
                    .entry(key)
                    .or_insert_with(|| RowBlock::empty(width))
                    .append_rows(&rows);
            }
        }
        // Still holding `leaves`, so an ANALYZE never installs counts that
        // miss, or double, an insert it raced with. The catalog never calls
        // into storage, so the lock order storage → catalog is safe.
        self.apply_row_deltas(table, deltas);
        Ok(n)
    }

    fn apply_row_deltas(&self, table: TableOid, deltas: HashMap<PhysId, i64>) {
        let deltas: Vec<(Option<PartOid>, i64)> =
            deltas.into_iter().map(|(p, d)| (p.part(), d)).collect();
        self.catalog.apply_row_deltas(table, &deltas);
    }

    /// Scan one physical table on one segment as a columnar block: an
    /// `Arc` bump per column, no row materialization. `None` when the
    /// location holds no rows (the caller knows the schema width).
    pub fn scan_block(&self, phys: PhysId, segment: SegmentId) -> Option<RowBlock> {
        self.inner.read().data.get(&(phys, segment)).cloned()
    }

    /// Scan several physical tables on one segment under a *single* lock
    /// acquisition, in input order — the block-engine counterpart of
    /// [`Storage::scan_batch`]. A dynamic scan opens every selected
    /// partition back to back; taking the storage lock once per batch
    /// instead of once per partition keeps fine-grained partitioning
    /// cheap — and keeps concurrently-scanning segment workers from
    /// bouncing the lock's cache line hundreds of times per query.
    pub fn scan_batch_blocks(
        &self,
        phys: impl IntoIterator<Item = PhysId>,
        segment: SegmentId,
    ) -> Vec<(PhysId, Option<RowBlock>)> {
        let g = self.inner.read();
        phys.into_iter()
            .map(|p| (p, g.data.get(&(p, segment)).cloned()))
            .collect()
    }

    /// Scan one physical table on one segment as *morsels*: block slices
    /// of at most `morsel_rows` logical rows, in row order. Each morsel
    /// shares the stored block's column arcs — slicing allocates only a
    /// selection vector (and a whole-block morsel not even that). This is
    /// the unit of work the morsel-driven scheduler steals between
    /// workers, so a partition's scan parallelizes even when one
    /// partition holds most of the table.
    pub fn scan_block_morsels(
        &self,
        phys: PhysId,
        segment: SegmentId,
        morsel_rows: usize,
    ) -> Vec<RowBlock> {
        match self.scan_block(phys, segment) {
            None => Vec::new(),
            Some(b) => block_morsels(&b, morsel_rows),
        }
    }

    /// Scan one physical table on one segment, materializing rows.
    pub fn scan(&self, phys: PhysId, segment: SegmentId) -> Vec<Row> {
        self.inner
            .read()
            .data
            .get(&(phys, segment))
            .map(|b| b.to_rows())
            .unwrap_or_default()
    }

    /// Row-materializing form of [`Storage::scan_batch_blocks`].
    pub fn scan_batch(
        &self,
        phys: impl IntoIterator<Item = PhysId>,
        segment: SegmentId,
    ) -> Vec<(PhysId, Vec<Row>)> {
        let g = self.inner.read();
        phys.into_iter()
            .map(|p| {
                (
                    p,
                    g.data
                        .get(&(p, segment))
                        .map(|b| b.to_rows())
                        .unwrap_or_default(),
                )
            })
            .collect()
    }

    /// Rows of a physical table across all segments.
    pub fn scan_all_segments(&self, phys: PhysId) -> Vec<Row> {
        let g = self.inner.read();
        let mut out = Vec::new();
        for seg in 0..self.num_segments as u32 {
            if let Some(b) = g.data.get(&(phys, SegmentId(seg))) {
                out.extend(b.to_rows());
            }
        }
        out
    }

    /// Every physical table of a logical table (1 for plain tables).
    pub fn physical_tables(&self, table: TableOid) -> Result<Vec<PhysId>> {
        let desc = self.catalog.table(table)?;
        Ok(match &desc.partitioning {
            None => vec![PhysId::Table(table)],
            Some(tree) => tree
                .partition_expansion()
                .into_iter()
                .map(PhysId::Part)
                .collect(),
        })
    }

    /// Total row count of a logical table. For replicated tables this is
    /// the logical count (one copy), not the stored count.
    pub fn row_count(&self, table: TableOid) -> Result<u64> {
        let desc = self.catalog.table(table)?;
        let phys = self.physical_tables(table)?;
        let g = self.inner.read();
        let mut n = 0u64;
        for p in phys {
            for seg in 0..self.num_segments as u32 {
                if let Some(b) = g.data.get(&(p, SegmentId(seg))) {
                    n += b.len() as u64;
                }
            }
        }
        if matches!(desc.distribution, Distribution::Replicated) {
            n /= self.num_segments as u64;
        }
        Ok(n)
    }

    /// The table a physical table belongs to, while the catalog knows it.
    fn owner(&self, phys: PhysId) -> Option<Arc<mpp_catalog::TableDesc>> {
        let table = match phys {
            PhysId::Table(t) => t,
            PhysId::Part(p) => self.catalog.part_owner(p).ok()?,
        };
        self.catalog.table(table).ok()
    }

    /// Replace the contents of one physical table on one segment (used by
    /// DML execution). The row counts move by exactly the difference; the
    /// leaf's sketches cannot retract the rows that went, so it is marked
    /// dirty for the next ANALYZE.
    pub fn overwrite(&self, phys: PhysId, segment: SegmentId, rows: Vec<Row>) {
        let block = rows
            .first()
            .map(|first| RowBlock::from_rows(&rows, first.len()));
        let swap = |block: Option<RowBlock>| {
            let mut g = self.inner.write();
            match block {
                None => g.data.remove(&(phys, segment)),
                Some(block) => g.data.insert((phys, segment), block),
            }
        };
        // A leaf the catalog no longer knows was dropped under the
        // statement that writes it: there are no statistics left to keep.
        let Some(desc) = self.owner(phys) else {
            swap(block);
            return;
        };
        let leaves = self.leaves_of(desc.oid);
        let mut leaves = leaves.lock();
        let leaf = match &block {
            None => leaves.get_mut(&phys),
            Some(b) => Some(
                leaves
                    .entry(phys)
                    .or_insert_with(|| Leaf::new(phys, b.width())),
            ),
        };
        let old = swap(block);
        let delta = rows.len() as i64 - old.map_or(0, |b| b.len()) as i64;
        let Some(leaf) = leaf else { return };
        leaf.dirty = true;
        leaf.writes += 1;
        if Storage::counts_rows(&desc.distribution, segment) {
            leaf.summary.adjust_rows(delta);
            self.catalog
                .apply_row_deltas(desc.oid, &[(phys.part(), delta)]);
        }
    }

    /// Delete all rows of a logical table.
    pub fn truncate(&self, table: TableOid) -> Result<()> {
        let phys: HashSet<PhysId> = self.physical_tables(table)?.into_iter().collect();
        let leaves = self.leaves_of(table);
        let mut leaves = leaves.lock();
        self.inner
            .write()
            .data
            .retain(|(p, _), _| !phys.contains(p));
        let deltas = leaves
            .drain()
            .map(|(p, leaf)| (p, -(leaf.summary.rows() as i64)))
            .collect();
        self.apply_row_deltas(table, deltas);
        Ok(())
    }

    /// Delete the rows and summaries of specific leaf partitions of `table`
    /// on every segment — the storage side of `ALTER TABLE … DROP
    /// PARTITION`, called after the catalog no longer knows the leaves (and
    /// has already taken their rows out of the table's counts).
    pub fn drop_parts(&self, table: TableOid, parts: &[PartOid]) {
        let phys: HashSet<PhysId> = parts.iter().map(|&p| PhysId::Part(p)).collect();
        let leaves = self.leaves_of(table);
        let mut leaves = leaves.lock();
        self.inner
            .write()
            .data
            .retain(|(p, _), _| !phys.contains(p));
        leaves.retain(|p, _| !phys.contains(p));
    }

    /// Compute and install [`TableStats`] for a table: re-summarize the
    /// *dirty* leaves (the ones that lost rows since their summary was
    /// built) from their resident blocks, then merge every leaf's summary
    /// into the table's statistics. Leaves only inserted into are already
    /// described exactly, so a table nobody deleted from costs a merge and
    /// no scan; a table whose every leaf is dirty costs one streaming pass
    /// over its blocks, column at a time, no row materialization.
    ///
    /// The rescan runs without any lock — it works on `Arc` clones of the
    /// blocks — so ANALYZE holds up only this table's writers, only for
    /// the merge, and scans not at all. A leaf written to meanwhile keeps
    /// its old summary and stays dirty. The planning epoch moves only if
    /// the merged statistics differ from the installed ones
    /// ([`Catalog::set_stats`]).
    ///
    /// The result is a function of the table's write history: inserts fold
    /// and rescans walk in (leaf, segment) order, and the samplers are
    /// seeded, so identical loads give identical statistics in every
    /// process. (A rescanned leaf's sample can differ from the one its
    /// inserts built: batch by batch is another order than segment by
    /// segment.)
    pub fn analyze(&self, table: TableOid) -> Result<TableStats> {
        let desc = self.catalog.table(table)?;
        let ncols = desc.schema.len();
        let segments: Vec<SegmentId> = self
            .segments()
            .filter(|&seg| Storage::counts_rows(&desc.distribution, seg))
            .collect();
        let table_leaves = self.leaves_of(table);
        let dirty: Vec<(PhysId, u64, Vec<RowBlock>)> = {
            let leaves = table_leaves.lock();
            let g = self.inner.read();
            self.physical_tables(table)?
                .into_iter()
                .filter_map(|p| {
                    let leaf = leaves.get(&p).filter(|leaf| leaf.dirty)?;
                    let blocks = segments
                        .iter()
                        .filter_map(|&seg| g.data.get(&(p, seg)).cloned())
                        .collect();
                    Some((p, leaf.writes, blocks))
                })
                .collect()
        };
        let fresh: Vec<(PhysId, u64, LeafSummary)> = dirty
            .into_iter()
            .map(|(p, writes, blocks)| (p, writes, summarize(p, ncols, &blocks)))
            .collect();
        self.leaves_resummarized
            .fetch_add(fresh.len() as u64, Ordering::Relaxed);

        let mut leaves = table_leaves.lock();
        for (p, writes, summary) in fresh {
            if let Some(leaf) = leaves.get_mut(&p).filter(|leaf| leaf.writes == writes) {
                leaf.summary = summary;
                leaf.dirty = false;
            }
        }
        // The table's leaves are asked for again, so that a partition
        // dropped during the rescan does not come back as a zero-row entry.
        let stats = TableStats::from_leaves(
            ncols,
            self.physical_tables(table)?
                .iter()
                .map(|p| (p.part(), leaves.get(p).map(|leaf| &leaf.summary))),
        );
        self.catalog.set_stats(table, stats.clone());
        Ok(stats)
    }

    /// Leaves whose summaries ANALYZE has rebuilt from their blocks since
    /// this engine was created (the rest were merged as they stood).
    pub fn leaves_resummarized(&self) -> u64 {
        self.leaves_resummarized.load(Ordering::Relaxed)
    }
}

/// Summarize a leaf from its resident (dense) blocks, column at a time.
fn summarize(phys: PhysId, ncols: usize, blocks: &[RowBlock]) -> LeafSummary {
    let mut summary = LeafSummary::new(ncols, phys.sample_cap());
    for block in blocks {
        summary.adjust_rows(block.len() as i64);
        for (c, col) in block.columns().iter().enumerate().take(ncols) {
            for r in 0..block.phys_rows() {
                summary.observe(c, &col.get(r));
            }
        }
    }
    summary
}

/// Cut one block into morsels of at most `morsel_rows` logical rows,
/// preserving row order. A block no larger than one morsel comes back
/// as a single clone (no selection vector materialized); `morsel_rows`
/// is clamped to at least 1 so a misconfigured zero still terminates.
pub fn block_morsels(b: &RowBlock, morsel_rows: usize) -> Vec<RowBlock> {
    let step = morsel_rows.max(1);
    let len = b.len();
    if len == 0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(len.div_ceil(step));
    let mut lo = 0;
    while lo < len {
        let hi = (lo + step).min(len);
        out.push(b.slice_rows(lo, hi));
        lo = hi;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpp_catalog::builders::range_parts_equal_width;
    use mpp_catalog::TableDesc;
    use mpp_common::{row, Column, DataType, Schema};

    fn setup(parts: Option<u32>, dist: Distribution) -> (Storage, TableOid) {
        let cat = Catalog::new();
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int32),
            Column::new("b", DataType::Int32),
        ]);
        let oid = cat.allocate_table_oid();
        let partitioning = parts.map(|n| {
            let first = cat.allocate_part_oids(n);
            range_parts_equal_width(
                1,
                Datum::Int32(0),
                Datum::Int32(n as i32 * 10),
                n as usize,
                first,
            )
            .unwrap()
        });
        cat.register(TableDesc {
            oid,
            name: "r".into(),
            schema,
            distribution: dist,
            partitioning,
        })
        .unwrap();
        (Storage::new(cat, 4), oid)
    }

    #[test]
    fn insert_routes_to_partitions() {
        let (st, t) = setup(Some(4), Distribution::Hashed(vec![0]));
        st.insert(t, (0..40).map(|i| row![i, i])).unwrap();
        assert_eq!(st.row_count(t).unwrap(), 40);
        let phys = st.physical_tables(t).unwrap();
        assert_eq!(phys.len(), 4);
        // Each leaf holds exactly its decade.
        for (k, p) in phys.iter().enumerate() {
            let rows = st.scan_all_segments(*p);
            assert_eq!(rows.len(), 10, "leaf {k}");
            for r in rows {
                let b = r.get(1).unwrap().as_i64().unwrap();
                assert!(b >= k as i64 * 10 && b < (k as i64 + 1) * 10);
            }
        }
    }

    #[test]
    fn out_of_range_key_is_rejected() {
        let (st, t) = setup(Some(4), Distribution::Hashed(vec![0]));
        let err = st.insert(t, vec![row![1, 999]]).unwrap_err();
        assert_eq!(err.kind(), "no_matching_partition");
        // Nothing partially inserted.
        assert_eq!(st.row_count(t).unwrap(), 0);
    }

    #[test]
    fn hash_distribution_spreads_and_is_stable() {
        let (st, t) = setup(None, Distribution::Hashed(vec![0]));
        st.insert(t, (0..1000).map(|i| row![i, 0])).unwrap();
        let mut per_seg = Vec::new();
        for seg in st.segments() {
            per_seg.push(st.scan(PhysId::Table(t), seg).len());
        }
        assert_eq!(per_seg.iter().sum::<usize>(), 1000);
        // All segments get a reasonable share.
        for &n in &per_seg {
            assert!(n > 150, "skewed distribution: {per_seg:?}");
        }
        // Same key → same segment.
        let (st2, t2) = setup(None, Distribution::Hashed(vec![0]));
        st2.insert(t2, vec![row![42, 1]]).unwrap();
        st2.insert(t2, vec![row![42, 2]]).unwrap();
        let seg_with_rows: Vec<usize> = st2
            .segments()
            .map(|s| st2.scan(PhysId::Table(t2), s).len())
            .collect();
        assert_eq!(seg_with_rows.iter().filter(|&&n| n > 0).count(), 1);
    }

    #[test]
    fn morsels_cover_a_segment_in_row_order() {
        let (st, t) = setup(None, Distribution::Singleton);
        st.insert(t, (0..25).map(|i| row![i, i * 2])).unwrap();
        // 25 rows at 7 rows/morsel: 7+7+7+4, in row order, no overlap.
        let morsels = st.scan_block_morsels(PhysId::Table(t), SegmentId(0), 7);
        assert_eq!(
            morsels.iter().map(RowBlock::len).collect::<Vec<_>>(),
            [7, 7, 7, 4]
        );
        let rows: Vec<Row> = morsels.iter().flat_map(RowBlock::to_rows).collect();
        assert_eq!(rows, st.scan(PhysId::Table(t), SegmentId(0)));
        // A morsel at least as large as the block is the block itself.
        let whole = st.scan_block_morsels(PhysId::Table(t), SegmentId(0), 100);
        assert_eq!(whole.len(), 1);
        assert_eq!(whole[0].len(), 25);
        // morsel_rows == 0 is clamped, not an infinite loop.
        let ones = st.scan_block_morsels(PhysId::Table(t), SegmentId(0), 0);
        assert_eq!(ones.len(), 25);
        // An empty segment yields no morsels.
        assert!(st
            .scan_block_morsels(PhysId::Table(t), SegmentId(1), 7)
            .is_empty());
    }

    #[test]
    fn replicated_tables_copy_everywhere() {
        let (st, t) = setup(None, Distribution::Replicated);
        st.insert(t, vec![row![1, 1], row![2, 2]]).unwrap();
        for seg in st.segments() {
            assert_eq!(st.scan(PhysId::Table(t), seg).len(), 2);
        }
        // Logical count is one copy's worth.
        assert_eq!(st.row_count(t).unwrap(), 2);
    }

    #[test]
    fn singleton_tables_live_on_segment_zero() {
        let (st, t) = setup(None, Distribution::Singleton);
        st.insert(t, vec![row![1, 1]]).unwrap();
        assert_eq!(st.scan(PhysId::Table(t), SegmentId(0)).len(), 1);
        assert_eq!(st.scan(PhysId::Table(t), SegmentId(1)).len(), 0);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let (st, t) = setup(None, Distribution::Singleton);
        assert!(st.insert(t, vec![row![1]]).is_err());
    }

    #[test]
    fn analyze_computes_stats() {
        let (st, t) = setup(Some(4), Distribution::Hashed(vec![0]));
        let rows = (0..40).map(|i| {
            if i % 4 == 0 {
                Row::new(vec![Datum::Null, Datum::Int32(i)])
            } else {
                row![i % 5, i]
            }
        });
        st.insert(t, rows).unwrap();
        let stats = st.analyze(t).unwrap();
        assert_eq!(stats.row_count, 40);
        let a = &stats.columns[&0];
        assert_eq!(a.ndv, 5); // i%5 over non-multiples-of-4 i in 0..40: {0,1,2,3,4}
        assert!((a.null_frac - 0.25).abs() < 1e-9);
        let b = &stats.columns[&1];
        assert_eq!(b.ndv, 40);
        assert_eq!(b.min, Some(Datum::Int32(0)));
        assert_eq!(b.max, Some(Datum::Int32(39)));
        // Stats are installed in the catalog.
        assert_eq!(st.catalog().stats(t).row_count, 40);
    }

    #[test]
    fn analyze_builds_histogram_and_part_rows() {
        let (st, t) = setup(Some(4), Distribution::Hashed(vec![0]));
        // Skew: partition p0 gets 31 rows (b in 0..10 cycled), the rest 3 each.
        let rows = (0..40).map(|i| {
            let b = if i < 31 { i % 10 } else { 10 + (i - 31) * 3 };
            row![i, b]
        });
        st.insert(t, rows).unwrap();
        let stats = st.analyze(t).unwrap();
        assert_eq!(stats.row_count, 40);
        // Per-partition counts reflect the skew.
        let leaves = st
            .catalog()
            .table(t)
            .unwrap()
            .part_tree()
            .unwrap()
            .partition_expansion();
        assert_eq!(stats.part_rows[&leaves[0]], 31);
        let total: u64 = stats.part_rows.values().sum();
        assert_eq!(total, 40);
        // Column b carries a histogram covering its full value range.
        let h = stats.columns[&1].histogram.as_ref().unwrap();
        assert_eq!(h.total, 40);
        assert_eq!(h.le_frac(39), 1.0);
        // Most values are < 10: the histogram sees the skew.
        assert!(h.le_frac(9) > 0.6);
    }

    #[test]
    fn insert_keeps_row_counts_exact_without_bumping() {
        let (st, t) = setup(Some(4), Distribution::Hashed(vec![0]));
        st.insert(t, (0..12).map(|i| row![i, i % 40])).unwrap();
        let stats = st.catalog().stats(t);
        assert_eq!(stats.row_count, 12, "insert must move the row count");
        let sv = st.catalog().stats_version();
        st.insert(t, vec![row![100, 5]]).unwrap();
        assert_eq!(st.catalog().stats(t).row_count, 13);
        assert_eq!(
            st.catalog().stats_version(),
            sv,
            "row deltas must not bump the stats version"
        );
    }

    #[test]
    fn insert_only_table_analyzes_without_a_rescan() {
        let (st, t) = setup(Some(4), Distribution::Hashed(vec![0]));
        st.insert(t, (0..40).map(|i| row![i % 7, i])).unwrap();
        let stats = st.analyze(t).unwrap();
        assert_eq!(st.leaves_resummarized(), 0, "inserts fold exactly");
        assert_eq!(stats.columns[&0].ndv, 7);
        assert_eq!(stats.columns[&1].max, Some(Datum::Int32(39)));
        assert_eq!(stats.columns[&1].histogram.as_ref().unwrap().total, 40);
    }

    #[test]
    fn identical_loads_give_identical_stats() {
        // Leaves well past the 256-value reservoir, several segments each:
        // the sample then depends on the order the fold sees the groups in.
        let load = || {
            let (st, t) = setup(Some(4), Distribution::Hashed(vec![0]));
            for batch in 0..3 {
                let rows = (0..4_000).map(|i| row![i * 7 + batch, (i * 13 + batch) % 40]);
                st.insert(t, rows).unwrap();
            }
            let inserted = st.analyze(t).unwrap();
            // Dirty every leaf, so the second ANALYZE is a full rescan.
            for leaf in st.physical_tables(t).unwrap() {
                let rows = st.scan(leaf, SegmentId(0));
                st.overwrite(leaf, SegmentId(0), rows);
            }
            (inserted, st.analyze(t).unwrap())
        };
        let (a, b) = (load(), load());
        assert!(a.0.columns[&0].histogram.is_some());
        assert_eq!(a.0, b.0, "insert-built statistics");
        assert_eq!(a.1, b.1, "rescanned statistics");
    }

    #[test]
    fn analyze_resummarizes_exactly_the_dirty_leaves() {
        let (st, t) = setup(Some(8), Distribution::Hashed(vec![0]));
        st.insert(t, (0..80).map(|i| row![i, i])).unwrap();
        st.analyze(t).unwrap();
        let leaves = st.physical_tables(t).unwrap();
        // Delete from leaves 1 and 5 (every segment of each), append to 6.
        for &leaf in &[leaves[1], leaves[5]] {
            for seg in st.segments() {
                let mut rows = st.scan(leaf, seg);
                rows.pop();
                st.overwrite(leaf, seg, rows);
            }
        }
        st.insert(t, vec![row![1000, 65]]).unwrap();
        let before = st.leaves_resummarized();
        let sv = st.catalog().stats_version();
        let stats = st.analyze(t).unwrap();
        assert_eq!(
            st.leaves_resummarized() - before,
            2,
            "2 of 8 leaves lost rows"
        );
        assert_eq!(st.catalog().stats_version(), sv + 1);
        assert_eq!(stats.row_count, st.row_count(t).unwrap());
        // b was unique; the appended row repeats one value that is still there.
        assert_eq!(stats.columns[&1].ndv, stats.row_count - 1);
        // Nothing is dirty now: ANALYZE merges, rescans nothing, bumps nothing.
        let again = st.analyze(t).unwrap();
        assert_eq!(again, stats);
        assert_eq!(st.leaves_resummarized() - before, 2);
        assert_eq!(st.catalog().stats_version(), sv + 1);
    }

    #[test]
    fn removed_rows_leave_the_counts_at_once() {
        let (st, t) = setup(Some(4), Distribution::Hashed(vec![0]));
        st.insert(t, (0..40).map(|i| row![i, i])).unwrap();
        let leaves = st.physical_tables(t).unwrap();
        let PhysId::Part(first) = leaves[0] else {
            panic!("partitioned")
        };
        // overwrite: the count moves by exactly the difference.
        let seg = st
            .segments()
            .find(|&s| !st.scan(leaves[0], s).is_empty())
            .unwrap();
        let mut rows = st.scan(leaves[0], seg);
        let removed = rows.len() - 1;
        rows.truncate(1);
        st.overwrite(leaves[0], seg, rows);
        let stats = st.catalog().stats(t);
        assert_eq!(stats.row_count, 40 - removed as u64);
        assert_eq!(stats.part_rows[&first], 10 - removed as u64);
        st.overwrite(leaves[0], seg, Vec::new());
        assert_eq!(st.catalog().stats(t).row_count, 39 - removed as u64);
        // ANALYZE rebuilds the dirty leaf and agrees with the deltas.
        let analyzed = st.analyze(t).unwrap();
        assert_eq!(analyzed.row_count, st.row_count(t).unwrap());
        assert_eq!(analyzed.part_rows, st.catalog().stats(t).part_rows);
        // truncate: everything goes, per leaf and in total.
        st.truncate(t).unwrap();
        let stats = st.catalog().stats(t);
        assert_eq!(stats.row_count, 0);
        assert!(stats.part_rows.values().all(|&n| n == 0));
        assert_eq!(st.analyze(t).unwrap().row_count, 0);
    }

    #[test]
    fn replicated_deletes_count_one_copy() {
        let (st, t) = setup(None, Distribution::Replicated);
        st.insert(t, vec![row![1, 1], row![2, 2], row![3, 3]])
            .unwrap();
        for seg in st.segments() {
            st.overwrite(PhysId::Table(t), seg, vec![row![1, 1]]);
        }
        assert_eq!(st.catalog().stats(t).row_count, 1);
        let stats = st.analyze(t).unwrap();
        assert_eq!(stats.row_count, 1);
        assert_eq!(stats.columns[&0].max, Some(Datum::Int32(1)));
    }

    #[test]
    fn analyze_replicated_counts_one_copy() {
        let (st, t) = setup(None, Distribution::Replicated);
        st.insert(t, vec![row![1, 1], row![2, 2]]).unwrap();
        let stats = st.analyze(t).unwrap();
        assert_eq!(stats.row_count, 2);
    }

    #[test]
    fn truncate_clears_all_parts() {
        let (st, t) = setup(Some(4), Distribution::Hashed(vec![0]));
        st.insert(t, (0..40).map(|i| row![i, i])).unwrap();
        st.truncate(t).unwrap();
        assert_eq!(st.row_count(t).unwrap(), 0);
    }

    #[test]
    fn overwrite_replaces_segment_contents() {
        let (st, t) = setup(None, Distribution::Singleton);
        st.insert(t, vec![row![1, 1]]).unwrap();
        st.overwrite(PhysId::Table(t), SegmentId(0), vec![row![9, 9], row![8, 8]]);
        assert_eq!(st.row_count(t).unwrap(), 2);
    }
}
