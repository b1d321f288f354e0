//! The catalog registry: shared, thread-safe metadata store.

use crate::partition::PartTree;
use crate::stats::TableStats;
use crate::table::TableDesc;
use mpp_common::{Error, PartOid, Result, TableOid};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Default)]
struct Inner {
    tables: HashMap<TableOid, Arc<TableDesc>>,
    by_name: HashMap<String, TableOid>,
    stats: HashMap<TableOid, TableStats>,
    /// Leaf partition OID → owning root table.
    part_owner: HashMap<PartOid, TableOid>,
    next_table_oid: u32,
    next_part_oid: u32,
    /// Monotonic DDL version: bumped on every CREATE/DROP/ALTER (any
    /// change to table metadata that could invalidate a compiled plan).
    /// Statistics updates do NOT bump it — stale stats only affect plan
    /// *quality*, never correctness.
    version: u64,
    /// Monotonic statistics version: bumped when the statistics a plan
    /// would be costed against change other than by row-count drift —
    /// by [`Catalog::set_stats`] (the ANALYZE path) installing something
    /// different from what is there, and by a runtime feedback miss.
    /// DML goes through [`Catalog::apply_row_deltas`], which keeps the
    /// counts exact and deliberately does NOT bump it — otherwise every
    /// write would flush every plan cache.
    stats_version: u64,
    /// Runtime cardinality feedback: per-table row counts *observed*
    /// during execution where the optimizer's estimate was off by more
    /// than [`FEEDBACK_MISS_FACTOR`]. [`Catalog::stats`] folds these over
    /// the stored statistics (scaling `row_count` and `part_rows`
    /// proportionally), so the next optimization sees the observed
    /// cardinality; later DML row deltas move the observation along with
    /// the stored count, and ANALYZE ([`Catalog::set_stats`]) supersedes
    /// and clears it.
    feedback: HashMap<TableOid, u64>,
}

/// A runtime cardinality observation only counts as a *miss* — and only
/// then invalidates cached plans — when estimate and actual differ by
/// more than this factor in either direction.
pub const FEEDBACK_MISS_FACTOR: f64 = 10.0;

fn off_by(a: u64, b: u64, factor: f64) -> bool {
    let a = a.max(1) as f64;
    let b = b.max(1) as f64;
    a / b > factor || b / a > factor
}

/// Thread-safe registry of table metadata, shared by binder, optimizers,
/// storage and executor. Cloning is cheap (`Arc` inside).
#[derive(Clone, Default)]
pub struct Catalog {
    inner: Arc<RwLock<Inner>>,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog {
            inner: Arc::new(RwLock::new(Inner {
                next_table_oid: 1,
                next_part_oid: 1000,
                ..Inner::default()
            })),
        }
    }

    /// Current DDL version. Any two calls that return the same value are
    /// guaranteed to have seen identical table metadata in between, so a
    /// plan cached under version `v` is valid exactly while
    /// `version() == v`.
    pub fn version(&self) -> u64 {
        self.inner.read().version
    }

    /// Current statistics version: bumps whenever ANALYZE installs
    /// different stats or runtime feedback records a miss. Plan caches combine it with [`Catalog::version`] so cached
    /// plans re-optimize after stats change without DDL churn.
    pub fn stats_version(&self) -> u64 {
        self.inner.read().stats_version
    }

    /// Reserve the next table OID.
    pub fn allocate_table_oid(&self) -> TableOid {
        let mut g = self.inner.write();
        let oid = TableOid(g.next_table_oid);
        g.next_table_oid += 1;
        oid
    }

    /// Reserve a dense block of `n` leaf-partition OIDs and return the first.
    pub fn allocate_part_oids(&self, n: u32) -> PartOid {
        let mut g = self.inner.write();
        let first = PartOid(g.next_part_oid);
        g.next_part_oid += n;
        first
    }

    /// Register a table. Its name must be unique; the descriptor must
    /// validate.
    pub fn register(&self, desc: TableDesc) -> Result<Arc<TableDesc>> {
        desc.validate()?;
        let mut g = self.inner.write();
        let key = desc.name.to_ascii_lowercase();
        if g.by_name.contains_key(&key) {
            return Err(Error::Duplicate(format!("table '{}'", desc.name)));
        }
        if g.tables.contains_key(&desc.oid) {
            return Err(Error::Duplicate(format!("table oid {}", desc.oid)));
        }
        let desc = Arc::new(desc);
        if let Some(tree) = &desc.partitioning {
            for leaf in tree.leaves() {
                if g.part_owner.contains_key(&leaf.oid) {
                    return Err(Error::Duplicate(format!("partition oid {}", leaf.oid)));
                }
            }
            for leaf in tree.leaves() {
                g.part_owner.insert(leaf.oid, desc.oid);
            }
        }
        g.by_name.insert(key, desc.oid);
        g.tables.insert(desc.oid, Arc::clone(&desc));
        g.version += 1;
        Ok(desc)
    }

    /// Swap a table's descriptor in place (same OID, e.g. ALTER TABLE
    /// ADD/DROP PARTITION). The partition-ownership index is re-derived
    /// from the new tree; leaf OIDs shared with the old tree keep their
    /// identity, so surviving partitions keep their stored rows.
    pub fn replace_table(&self, desc: TableDesc) -> Result<Arc<TableDesc>> {
        desc.validate()?;
        let mut g = self.inner.write();
        let old = g
            .tables
            .get(&desc.oid)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("table {}", desc.oid)))?;
        if !old.name.eq_ignore_ascii_case(&desc.name) {
            return Err(Error::InvalidMetadata(format!(
                "replace_table cannot rename '{}' to '{}'",
                old.name, desc.name
            )));
        }
        if let Some(tree) = &desc.partitioning {
            let old_leaves: std::collections::HashSet<PartOid> = old
                .partitioning
                .iter()
                .flat_map(|t| t.leaves().iter().map(|l| l.oid))
                .collect();
            for leaf in tree.leaves() {
                if !old_leaves.contains(&leaf.oid) && g.part_owner.contains_key(&leaf.oid) {
                    return Err(Error::Duplicate(format!("partition oid {}", leaf.oid)));
                }
            }
        }
        if let Some(tree) = &old.partitioning {
            for leaf in tree.leaves() {
                g.part_owner.remove(&leaf.oid);
            }
        }
        let desc = Arc::new(desc);
        if let Some(tree) = &desc.partitioning {
            for leaf in tree.leaves() {
                g.part_owner.insert(leaf.oid, desc.oid);
            }
        }
        // The rows of dropped leaves are gone and new leaves start empty:
        // say so now, not at the next ANALYZE.
        let g = &mut *g;
        if let Some(stats) = g.stats.get_mut(&desc.oid) {
            if !stats.part_rows.is_empty() {
                let mut dropped = 0u64;
                stats.part_rows.retain(|leaf, rows| {
                    let kept = g.part_owner.get(leaf) == Some(&desc.oid);
                    if !kept {
                        dropped += *rows;
                    }
                    kept
                });
                for leaf in desc.partitioning.iter().flat_map(|t| t.leaves()) {
                    stats.part_rows.entry(leaf.oid).or_insert(0);
                }
                stats.row_count = stats.row_count.saturating_sub(dropped);
                if let Some(observed) = g.feedback.get_mut(&desc.oid) {
                    *observed = observed.saturating_sub(dropped);
                }
            }
        }
        g.tables.insert(desc.oid, Arc::clone(&desc));
        g.version += 1;
        Ok(desc)
    }

    pub fn table(&self, oid: TableOid) -> Result<Arc<TableDesc>> {
        self.inner
            .read()
            .tables
            .get(&oid)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("table {oid}")))
    }

    pub fn table_by_name(&self, name: &str) -> Result<Arc<TableDesc>> {
        let g = self.inner.read();
        let oid = g
            .by_name
            .get(&name.to_ascii_lowercase())
            .copied()
            .ok_or_else(|| Error::NotFound(format!("table '{name}'")))?;
        Ok(Arc::clone(&g.tables[&oid]))
    }

    /// Which root table owns a leaf partition?
    pub fn part_owner(&self, part: PartOid) -> Result<TableOid> {
        self.inner
            .read()
            .part_owner
            .get(&part)
            .copied()
            .ok_or_else(|| Error::NotFound(format!("partition {part}")))
    }

    /// Partition tree of a table (error if not partitioned).
    pub fn part_tree(&self, oid: TableOid) -> Result<PartTree> {
        Ok(self.table(oid)?.part_tree()?.clone())
    }

    pub fn all_tables(&self) -> Vec<Arc<TableDesc>> {
        let g = self.inner.read();
        let mut v: Vec<_> = g.tables.values().cloned().collect();
        v.sort_by_key(|t| t.oid);
        v
    }

    /// Remove a table (and its partition index entries) from the catalog.
    pub fn drop_table(&self, oid: TableOid) -> Result<()> {
        let mut g = self.inner.write();
        let desc = g
            .tables
            .remove(&oid)
            .ok_or_else(|| Error::NotFound(format!("table {oid}")))?;
        g.by_name.remove(&desc.name.to_ascii_lowercase());
        g.stats.remove(&oid);
        g.feedback.remove(&oid);
        if let Some(tree) = &desc.partitioning {
            for leaf in tree.leaves() {
                g.part_owner.remove(&leaf.oid);
            }
        }
        g.version += 1;
        Ok(())
    }

    /// Install full statistics (the ANALYZE path) and clear any runtime
    /// feedback override — real statistics supersede observed row counts.
    /// Bumps the stats version, so plan caches drop plans optimized
    /// against the old cardinalities, exactly when what [`Catalog::stats`]
    /// answers changes: re-installing what is already there is a no-op.
    /// Returns whether it bumped.
    pub fn set_stats(&self, oid: TableOid, stats: TableStats) -> bool {
        let mut g = self.inner.write();
        let had_override = g.feedback.remove(&oid).is_some();
        if !had_override && g.stats.get(&oid) == Some(&stats) {
            return false;
        }
        g.stats.insert(oid, stats);
        g.stats_version += 1;
        true
    }

    /// Apply exact row-count changes from DML — one `(leaf, delta)` per
    /// touched leaf, `None` standing for an unpartitioned table — to the
    /// stored statistics and to a feedback override if one is in place.
    /// Column statistics are left as the last ANALYZE wrote them, and the
    /// stats version is NOT bumped: row-count drift alone must not flush
    /// plan caches on every write (runtime feedback catches gross drift).
    pub fn apply_row_deltas(&self, oid: TableOid, deltas: &[(Option<PartOid>, i64)]) {
        let g = &mut *self.inner.write();
        let total: i64 = deltas.iter().map(|(_, d)| d).sum();
        let stats = g.stats.entry(oid).or_insert_with(|| TableStats::new(0));
        stats.row_count = stats.row_count.saturating_add_signed(total);
        for (part, delta) in deltas {
            if let Some(p) = part {
                let rows = stats.part_rows.entry(*p).or_insert(0);
                *rows = rows.saturating_add_signed(*delta);
            }
        }
        if let Some(observed) = g.feedback.get_mut(&oid) {
            *observed = observed.saturating_add_signed(total);
        }
    }

    /// Stats for a table; defaults to a small-table guess when never
    /// analyzed. Any runtime feedback override is folded in: the observed
    /// row count replaces `row_count` and per-partition counts are scaled
    /// proportionally (the *shape* of the stored distribution is the best
    /// information available; only its magnitude was observed wrong).
    pub fn stats(&self, oid: TableOid) -> TableStats {
        let g = self.inner.read();
        let mut stats = g
            .stats
            .get(&oid)
            .cloned()
            .unwrap_or_else(|| TableStats::new(1000));
        if let Some(&observed) = g.feedback.get(&oid) {
            let old = stats.row_count.max(1);
            stats.row_count = observed;
            if !stats.part_rows.is_empty() {
                let scale = observed as f64 / old as f64;
                for rows in stats.part_rows.values_mut() {
                    *rows = (*rows as f64 * scale).round() as u64;
                }
            }
        }
        stats
    }

    /// Record a runtime cardinality observation for a base-table scan:
    /// `estimated` is what the optimizer planned with, `observed` what the
    /// executor actually read. Installs a feedback override and bumps the
    /// stats version — invalidating every cached plan through the existing
    /// `(catalog_version, stats_version)` epoch — **only** when the
    /// estimate was off by more than [`FEEDBACK_MISS_FACTOR`] *and* the
    /// observation materially changes the override already in place.
    /// The second condition breaks invalidation loops: once the override
    /// is folded into [`Catalog::stats`], the re-optimized plan estimates
    /// near the observation, the next run sees no 10× miss, and the cache
    /// settles. Returns whether cached plans were invalidated.
    pub fn record_feedback(&self, oid: TableOid, estimated: u64, observed: u64) -> bool {
        if !off_by(estimated, observed, FEEDBACK_MISS_FACTOR) {
            return false;
        }
        let mut g = self.inner.write();
        if !g.tables.contains_key(&oid) {
            return false;
        }
        if let Some(&prev) = g.feedback.get(&oid) {
            if !off_by(prev, observed, 2.0) {
                return false; // already folded close enough — no re-bump
            }
        }
        g.feedback.insert(oid, observed);
        g.stats_version += 1;
        true
    }

    /// The runtime feedback override for a table, if one is in place.
    pub fn feedback_override(&self, oid: TableOid) -> Option<u64> {
        self.inner.read().feedback.get(&oid).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::range_parts_equal_width;
    use crate::table::Distribution;
    use mpp_common::{Column, DataType, Datum, Schema};

    fn register_partitioned(cat: &Catalog, name: &str, parts: u32) -> Arc<TableDesc> {
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int32),
            Column::new("b", DataType::Int32),
        ]);
        let oid = cat.allocate_table_oid();
        let first = cat.allocate_part_oids(parts);
        let tree = range_parts_equal_width(
            1,
            Datum::Int32(0),
            Datum::Int32(parts as i32 * 10),
            parts as usize,
            first,
        )
        .unwrap();
        cat.register(TableDesc {
            oid,
            name: name.into(),
            schema,
            distribution: Distribution::Hashed(vec![0]),
            partitioning: Some(tree),
        })
        .unwrap()
    }

    #[test]
    fn register_and_lookup() {
        let cat = Catalog::new();
        let t = register_partitioned(&cat, "R", 4);
        assert_eq!(cat.table(t.oid).unwrap().name, "R");
        assert_eq!(cat.table_by_name("r").unwrap().oid, t.oid);
        assert!(cat.table_by_name("missing").is_err());
        assert!(cat.table(TableOid(999)).is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        let cat = Catalog::new();
        register_partitioned(&cat, "R", 2);
        let schema = Schema::new(vec![Column::new("x", DataType::Int32)]);
        let oid = cat.allocate_table_oid();
        let err = cat.register(TableDesc {
            oid,
            name: "r".into(),
            schema,
            distribution: Distribution::Replicated,
            partitioning: None,
        });
        assert!(err.is_err());
    }

    #[test]
    fn part_ownership_indexed() {
        let cat = Catalog::new();
        let t = register_partitioned(&cat, "R", 4);
        let leaves = t.part_tree().unwrap().partition_expansion();
        for leaf in leaves {
            assert_eq!(cat.part_owner(leaf).unwrap(), t.oid);
        }
        assert!(cat.part_owner(PartOid(1)).is_err());
    }

    #[test]
    fn oid_allocation_is_dense_and_unique() {
        let cat = Catalog::new();
        let a = cat.allocate_part_oids(10);
        let b = cat.allocate_part_oids(5);
        assert_eq!(b.0, a.0 + 10);
        assert_ne!(cat.allocate_table_oid(), cat.allocate_table_oid());
    }

    #[test]
    fn version_bumps_on_ddl_but_not_stats() {
        let cat = Catalog::new();
        let v0 = cat.version();
        let t = register_partitioned(&cat, "R", 2);
        let v1 = cat.version();
        assert!(v1 > v0, "register must bump the version");
        cat.set_stats(t.oid, TableStats::new(99));
        assert_eq!(cat.version(), v1, "stats updates must NOT bump");
        cat.drop_table(t.oid).unwrap();
        assert!(cat.version() > v1, "drop must bump the version");
    }

    #[test]
    fn replace_table_swaps_tree_and_reindexes_owners() {
        let cat = Catalog::new();
        let t = register_partitioned(&cat, "R", 4);
        let old_leaves = t.part_tree().unwrap().partition_expansion();
        let v1 = cat.version();

        // New 2-piece tree keeping the first two original leaf OIDs.
        let tree = crate::builders::range_parts_equal_width(
            1,
            Datum::Int32(0),
            Datum::Int32(20),
            2,
            old_leaves[0],
        )
        .unwrap();
        let new_desc = TableDesc {
            partitioning: Some(tree),
            ..(*t).clone()
        };
        cat.replace_table(new_desc).unwrap();
        assert!(cat.version() > v1, "replace must bump the version");
        assert_eq!(cat.part_owner(old_leaves[0]).unwrap(), t.oid);
        assert!(
            cat.part_owner(old_leaves[3]).is_err(),
            "dropped leaves must leave the ownership index"
        );
        assert_eq!(
            cat.table(t.oid).unwrap().part_tree().unwrap().num_leaves(),
            2
        );

        // Renames and unknown OIDs are rejected.
        let renamed = TableDesc {
            name: "other".into(),
            ..(*cat.table(t.oid).unwrap()).clone()
        };
        assert!(cat.replace_table(renamed).is_err());
        let missing = TableDesc {
            oid: TableOid(999),
            ..(*cat.table(t.oid).unwrap()).clone()
        };
        assert!(cat.replace_table(missing).is_err());
    }

    #[test]
    fn stats_version_bumps_on_analyze_not_row_deltas() {
        let cat = Catalog::new();
        let t = register_partitioned(&cat, "R", 2);
        let ddl_v = cat.version();
        let sv0 = cat.stats_version();
        cat.set_stats(t.oid, TableStats::new(500));
        assert!(cat.stats_version() > sv0, "ANALYZE stats must bump");
        assert_eq!(cat.version(), ddl_v, "stats must not bump the DDL version");
        let sv1 = cat.stats_version();
        cat.apply_row_deltas(t.oid, &[(Some(PartOid(1000)), 100)]);
        cat.apply_row_deltas(
            t.oid,
            &[(Some(PartOid(1000)), -30), (Some(PartOid(1001)), 5)],
        );
        assert_eq!(cat.stats_version(), sv1, "row deltas must NOT bump");
        assert_eq!(cat.stats(t.oid).row_count, 575);
        assert_eq!(cat.stats(t.oid).part_rows.get(&PartOid(1000)), Some(&70));
        // Re-installing what is already there changes no planning input.
        assert!(!cat.set_stats(t.oid, cat.stats(t.oid)));
        assert_eq!(cat.stats_version(), sv1, "a no-op ANALYZE must NOT bump");
        assert!(cat.set_stats(t.oid, TableStats::new(575)));
        assert_eq!(cat.stats_version(), sv1 + 1);
    }

    #[test]
    fn replace_table_drops_and_registers_leaf_counts() {
        let cat = Catalog::new();
        let t = register_partitioned(&cat, "R", 3);
        let leaves = t.part_tree().unwrap().partition_expansion();
        let deltas: Vec<_> = leaves.iter().map(|&l| (Some(l), 10)).collect();
        cat.apply_row_deltas(t.oid, &deltas);
        // Keep the first two leaves, add one new OID.
        let added = cat.allocate_part_oids(1);
        let tree = PartTree::with_leaf_oids(
            t.part_tree().unwrap().levels().to_vec(),
            vec![leaves[0], leaves[1], added],
        )
        .unwrap();
        let sv = cat.stats_version();
        cat.replace_table(TableDesc {
            partitioning: Some(tree),
            ..(*t).clone()
        })
        .unwrap();
        let stats = cat.stats(t.oid);
        assert_eq!(stats.row_count, 20, "the dropped leaf's rows are gone");
        assert_eq!(stats.part_rows.get(&leaves[2]), None);
        assert_eq!(stats.part_rows.get(&added), Some(&0));
        assert_eq!(cat.stats_version(), sv, "DDL bumps its own half only");
    }

    #[test]
    fn feedback_miss_overrides_stats_and_bumps_once() {
        let cat = Catalog::new();
        let t = register_partitioned(&cat, "R", 2);
        let mut part_rows = HashMap::new();
        part_rows.insert(PartOid(1000), 75u64);
        part_rows.insert(PartOid(1001), 25u64);
        cat.set_stats(t.oid, TableStats::new(100).with_part_rows(part_rows));
        let sv = cat.stats_version();

        // A 5× miss is within tolerance: no override, no invalidation.
        assert!(!cat.record_feedback(t.oid, 100, 500));
        assert_eq!(cat.stats_version(), sv);
        assert_eq!(cat.feedback_override(t.oid), None);

        // A >10× miss installs the observation and bumps the epoch; the
        // per-partition distribution is scaled, not discarded.
        assert!(cat.record_feedback(t.oid, 100, 10_000));
        assert_eq!(cat.stats_version(), sv + 1);
        let s = cat.stats(t.oid);
        assert_eq!(s.row_count, 10_000);
        assert_eq!(s.part_rows[&PartOid(1000)], 7_500);
        assert_eq!(s.part_rows[&PartOid(1001)], 2_500);

        // Re-observing roughly the same cardinality must NOT re-bump —
        // otherwise folded feedback would flush the cache every query.
        assert!(!cat.record_feedback(t.oid, 100, 11_000));
        assert_eq!(cat.stats_version(), sv + 1);

        // Later DML moves the observation along with the stored count.
        cat.apply_row_deltas(t.oid, &[(Some(PartOid(1000)), 500)]);
        assert_eq!(cat.feedback_override(t.oid), Some(10_500));
        assert_eq!(cat.stats(t.oid).row_count, 10_500);
        assert_eq!(cat.stats_version(), sv + 1, "row deltas never bump");

        // ANALYZE supersedes: the override is cleared.
        cat.set_stats(t.oid, TableStats::new(10_000));
        assert_eq!(cat.feedback_override(t.oid), None);
        assert_eq!(cat.stats(t.oid).row_count, 10_000);

        // Unknown tables are ignored.
        assert!(!cat.record_feedback(TableOid(999), 1, 1_000_000));
    }

    #[test]
    fn stats_roundtrip_with_default() {
        let cat = Catalog::new();
        let t = register_partitioned(&cat, "R", 2);
        assert_eq!(cat.stats(t.oid).row_count, 1000); // default
        cat.set_stats(t.oid, TableStats::new(5_000_000));
        assert_eq!(cat.stats(t.oid).row_count, 5_000_000);
    }
}
