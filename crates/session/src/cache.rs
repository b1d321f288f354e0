//! The process-wide plan cache: sharded, LRU-evicting, version-checked.
//!
//! Keys are (normalized SQL, planner flavor) — the two inputs that
//! determine the physical plan. Values are fully prepared
//! statements ([`mppart::PreparedQuery`]) behind `Arc`s, so a cache hit
//! shares not just the plan but the executor's compiled-expression
//! templates with every concurrent user.
//!
//! Entries carry the planning epoch they were optimized against — the
//! (catalog version, statistics version) pair recorded on the
//! `PreparedQuery`. A lookup that finds an entry from an older epoch
//! removes it and reports a miss; DDL and ANALYZE paths may also
//! [`PlanCache::sweep`] eagerly. Statistics count because the
//! cost-based join-order search reads them: a plan cached before
//! ANALYZE may order joins badly afterwards, so it must re-optimize
//! even though it would still be *correct*. An execution already
//! running on an invalidated plan is unaffected — the `Arc` keeps the
//! plan alive, and storage reads of partitions dropped mid-flight
//! simply see no rows — so invalidation is safe at any point.

use mppart::{CacheInfo, Planner, PreparedQuery};
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default total entry capacity of a [`PlanCache`].
pub const DEFAULT_CACHE_CAPACITY: usize = 128;

const SHARDS: usize = 8;

/// What determines a cached plan: the canonical statement text (see
/// [`crate::normalize_sql`]) and which planner produced it. How many
/// workers execute it is not part of the plan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    pub sql: String,
    pub planner: Planner,
}

struct Entry {
    q: Arc<PreparedQuery>,
    /// Last-touch stamp from the shard's logical clock; the minimum
    /// stamp is the LRU victim.
    stamp: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<CacheKey, Entry>,
    tick: u64,
}

/// Sharded LRU plan cache shared by every session of a
/// [`crate::SessionCtx`]. All methods take `&self`; contention is one
/// short `Mutex` per shard, and the hit/miss/eviction/invalidation
/// counters are lock-free.
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (0 disables caching:
    /// every lookup misses and inserts are dropped).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_cap: capacity.div_ceil(SHARDS),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// The cached plan for `key`, if present *and* optimized against the
    /// current planning epoch (catalog version, statistics version). An
    /// epoch mismatch removes the stale entry and counts as both an
    /// invalidation and a miss.
    pub fn lookup(&self, key: &CacheKey, epoch: (u64, u64)) -> Option<Arc<PreparedQuery>> {
        if self.per_shard_cap > 0 {
            let mut guard = self.shard(key).lock();
            let shard = &mut *guard;
            shard.tick += 1;
            let stamp = shard.tick;
            let stale = match shard.map.get_mut(key) {
                Some(e) if e.q.epoch() == epoch => {
                    e.stamp = stamp;
                    let q = Arc::clone(&e.q);
                    drop(guard);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(q);
                }
                Some(_) => true,
                None => false,
            };
            if stale {
                shard.map.remove(key);
                self.invalidations.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Insert a freshly prepared plan, evicting the shard's
    /// least-recently-used entry when at capacity. (The victim scan is
    /// linear in the shard — shards are small by construction.)
    ///
    /// Victim selection is epoch-aware: an entry from an older epoch
    /// than the inserted plan's is preferred over any live entry and is
    /// accounted as an *invalidation*, not an eviction — a lookup or
    /// sweep would have dropped it for the same reason. Counting it as
    /// an eviction would double-report one catalog or stats bump (once
    /// here, once in the sweep/lookup bookkeeping) and misstate
    /// capacity pressure.
    pub fn insert(&self, key: CacheKey, q: Arc<PreparedQuery>) {
        if self.per_shard_cap == 0 {
            return;
        }
        let current = q.epoch();
        let mut guard = self.shard(&key).lock();
        let shard = &mut *guard;
        shard.tick += 1;
        let stamp = shard.tick;
        if !shard.map.contains_key(&key) && shard.map.len() >= self.per_shard_cap {
            // `false < true`: stale entries sort before live ones, then
            // least-recent stamp among equals.
            let victim = shard
                .map
                .iter()
                .min_by_key(|(_, e)| (e.q.epoch() == current, e.stamp))
                .map(|(k, e)| (k.clone(), e.q.epoch() != current));
            if let Some((victim, was_stale)) = victim {
                shard.map.remove(&victim);
                if was_stale {
                    self.invalidations.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        shard.map.insert(key, Entry { q, stamp });
    }

    /// Eagerly drop every entry not optimized against the current epoch.
    /// Called after DDL and ANALYZE so stale plans don't linger until
    /// their next lookup; lookups would catch them anyway.
    pub fn sweep(&self, epoch: (u64, u64)) {
        for shard in &self.shards {
            let mut g = shard.lock();
            let before = g.map.len();
            g.map.retain(|_, e| e.q.epoch() == epoch);
            let dropped = (before - g.map.len()) as u64;
            if dropped > 0 {
                self.invalidations.fetch_add(dropped, Ordering::Relaxed);
            }
        }
    }

    /// Cached entries right now, across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop everything (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().map.clear();
        }
    }

    /// Point-in-time counter snapshot, tagged with whether the
    /// statement that asked reused a cached plan.
    pub fn info(&self, hit: bool) -> CacheInfo {
        CacheInfo {
            hit,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mppart::MppDb;

    fn key(sql: &str) -> CacheKey {
        CacheKey {
            sql: sql.into(),
            planner: Planner::Orca,
        }
    }

    fn prepared(db: &MppDb, sql: &str) -> Arc<PreparedQuery> {
        Arc::new(db.prepare(sql).unwrap())
    }

    #[test]
    fn hit_miss_and_version_invalidation() {
        let db = MppDb::new(2);
        db.sql("CREATE TABLE t (a int)").unwrap();
        let cache = PlanCache::new(16);
        let v = db.planning_epoch();
        assert!(cache.lookup(&key("q"), v).is_none());
        cache.insert(key("q"), prepared(&db, "SELECT a FROM t"));
        assert!(cache.lookup(&key("q"), v).is_some());
        // A catalog bump makes the entry stale: removed on next lookup.
        assert!(cache.lookup(&key("q"), (v.0 + 1, v.1)).is_none());
        assert_eq!(cache.len(), 0);
        let info = cache.info(false);
        assert_eq!((info.hits, info.misses, info.invalidations), (1, 2, 1));
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let db = MppDb::new(2);
        db.sql("CREATE TABLE t (a int)").unwrap();
        let v = db.planning_epoch();
        // Single-slot shards: every shard holds one entry, so two keys
        // landing in the same shard must evict the older one.
        let cache = PlanCache::new(SHARDS);
        let keys: Vec<CacheKey> = (0..64).map(|i| key(&format!("q{i}"))).collect();
        for k in &keys {
            cache.insert(k.clone(), prepared(&db, "SELECT a FROM t"));
        }
        assert!(cache.len() <= SHARDS);
        assert!(cache.info(false).evictions >= (64 - SHARDS) as u64);
        // The most recently inserted key of some shard must still be hot.
        let survivors = keys.iter().filter(|k| cache.lookup(k, v).is_some()).count();
        assert_eq!(survivors, cache.len());
    }

    /// Two distinct keys guaranteed to land in `cache`'s same shard,
    /// plus `extra` more (probing the private shard mapping directly).
    fn same_shard_keys(cache: &PlanCache, n: usize) -> Vec<CacheKey> {
        let first = key("s0");
        let mut keys = vec![first.clone()];
        let mut i = 1;
        while keys.len() < n {
            let k = key(&format!("s{i}"));
            if std::ptr::eq(cache.shard(&k), cache.shard(&first)) {
                keys.push(k);
            }
            i += 1;
        }
        keys
    }

    #[test]
    fn stale_victim_at_insert_counts_once_as_invalidation() {
        let db = MppDb::new(2);
        db.sql("CREATE TABLE t (a int)").unwrap();
        let cache = PlanCache::new(SHARDS); // single-slot shards
        let keys = same_shard_keys(&cache, 2);
        cache.insert(keys[0].clone(), prepared(&db, "SELECT a FROM t"));
        db.sql("CREATE TABLE u (b int)").unwrap(); // keys[0]'s plan is now stale
        cache.insert(keys[1].clone(), prepared(&db, "SELECT b FROM u"));
        let info = cache.info(false);
        assert_eq!(info.evictions, 0, "stale victim misreported as an eviction");
        assert_eq!(info.invalidations, 1);
        // The displaced entry is gone; the DDL sweep must not report the
        // same entry a second time.
        cache.sweep(db.planning_epoch());
        let info = cache.info(false);
        assert_eq!((info.evictions, info.invalidations), (0, 1));
        assert!(cache.lookup(&keys[1], db.planning_epoch()).is_some());
    }

    #[test]
    fn insert_prefers_stale_victims_over_the_lru_entry() {
        let db = MppDb::new(2);
        db.sql("CREATE TABLE t (a int)").unwrap();
        let cache = PlanCache::new(2 * SHARDS); // two-slot shards
        let keys = same_shard_keys(&cache, 3);
        let v0 = db.planning_epoch();
        cache.insert(keys[0].clone(), prepared(&db, "SELECT a FROM t"));
        db.sql("CREATE TABLE u (b int)").unwrap();
        cache.insert(keys[1].clone(), prepared(&db, "SELECT b FROM u"));
        // Touch the stale entry so it is *not* the LRU victim.
        assert!(cache.lookup(&keys[0], v0).is_some());
        cache.insert(keys[2].clone(), prepared(&db, "SELECT b FROM u"));
        // The stale-but-recently-touched entry was displaced, not the
        // colder live one, and it counted as an invalidation.
        let v1 = db.planning_epoch();
        assert!(cache.lookup(&keys[1], v1).is_some());
        assert!(cache.lookup(&keys[0], v1).is_none());
        let info = cache.info(false);
        assert_eq!((info.evictions, info.invalidations), (0, 1));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let db = MppDb::new(2);
        db.sql("CREATE TABLE t (a int)").unwrap();
        let cache = PlanCache::new(0);
        cache.insert(key("q"), prepared(&db, "SELECT a FROM t"));
        assert!(cache.lookup(&key("q"), db.planning_epoch()).is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn sweep_drops_only_stale_entries() {
        let db = MppDb::new(2);
        db.sql("CREATE TABLE t (a int)").unwrap();
        let cache = PlanCache::new(16);
        cache.insert(key("old"), prepared(&db, "SELECT a FROM t"));
        db.sql("CREATE TABLE u (b int)").unwrap(); // bumps the version
        cache.insert(key("new"), prepared(&db, "SELECT b FROM u"));
        cache.sweep(db.planning_epoch());
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(&key("new"), db.planning_epoch()).is_some());
        assert_eq!(cache.info(false).invalidations, 1);
    }

    #[test]
    fn analyze_bumps_only_the_stats_half_of_the_epoch() {
        let db = MppDb::new(2);
        db.sql("CREATE TABLE t (a int)").unwrap();
        db.sql("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        let cache = PlanCache::new(16);
        cache.insert(key("q"), prepared(&db, "SELECT a FROM t"));
        let before = db.planning_epoch();
        assert!(cache.lookup(&key("q"), before).is_some());
        db.sql("ANALYZE t").unwrap();
        let after = db.planning_epoch();
        assert_eq!(before.0, after.0, "ANALYZE must not look like DDL");
        assert!(after.1 > before.1, "ANALYZE must bump the stats version");
        // The cached plan was costed against pre-ANALYZE statistics.
        assert!(cache.lookup(&key("q"), after).is_none());
        assert_eq!(cache.len(), 0);
    }
}
