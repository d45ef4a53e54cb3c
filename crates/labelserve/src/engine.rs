//! The query engine: a [`LabelStore`] behind per-shard hot-pair caches and
//! batched execution.
//!
//! The engine is shared-state safe by construction — the store is
//! immutable, the caches sit behind per-shard mutexes, and the hit/miss
//! counters are atomics — so one engine serves arbitrarily many threads
//! concurrently with bit-identical answers (the cache only ever stores
//! exact decoded distances, so a hit and a recompute cannot disagree).
//! Lock poisoning is unwound internally: a cache entry is either a
//! complete `(pair, distance)` record or absent, so recovering a poisoned
//! mutex is always safe and queries keep serving after a panicking thread.

use crate::error::ServeError;
use crate::lru::Lru;
use crate::store::{LabelStore, StoreLayout};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use twgraph::Dist;

/// Store compaction and serving knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Nodes per shard (node-id range sharding; also the cache-ownership
    /// granule — pair `(s, t)` is cached in `s`'s shard).
    pub shard_size: usize,
    /// Hot-pair LRU entries per shard; 0 disables caching outright.
    pub cache_capacity: usize,
    /// Physical shard format compacted by builders that honor this config
    /// ([`crate::versioned::VersionedEngine::from_labeling`] and the
    /// session layer); [`StoreLayout::Flat`] is the historical default.
    pub layout: StoreLayout,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shard_size: 4096,
            cache_capacity: 4096,
            layout: StoreLayout::Flat,
        }
    }
}

impl ServeConfig {
    /// A cache-less variant of `self` (identical sharding and layout).
    pub fn without_cache(self) -> Self {
        ServeConfig {
            cache_capacity: 0,
            ..self
        }
    }

    /// A variant of `self` compacting into `layout`.
    pub fn with_layout(self, layout: StoreLayout) -> Self {
        ServeConfig { layout, ..self }
    }
}

/// Cumulative cache counters (exact under concurrency; relaxed ordering —
/// counters never synchronize data).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from a shard cache.
    pub hits: u64,
    /// Queries that went to the arena decoder.
    pub misses: u64,
    /// Entries currently resident across all shard caches.
    pub entries: usize,
}

impl CacheStats {
    /// Hits over all queries, in `[0, 1]` (0 when nothing was asked).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One shard's hot-pair cache. An entry holds the decoded distance and
/// the epoch it was decoded at, which lets the epochs of a
/// [`VersionedEngine`](crate::VersionedEngine) share one cache.
pub(crate) type PairCache = Mutex<Lru<(u32, u32), (Dist, u64)>>;

/// Empty caches for a store of `shards` shards.
pub(crate) fn pair_caches(shards: usize, capacity: usize) -> Arc<[PairCache]> {
    (0..shards)
        .map(|_| Mutex::new(Lru::new(capacity)))
        .collect()
}

/// A shared, thread-safe distance-query server over a compacted store.
pub struct QueryEngine {
    store: LabelStore,
    cfg: ServeConfig,
    /// Per-shard caches, shared by every epoch of a versioned engine.
    pub(crate) caches: Arc<[PairCache]>,
    /// The epoch this engine answers for (0 for a standalone engine).
    epoch: u64,
    /// Per vertex, the last epoch whose publish changed its row: shared by
    /// the epochs of a versioned engine, `None` for a standalone one.
    pub(crate) changed: Option<Arc<[AtomicU64]>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Recover a possibly-poisoned cache lock: entries are atomic records, so
/// the state is valid whether or not the panicking holder finished.
pub(crate) fn relock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl QueryEngine {
    /// Engine over `store` with one LRU per shard.
    pub fn new(store: LabelStore, cfg: ServeConfig) -> Self {
        let caches = pair_caches(store.shard_count(), cfg.cache_capacity);
        QueryEngine::at_epoch(store, cfg, caches, 0, None)
    }

    /// Engine answering for `epoch` over caches and a change record
    /// shared with the other epochs of a versioned engine.
    pub(crate) fn at_epoch(
        store: LabelStore,
        cfg: ServeConfig,
        caches: Arc<[PairCache]>,
        epoch: u64,
        changed: Option<Arc<[AtomicU64]>>,
    ) -> Self {
        QueryEngine {
            store,
            cfg,
            caches,
            epoch,
            changed,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Whether a distance decoded at epoch `at` is exact at this engine's
    /// epoch. The decoder reads only the rows of `s` and `t` (and whether
    /// they share a component, which a split or merge changes only by
    /// dirtying every vertex of the components involved), so the value
    /// holds while neither row changed between the two epochs. Called with
    /// the shard's cache lock held: an entry of a newer epoch was inserted
    /// under that lock after its publish recorded `changed`, so the record
    /// is visible here.
    fn exact_at(&self, s: u32, t: u32, at: u64) -> bool {
        if at == self.epoch {
            return true;
        }
        let Some(changed) = &self.changed else {
            return false;
        };
        let since = at.min(self.epoch);
        let unchanged = |v: u32| changed[v as usize].load(Ordering::Relaxed) <= since;
        unchanged(s) && unchanged(t)
    }

    /// The underlying store.
    pub fn store(&self) -> &LabelStore {
        &self.store
    }

    /// Dissolve the engine and hand the store back (caches and counters
    /// are dropped) — e.g. to rewrap it under a different [`ServeConfig`]
    /// without recompacting.
    pub fn into_store(self) -> LabelStore {
        self.store
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Exact `d(s → t)`; cross-component pairs answer [`twgraph::INF`],
    /// ids outside `0..n` are a typed error.
    ///
    /// Counter invariant: `hits + misses` equals the number of queries
    /// that returned `Ok`, and a miss is counted only once its entry is
    /// resident — rejected ids and panicking threads leave the counters
    /// untouched, so recovered poisoned locks cannot drift the stats.
    pub fn distance(&self, s: u32, t: u32) -> Result<Dist, ServeError> {
        if self.cfg.cache_capacity == 0 {
            return self.store.distance(s, t);
        }
        // Validate *both* endpoints before touching the cache so unknown
        // ids cannot pin shard locks or skew the counters (`t` used to be
        // checked only after the cache probe, on the miss path).
        let n = self.store.n();
        if s as usize >= n {
            return Err(ServeError::UnknownNode { node: s, n });
        }
        if t as usize >= n {
            return Err(ServeError::UnknownNode { node: t, n });
        }
        let cache = &self.caches[self.store.shard_of(s)];
        {
            let mut c = relock(cache);
            if let Some((d, at)) = c.get(&(s, t)) {
                if self.exact_at(s, t, at) {
                    drop(c);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(d);
                }
            }
        }
        let d = self.store.distance(s, t)?;
        // Insert first, count second: a thread that dies between decode
        // and insert then contributes to neither cache nor counters. The
        // insert replaces an entry that is stale for this epoch.
        relock(cache).insert((s, t), (d, self.epoch));
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok(d)
    }

    /// Both directions: `(d(s → t), d(t → s))`.
    pub fn distance_pair(&self, s: u32, t: u32) -> Result<(Dist, Dist), ServeError> {
        Ok((self.distance(s, t)?, self.distance(t, s)?))
    }

    /// Answer a whole batch, one distance per query in input order. The
    /// first structural error aborts the batch.
    pub fn batch(&self, queries: &[(u32, u32)]) -> Result<Vec<Dist>, ServeError> {
        queries.iter().map(|&(s, t)| self.distance(s, t)).collect()
    }

    /// Cumulative hit/miss counters plus current cache residency.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.caches.iter().map(|c| relock(c).len()).sum(),
        }
    }

    /// Zero the hit/miss counters and drop every cached pair (of every
    /// epoch sharing the caches).
    pub fn reset(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        for c in self.caches.iter() {
            relock(c).clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreBuilder;
    use distlabel::Label;
    use twgraph::INF;

    /// Path 0–1–2–3 with unit weights; every vertex holds all four hubs.
    /// The store compacts into `cfg.layout`, so every test below runs
    /// against whichever physical form it asks for.
    fn path_engine(cfg: ServeConfig) -> QueryEngine {
        let mut labels = Vec::new();
        for v in 0..4i64 {
            let mut l = Label::new(v as u32);
            for h in 0..4i64 {
                l.merge(h as u32, (v - h).unsigned_abs(), (h - v).unsigned_abs());
            }
            labels.push(l);
        }
        let mut b = StoreBuilder::new(4);
        b.add_component(&labels, &[0, 1, 2, 3]).unwrap();
        QueryEngine::new(b.build_layout(cfg.shard_size, cfg.layout).unwrap(), cfg)
    }

    #[test]
    fn caching_changes_counters_not_answers() {
        for layout in [StoreLayout::Flat, StoreLayout::Packed] {
            let cfg = ServeConfig {
                shard_size: 2,
                cache_capacity: 8,
                layout,
            };
            let cached = path_engine(cfg);
            let raw = path_engine(cfg);
            for (s, t) in [(0, 3), (3, 0), (0, 3), (2, 2), (0, 3)] {
                assert_eq!(
                    cached.distance(s, t).unwrap(),
                    raw.store().distance(s, t).unwrap()
                );
            }
            let st = cached.stats();
            assert_eq!(st.hits, 2, "repeated (0,3) must hit");
            assert_eq!(st.misses, 3);
            assert!(st.entries >= 3);
            assert!(st.hit_rate() > 0.39 && st.hit_rate() < 0.41);
            cached.reset();
            assert_eq!(cached.stats(), CacheStats::default());
        }
    }

    #[test]
    fn batch_matches_singles_in_order() {
        let eng = path_engine(ServeConfig::default());
        let queries = [(0u32, 1u32), (3, 0), (1, 1), (0, 3), (3, 0)];
        let batch = eng.batch(&queries).unwrap();
        for (q, got) in queries.iter().zip(&batch) {
            assert_eq!(*got, eng.distance(q.0, q.1).unwrap());
        }
        assert_eq!(batch, vec![1, 3, 0, 3, 3]);
    }

    #[test]
    fn unknown_node_aborts_batch() {
        let eng = path_engine(ServeConfig::default());
        let err = eng.batch(&[(0, 1), (9, 0)]).unwrap_err();
        assert_eq!(err, ServeError::UnknownNode { node: 9, n: 4 });
        // Target-side validation flows through the store.
        assert_eq!(
            eng.distance(0, 9),
            Err(ServeError::UnknownNode { node: 9, n: 4 })
        );
    }

    /// Regression (issue 7): out-of-range ids must be rejected on the
    /// `s` side, the `t` side, and through the batch path — without
    /// touching the cache or its counters, and without panicking on
    /// extreme ids like `u32::MAX`.
    #[test]
    fn out_of_range_ids_reject_on_both_sides() {
        let eng = path_engine(ServeConfig {
            shard_size: 2,
            cache_capacity: 8,
            ..ServeConfig::default()
        });
        for (s, t, bad) in [
            (9, 0, 9),
            (0, 9, 9),
            (4, 4, 4),
            (u32::MAX, 0, u32::MAX),
            (0, u32::MAX, u32::MAX),
        ] {
            assert_eq!(
                eng.distance(s, t),
                Err(ServeError::UnknownNode { node: bad, n: 4 })
            );
        }
        assert_eq!(
            eng.stats(),
            CacheStats::default(),
            "rejected ids must leave counters and cache untouched"
        );
        for batch in [vec![(0, 1), (9, 0)], vec![(0, 1), (0, 9)]] {
            assert_eq!(
                eng.batch(&batch).unwrap_err(),
                ServeError::UnknownNode { node: 9, n: 4 }
            );
        }
        assert_eq!(eng.distance(0, 3).unwrap(), 3, "engine still serves");
    }

    /// Satellite (issue 7): after a thread panics while holding a shard's
    /// cache lock, the recovered lock must keep hit/miss accounting exact
    /// — `hits + misses == Ok queries`, and residency matches the misses
    /// that actually inserted.
    #[test]
    fn poisoned_cache_lock_keeps_accounting_consistent() {
        use std::sync::Arc;
        let eng = Arc::new(path_engine(ServeConfig {
            shard_size: 2,
            cache_capacity: 8,
            ..ServeConfig::default()
        }));
        eng.distance(0, 3).unwrap(); // miss + insert
        let shard = eng.store().shard_of(0);
        let poisoner = Arc::clone(&eng);
        let joined = std::thread::spawn(move || {
            let _guard = poisoner.caches[shard].lock().unwrap();
            panic!("injected panic while holding the cache lock");
        })
        .join();
        assert!(joined.is_err(), "injection thread must have panicked");
        assert!(eng.caches[shard].is_poisoned());
        // The recovered lock serves the resident entry as a hit, and new
        // pairs as exactly one miss each.
        assert_eq!(eng.distance(0, 3).unwrap(), 3);
        assert_eq!(eng.distance(0, 2).unwrap(), 2);
        assert_eq!(eng.distance(0, 2).unwrap(), 2);
        let st = eng.stats();
        assert_eq!((st.hits, st.misses), (2, 2));
        assert_eq!(st.hits + st.misses, 4, "every Ok query counted once");
        assert_eq!(st.entries, 2, "misses match what the cache stored");
    }

    #[test]
    fn cacheless_engine_never_counts() {
        let eng = path_engine(ServeConfig::default().without_cache());
        for _ in 0..3 {
            assert_eq!(eng.distance(0, 2).unwrap(), 2);
        }
        assert_eq!(eng.stats(), CacheStats::default());
    }

    #[test]
    fn self_distance_zero_and_inf_cacheable() {
        let eng = path_engine(ServeConfig {
            shard_size: 1,
            cache_capacity: 4,
            ..ServeConfig::default()
        });
        assert_eq!(eng.distance(2, 2).unwrap(), 0);
        assert_eq!(eng.distance(2, 2).unwrap(), 0);
        assert!(eng.distance(0, 0).unwrap() < INF);
        assert_eq!(eng.stats().hits, 1);
    }
}
