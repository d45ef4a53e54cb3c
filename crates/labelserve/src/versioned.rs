//! Epoch-versioned serving: queries keep flowing while the next label
//! store compacts.
//!
//! A [`VersionedEngine`] holds the current [`Epoch`] — a
//! [`QueryEngine`] stamped with a monotone epoch number — behind an
//! `RwLock<Arc<_>>`. Readers take a [`snapshot`](VersionedEngine::snapshot)
//! (an `Arc` clone under a momentary read lock) and answer queries off it
//! for as long as they like; a writer prepares the next store *outside*
//! any lock and [`publish`](VersionedEngine::publish)es it with a single
//! pointer swap. A reader therefore always observes a complete store:
//! either all of epoch N or all of epoch N+1, never a mix — and there is
//! no instant at which queries cannot be served.
//!
//! Epoch-to-epoch work is confined to what actually changed:
//! [`publish_from`](VersionedEngine::publish_from) patches the rows of
//! dirty vertices into their shards ([`LabelStore::rebuilt`] shares every
//! other row via `Arc`) and records, per dirty vertex, the epoch that
//! changed it. The hot-pair caches are shared by all epochs, each entry
//! stamped with the epoch it was decoded at: an entry answers for another
//! epoch when neither endpoint's row changed in between, since its answer
//! reads only those two rows. So a cached pair with two clean endpoints
//! carries into the next epoch, exactly, and one with a dirty endpoint
//! does not — with no copy of the cache and no scan of it at publish.

use crate::engine::{pair_caches, QueryEngine, ServeConfig};
use crate::error::ServeError;
use crate::store::LabelStore;
use distlabel::DynamicLabeling;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;
use twgraph::Dist;

/// One published version of the store: an engine plus its epoch stamp.
pub struct Epoch {
    epoch: u64,
    engine: QueryEngine,
}

impl Epoch {
    /// The monotone version number (0 for the initial build).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The epoch's query engine.
    pub fn engine(&self) -> &QueryEngine {
        &self.engine
    }

    /// Exact `d(s → t)` at this epoch.
    pub fn distance(&self, s: u32, t: u32) -> Result<Dist, ServeError> {
        self.engine.distance(s, t)
    }
}

/// What one publish did.
#[derive(Clone, Copy, Debug, Default)]
pub struct PublishStats {
    /// The epoch that became current.
    pub epoch: u64,
    /// Wall time of store rebuild + swap, in microseconds. (Queries were
    /// served off the previous epoch throughout.)
    pub publish_us: u64,
    /// Shards holding a dirty vertex (patched or recompacted for this
    /// epoch).
    pub dirty_shards: usize,
    /// Total shards in the store.
    pub total_shards: usize,
}

/// An epoch-versioned [`QueryEngine`]: swap-published snapshots with
/// uninterrupted reads.
pub struct VersionedEngine {
    current: RwLock<Arc<Epoch>>,
    cfg: ServeConfig,
}

/// Compact a [`DynamicLabeling`]'s parts into a store (global hub ids come
/// from the labeling itself), honoring the config's sharding and layout.
fn store_of(labeling: &DynamicLabeling, cfg: &ServeConfig) -> Result<LabelStore, ServeError> {
    let mut b = crate::store::StoreBuilder::new(labeling.n());
    for part in labeling.parts() {
        if part.n() == 1 {
            b.add_singleton(part.old_of()[0])?;
        } else {
            b.add_component(part.labels(), part.old_of())?;
        }
    }
    b.build_layout(cfg.shard_size, cfg.layout)
}

/// An engine at `epoch` with empty caches and no recorded changes.
fn fresh_engine(store: LabelStore, cfg: ServeConfig, epoch: u64) -> QueryEngine {
    let caches = pair_caches(store.shard_count(), cfg.cache_capacity);
    let changed = (0..store.n()).map(|_| AtomicU64::new(0)).collect();
    QueryEngine::at_epoch(store, cfg, caches, epoch, Some(changed))
}

impl VersionedEngine {
    /// Version an already-compacted store as epoch 0.
    pub fn new(store: LabelStore, cfg: ServeConfig) -> Self {
        VersionedEngine {
            current: RwLock::new(Arc::new(Epoch {
                epoch: 0,
                engine: fresh_engine(store, cfg, 0),
            })),
            cfg,
        }
    }

    /// Compact a dynamic labeling and serve it as epoch 0 (in the
    /// config's [`crate::store::StoreLayout`]).
    pub fn from_labeling(labeling: &DynamicLabeling, cfg: ServeConfig) -> Result<Self, ServeError> {
        Ok(VersionedEngine::new(store_of(labeling, &cfg)?, cfg))
    }

    /// The serving configuration (shared by every epoch).
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Pin the current epoch. The returned `Arc` keeps that version alive
    /// and serving regardless of later publishes.
    pub fn snapshot(&self) -> Arc<Epoch> {
        Arc::clone(&relock_read(&self.current))
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        relock_read(&self.current).epoch
    }

    /// Convenience single query against the current epoch.
    pub fn distance(&self, s: u32, t: u32) -> Result<Dist, ServeError> {
        self.snapshot().engine.distance(s, t)
    }

    /// Convenience batch against the current epoch (one snapshot for the
    /// whole batch, so the answers are mutually consistent).
    pub fn batch(&self, queries: &[(u32, u32)]) -> Result<Vec<Dist>, ServeError> {
        self.snapshot().engine.batch(queries)
    }

    /// Publish a fully rebuilt store as the next epoch, with fresh caches.
    pub fn publish(&self, store: LabelStore) -> PublishStats {
        let t = Instant::now();
        let total_shards = store.shard_count();
        let mut cur = relock_write(&self.current);
        let epoch = cur.epoch + 1;
        *cur = Arc::new(Epoch {
            epoch,
            engine: fresh_engine(store, self.cfg, epoch),
        });
        PublishStats {
            epoch,
            publish_us: t.elapsed().as_micros() as u64,
            dirty_shards: total_shards,
            total_shards,
        }
    }

    /// Publish the next epoch from an updated labeling. `dirty` is the
    /// strictly ascending list of global ids whose labels may have changed
    /// (a [`distlabel::UpdateReport::dirty`] list): their rows are patched
    /// into the next store and every other row is shared with the current
    /// epoch ([`LabelStore::rebuilt`]). The new epoch shares the hot-pair
    /// caches, and records itself as the epoch that changed each dirty
    /// vertex: cached pairs with two clean endpoints keep answering,
    /// exactly, and pairs with a dirty endpoint miss once and are decoded
    /// afresh. The rebuild runs outside the epoch lock; in-flight
    /// snapshots keep answering at their epoch throughout.
    pub fn publish_from(
        &self,
        labeling: &DynamicLabeling,
        dirty: &[u32],
    ) -> Result<PublishStats, ServeError> {
        let t = Instant::now();
        let prev = self.snapshot();
        let store = prev
            .engine
            .store()
            .rebuilt(dirty, labeling.comp_of().to_vec(), |v| {
                labeling.label_entries_global(v)
            })?;
        let mut dirty_shards: Vec<usize> = dirty.iter().map(|&v| store.shard_of(v)).collect();
        dirty_shards.dedup();
        let total_shards = store.shard_count();
        let changed = prev.engine.changed.clone();
        let changed = changed.expect("every epoch of a versioned engine records changes");
        let mut cur = relock_write(&self.current);
        let epoch = cur.epoch + 1;
        // Relaxed: releasing the epoch lock publishes these stores to every
        // reader of the new epoch, and a reader of an older epoch loads
        // them under a shard cache lock, after any entry that depends on
        // them was inserted under it.
        for &v in dirty {
            changed[v as usize].store(epoch, Ordering::Relaxed);
        }
        let caches = Arc::clone(&prev.engine.caches);
        let engine = QueryEngine::at_epoch(store, self.cfg, caches, epoch, Some(changed));
        *cur = Arc::new(Epoch { epoch, engine });
        Ok(PublishStats {
            epoch,
            publish_us: t.elapsed().as_micros() as u64,
            dirty_shards: dirty_shards.len(),
            total_shards,
        })
    }
}

/// Read-lock recovery twin of [`relock`](crate::engine::relock): a panicking publisher leaves the
/// previous (complete) epoch in place, so the state is always valid.
fn relock_read<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Write-lock recovery twin of [`relock`](crate::engine::relock).
fn relock_write<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use twgraph::gen::{banded_path, with_random_weights};
    use twgraph::{EdgeBatch, INF};

    use crate::store::StoreLayout;

    fn versioned_layout(n: usize, layout: StoreLayout) -> (DynamicLabeling, VersionedEngine) {
        let g = banded_path(n, 2);
        let inst = with_random_weights(&g, 10, 3);
        let labeling = DynamicLabeling::build(&inst, 3, 1).unwrap();
        let cfg = ServeConfig {
            shard_size: (n / 8).max(1),
            cache_capacity: 64,
            layout,
        };
        let eng = VersionedEngine::from_labeling(&labeling, cfg).unwrap();
        (labeling, eng)
    }

    fn versioned(n: usize) -> (DynamicLabeling, VersionedEngine) {
        versioned_layout(n, StoreLayout::Flat)
    }

    #[test]
    fn snapshots_pin_their_epoch() {
        let (mut labeling, eng) = versioned(120);
        assert_eq!(eng.epoch(), 0);
        let before = eng.snapshot();
        let d_before = before.distance(0, 119).unwrap();

        // Delete an edge on the 0–119 route and publish.
        let rep = labeling.apply(&EdgeBatch::new().delete(0, 1)).unwrap();
        let stats = eng.publish_from(&labeling, &rep.dirty).unwrap();
        assert_eq!(stats.epoch, 1);
        assert_eq!(eng.epoch(), 1);

        // The pinned snapshot still answers the old value; the current
        // epoch answers the new one.
        assert_eq!(before.distance(0, 119).unwrap(), d_before);
        assert_eq!(before.epoch(), 0);
        let now = eng.snapshot();
        assert_eq!(now.epoch(), 1);
        assert_eq!(
            now.distance(0, 119).unwrap(),
            labeling.distance(0, 119),
            "current epoch must match the updated labeling"
        );
    }

    #[test]
    fn partial_publish_shares_clean_shards() {
        let (mut labeling, eng) = versioned(240);
        let before = eng.snapshot();
        // A scoped edit near one end dirties a bounded vertex range.
        let rep = labeling.apply(&EdgeBatch::new().insert(2, 4, 1)).unwrap();
        let stats = eng.publish_from(&labeling, &rep.dirty).unwrap();
        assert!(
            stats.dirty_shards < stats.total_shards,
            "scoped update must leave clean shards: {stats:?}"
        );
        let shared = eng
            .snapshot()
            .engine()
            .store()
            .shards_shared_with(before.engine().store());
        assert_eq!(shared, stats.total_shards - stats.dirty_shards);
    }

    /// The carry rule is per vertex: a warm pair whose endpoints are both
    /// clean stays warm (and answers exactly) even when a dirty vertex
    /// shares its shard; a pair with a dirty endpoint starts cold.
    #[test]
    fn cache_carry_keeps_pairs_of_clean_vertices() {
        let (mut labeling, eng) = versioned(240);
        // Apply first: epoch 0 keeps serving until the publish, so the
        // cache can be warmed knowing which vertices the batch dirtied.
        let rep = labeling.apply(&EdgeBatch::new().insert(2, 4, 1)).unwrap();
        let dirty = &rep.dirty;
        let size = eng.config().shard_size as u32;
        // A dirty vertex and two clean ones in its shard.
        let (d, a, b) = dirty
            .iter()
            .find_map(|&d| {
                let lo = d / size * size;
                let mut clean = (lo..lo + size).filter(|v| dirty.binary_search(v).is_err());
                Some((d, clean.next()?, clean.next()?))
            })
            .expect("a dirty shard with clean rows");
        eng.distance(a, b).unwrap();
        eng.distance(d, b).unwrap();
        eng.distance(a, d).unwrap();
        eng.publish_from(&labeling, dirty).unwrap();
        let snap = eng.snapshot();
        assert_eq!(snap.distance(a, b).unwrap(), labeling.distance(a, b));
        assert_eq!(snap.engine().stats().hits, 1, "the clean pair is warm");
        assert_eq!(snap.distance(d, b).unwrap(), labeling.distance(d, b));
        assert_eq!(snap.distance(a, d).unwrap(), labeling.distance(a, d));
        assert_eq!(snap.engine().stats().misses, 2, "dirty pairs start cold");
    }

    /// Epochs share the caches, so a pair whose row changed is cached by
    /// one epoch and read by another: each must still answer its own
    /// value, however the entry ping-pongs between a pinned old epoch and
    /// the current one.
    #[test]
    fn shared_cache_answers_each_epoch_exactly() {
        let (mut labeling, eng) = versioned(120);
        let old = eng.snapshot();
        let before = labeling.distance(0, 119);
        assert_eq!(old.distance(0, 119).unwrap(), before);
        let rep = labeling.apply(&EdgeBatch::new().insert(0, 119, 1)).unwrap();
        assert!(rep.dirty.binary_search(&0).is_ok());
        eng.publish_from(&labeling, &rep.dirty).unwrap();
        let new = eng.snapshot();
        let after = labeling.distance(0, 119);
        assert_ne!(before, after, "the batch must change the pair");
        for _ in 0..3 {
            assert_eq!(new.distance(0, 119).unwrap(), after);
            assert_eq!(old.distance(0, 119).unwrap(), before);
        }
        // Each read finds the other epoch's entry, rejects it and decodes.
        assert_eq!(new.engine().stats().hits, 0);
        assert_eq!(old.engine().stats().hits, 0);
        assert_eq!(old.engine().stats().misses, 4);
    }

    /// Regression: an unsorted dirty list used to be binary-searched as if
    /// sorted, leaving dirty shards treated as clean and stale rows
    /// serving. It is a typed error now, and nothing is published.
    #[test]
    fn unsorted_dirty_list_is_rejected() {
        let (mut labeling, eng) = versioned(120);
        let rep = labeling.apply(&EdgeBatch::new().delete(0, 1)).unwrap();
        let mut reversed = rep.dirty.clone();
        reversed.reverse();
        assert!(reversed.len() >= 2);
        assert_eq!(
            eng.publish_from(&labeling, &reversed).map(|_| ()),
            Err(ServeError::UnsortedDirtyList { position: 1 })
        );
        assert_eq!(eng.epoch(), 0, "a rejected list publishes nothing");
        eng.publish_from(&labeling, &rep.dirty).unwrap();
        assert_eq!(eng.distance(0, 119).unwrap(), labeling.distance(0, 119));
    }

    /// Regression (issue 7): ids ≥ n must come back as typed errors —
    /// never a panic or index — through the versioned single, batch, and
    /// pinned-snapshot paths, on the `s` and the `t` side alike.
    #[test]
    fn out_of_range_ids_reject_through_versioned_serving() {
        let (_labeling, eng) = versioned(60);
        let reject = |s, t, bad| {
            assert_eq!(
                eng.distance(s, t),
                Err(ServeError::UnknownNode { node: bad, n: 60 })
            );
        };
        reject(60, 0, 60);
        reject(0, 60, 60);
        reject(u32::MAX, 0, u32::MAX);
        reject(0, u32::MAX, u32::MAX);
        assert_eq!(
            eng.batch(&[(0, 1), (1, 61)]).unwrap_err(),
            ServeError::UnknownNode { node: 61, n: 60 }
        );
        let snap = eng.snapshot();
        assert_eq!(
            snap.distance(0, 60),
            Err(ServeError::UnknownNode { node: 60, n: 60 })
        );
        assert!(eng.distance(0, 59).is_ok(), "valid pairs still serve");
    }

    #[test]
    fn cross_component_inf_tracks_publishes() {
        // Both layouts: the packed store must track splits and merges —
        // including the epoch's component *count*, which must follow the
        // distinct ids of the published map (issue 8: a merge leaving a
        // non-dense id space used to be overcounted as `max + 1`).
        for layout in [StoreLayout::Flat, StoreLayout::Packed] {
            let (mut labeling, eng) = versioned_layout(60, layout);
            assert!(eng.distance(0, 59).unwrap() < INF);
            let store_components =
                |eng: &VersionedEngine| eng.snapshot().engine().store().components();
            let before_split = store_components(&eng);
            // Bandwidth 2: cutting 29|30 means severing all three crossing
            // edges.
            let cut = EdgeBatch::new()
                .delete(28, 30)
                .delete(29, 30)
                .delete(29, 31);
            let rep = labeling.apply(&cut).unwrap();
            eng.publish_from(&labeling, &rep.dirty).unwrap();
            assert_eq!(eng.distance(0, 59).unwrap(), INF, "split must serve INF");
            assert_eq!(
                store_components(&eng),
                before_split + 1,
                "split adds exactly one component"
            );
            let rep = labeling.apply(&EdgeBatch::new().insert(29, 30, 2)).unwrap();
            eng.publish_from(&labeling, &rep.dirty).unwrap();
            assert!(eng.distance(0, 59).unwrap() < INF, "merge must reconnect");
            assert_eq!(
                store_components(&eng),
                before_split,
                "merge-then-query: count distinct ids, not max + 1"
            );
        }
    }
}
