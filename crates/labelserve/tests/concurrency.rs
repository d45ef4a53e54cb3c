//! Shared-engine hammering: one `QueryEngine` served from many OS threads
//! at once with overlapping batches must stay bit-identical to the
//! sequential ground truth and keep a healthy cache afterwards.
//!
//! `batch` answers its queries in order on the calling thread, so the
//! concurrency here comes from `std::thread`: each thread issues its own
//! overlapping batches against the same engine, which is exactly the
//! contended-cache regime the per-shard mutexes must survive.

use labelserve::{QueryEngine, ServeConfig, StoreBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};

const THREADS: usize = 8;
const ROUNDS: usize = 6;

/// Decompose + label + compact one connected partial 2-tree.
fn engine_for(seed: u64, cache_capacity: usize) -> QueryEngine {
    let n = 300;
    let g = twgraph::gen::partial_ktree(n, 2, 0.7, seed);
    let inst = twgraph::gen::with_random_weights(&g, 23, seed);
    let cfg = treedec::SepConfig::practical(n);
    let mut rng = SmallRng::seed_from_u64(seed);
    let out = treedec::decompose_centralized(&g, 3, &cfg, &mut rng).unwrap();
    let labels = distlabel::build_labels_centralized(&inst, &out.td, &out.info);
    let ids: Vec<u32> = (0..n as u32).collect();
    let mut b = StoreBuilder::new(n);
    b.add_component(&labels, &ids).unwrap();
    QueryEngine::new(
        b.build(32).unwrap(),
        ServeConfig {
            shard_size: 32,
            cache_capacity,
            ..ServeConfig::default()
        },
    )
}

#[test]
fn hammered_engine_stays_bit_identical() {
    for seed in [1u64, 2, 3] {
        // Tiny caches maximize eviction churn under contention.
        let engine = engine_for(seed, 64);
        let n = engine.store().n();
        let queries = labelserve::seeded_queries(
            n,
            &labelserve::WorkloadSpec {
                queries: 2_000,
                hot_pairs: 32,
                hot_fraction: 0.7,
            },
            seed,
        );
        // Sequential ground truth off the raw store (no cache involved).
        let expected: Vec<u64> = queries
            .iter()
            .map(|&(s, t)| engine.store().distance(s, t).unwrap())
            .collect();

        let divergences = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for tid in 0..THREADS {
                let engine = &engine;
                let queries = &queries;
                let expected = &expected;
                let divergences = &divergences;
                scope.spawn(move || {
                    // Each thread replays the whole stream ROUNDS times,
                    // rotated by its id so threads collide on the same
                    // pairs at different times (maximal cache overlap).
                    for round in 0..ROUNDS {
                        let off = (tid * 251 + round * 97) % queries.len();
                        let window = queries.len() / 2;
                        let slice: Vec<(u32, u32)> = (0..window)
                            .map(|i| queries[(off + i) % queries.len()])
                            .collect();
                        let got = engine.batch(&slice).unwrap();
                        for (i, &d) in got.iter().enumerate() {
                            if d != expected[(off + i) % queries.len()] {
                                divergences.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(
            divergences.load(Ordering::Relaxed),
            0,
            "seed {seed}: concurrent answers diverged from ground truth"
        );

        // The cache survived the stampede: counters account for every
        // query, residency respects capacity, and fresh queries still
        // answer correctly through the same caches.
        let stats = engine.stats();
        let fired = (THREADS * ROUNDS * (queries.len() / 2)) as u64;
        assert_eq!(
            stats.hits + stats.misses,
            fired,
            "seed {seed}: lost queries"
        );
        assert!(stats.hits > 0, "seed {seed}: overlapping batches never hit");
        let shards = engine.store().shard_count();
        assert!(
            stats.entries <= shards * engine.config().cache_capacity,
            "seed {seed}: cache residency exceeds capacity"
        );
        for (i, &(s, t)) in queries.iter().enumerate().take(64) {
            assert_eq!(
                engine.distance(s, t).unwrap(),
                expected[i],
                "seed {seed}: post-hammer query ({s}, {t}) wrong"
            );
        }
    }
}

#[test]
fn concurrent_readers_with_disjoint_and_shared_ranges() {
    let engine = engine_for(9, 16);
    let n = engine.store().n() as u32;
    // Half the threads sweep disjoint source ranges (cold, per-shard
    // locality); half replay one shared hot row (contended pairs).
    let hot_row: Vec<(u32, u32)> = (0..n).map(|v| (n / 2, v)).collect();
    let hot_expected: Vec<u64> = hot_row
        .iter()
        .map(|&(s, t)| engine.store().distance(s, t).unwrap())
        .collect();
    std::thread::scope(|scope| {
        for tid in 0..THREADS {
            let engine = &engine;
            let hot_row = &hot_row;
            let hot_expected = &hot_expected;
            scope.spawn(move || {
                if tid % 2 == 0 {
                    let lo = (tid as u32 / 2) * (n / 4);
                    let mut rng = SmallRng::seed_from_u64(tid as u64);
                    for _ in 0..400 {
                        let s = lo + rng.gen_range(0..n / 4);
                        let t = rng.gen_range(0..n);
                        let d = engine.distance(s, t).unwrap();
                        assert_eq!(d, engine.store().distance(s, t).unwrap());
                    }
                } else {
                    for _ in 0..ROUNDS {
                        assert_eq!(engine.batch(hot_row).unwrap(), *hot_expected);
                    }
                }
            });
        }
    });
    assert!(engine.stats().hits > 0);
}
