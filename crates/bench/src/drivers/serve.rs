//! The `serve` driver: build-once / query-many on a partial k-tree —
//! centralized decomposition + label construction, compaction into the
//! sharded `labelserve` store in the variant's physical layout, a seeded
//! skewed workload replayed three ways (single, one batch, batch with the
//! cache off), and an `LWLSTOR1` file round-trip with a sampled
//! differential. The replayed answers fold into one deterministic
//! checksum, so the gate pins the served distances bit-exactly.

use super::{gen_instance, RowBuilder};
use crate::lab::plan::Trial;
use crate::lab::results::TrialRow;
use crate::rate_per_sec;
use labelserve::{
    seeded_queries, LabelStore, QueryEngine, ServeConfig, StoreBuilder, StoreLayout, WorkloadSpec,
};
use lowtw::{distlabel, treedec, twgraph};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use scenarios::fold_checksum;
use std::time::Instant;

pub fn run(trial: &Trial) -> TrialRow {
    let inst = gen_instance(trial, 20_000, 1);
    let layout = match trial.params.str("layout", "flat") {
        "flat" => StoreLayout::Flat,
        "packed" => StoreLayout::Packed,
        other => panic!("unknown layout {other:?} (expected \"flat\" or \"packed\")"),
    };
    let mut row = RowBuilder::new(trial);
    let n = inst.n;

    let cfg = lowtw::SepConfig::practical(n);
    let mut rng = SmallRng::seed_from_u64(inst.seed);
    let t = Instant::now();
    let out = treedec::decompose_centralized(&inst.g, inst.k as u64 + 1, &cfg, &mut rng)
        .expect("decomposition failed");
    row.wall("decompose", t.elapsed());

    let t = Instant::now();
    let labels = distlabel::build_labels_centralized(&inst.inst, &out.td, &out.info);
    row.wall("label_build", t.elapsed());
    let label_words: u64 = labels.iter().map(|l| l.words() as u64).sum();

    let serve_cfg = ServeConfig::default().with_layout(layout);
    let ids: Vec<u32> = (0..n as u32).collect();
    let mut builder = StoreBuilder::new(n);
    builder
        .add_component(&labels, &ids)
        .expect("store compaction failed");
    drop(labels);
    let t = Instant::now();
    let store = builder
        .build_layout(serve_cfg.shard_size, layout)
        .expect("store build failed");
    row.wall("store_build", t.elapsed());
    drop(builder);

    row.det("n", n as u64);
    row.det("m", inst.g.m() as u64);
    row.det("width", out.td.width() as u64);
    row.det("depth", out.td.stats().depth as u64);
    row.det("label_words", label_words);
    row.det("store_entries", store.entries() as u64);
    row.det("store_shards", store.shard_count() as u64);
    row.det("store_bytes", store.bytes() as u64);
    row.info("bytes_per_node", store.bytes() as f64 / n as f64);

    // The workload: one seeded skewed stream.
    let spec = WorkloadSpec {
        queries: trial.params.usize("queries", 50_000),
        hot_pairs: trial.params.usize("hot_pairs", 4096),
        hot_fraction: trial.params.f64("hot_fraction", 0.75),
    };
    let queries = seeded_queries(n, &spec, inst.seed);
    row.det("queries", queries.len() as u64);

    // Spot-check against centralized Dijkstra before timing.
    let mut checked = 0u64;
    for &(s, _) in queries.iter().step_by((queries.len() / 4).max(1)) {
        let truth = twgraph::alg::dijkstra(&inst.inst, s);
        let probe = (s + 1) % n as u32;
        assert_eq!(
            store.distance(s, probe).unwrap(),
            truth.dist[probe as usize],
            "serve diverged from Dijkstra at source {s}"
        );
        checked += 1;
    }
    row.det("checked", checked);

    // Persistence round-trip while the store is still owned here.
    let path = std::env::temp_dir().join(format!(
        "lowtw_lab_serve_{}_{}.lbl",
        std::process::id(),
        trial.variant
    ));
    let t = Instant::now();
    store.write_to(&path).expect("store write failed");
    row.wall("file_write", t.elapsed());
    row.det(
        "file_bytes",
        std::fs::metadata(&path).expect("stat failed").len(),
    );
    let t = Instant::now();
    let opened = LabelStore::open_mmap(&path).expect("store open failed");
    row.wall("file_open", t.elapsed());
    assert_eq!(opened.layout(), store.layout());
    assert_eq!(opened.entries(), store.entries());
    let step = (queries.len() / 10_000).max(1);
    for q in queries.iter().step_by(step) {
        assert_eq!(
            opened.distance(q.0, q.1).unwrap(),
            store.distance(q.0, q.1).unwrap(),
            "reopened store diverged at ({}, {})",
            q.0,
            q.1
        );
    }
    drop(opened);
    std::fs::remove_file(&path).ok();

    // The replay: single, batched, batched with the cache off.
    let engine = QueryEngine::new(store, serve_cfg);
    let t = Instant::now();
    for &(s, tgt) in &queries {
        engine.distance(s, tgt).expect("single query failed");
    }
    let single = t.elapsed();
    row.wall("single", single);
    let stats = engine.stats();
    // Batches run in query order on this thread and the cache is keyed
    // purely on the query stream, so hit counts are exact.
    row.det("cache_hits", stats.hits);
    row.det("cache_misses", stats.misses);
    row.info("single_hit_rate", stats.hit_rate());
    row.info(
        "single_qps",
        rate_per_sec(queries.len() as u64, single) as f64,
    );

    engine.reset();
    let t = Instant::now();
    let answers = engine.batch(&queries).expect("batch failed");
    let batch = t.elapsed();
    row.wall("batched", batch);
    row.info(
        "batched_qps",
        rate_per_sec(queries.len() as u64, batch) as f64,
    );

    let nocache_engine = QueryEngine::new(engine.into_store(), serve_cfg.without_cache());
    let t = Instant::now();
    let raw = nocache_engine
        .batch(&queries)
        .expect("uncached batch failed");
    let nocache = t.elapsed();
    assert_eq!(answers, raw, "cache on/off answers diverged");
    row.wall("batched_nocache", nocache);
    row.info(
        "batched_nocache_qps",
        rate_per_sec(queries.len() as u64, nocache) as f64,
    );

    // One checksum pins every served distance.
    let checksum = answers
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, &d)| fold_checksum(acc, i as u64, d));
    row.det("answers_checksum", checksum);

    row.finish()
}
