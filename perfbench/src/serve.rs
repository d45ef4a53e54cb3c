//! The `serve` stage: centralized decomposition and labeling compacted
//! into a `labelserve` store, then two closed-loop query streams through
//! `QueryEngine::distance` on one thread — a skewed one (75% of queries
//! from 4096 hot pairs, so the cache answers most) and a uniform cold one
//! (so the store decoder answers almost all).

use crate::report::{median, Report};
use crate::trace::Tracer;
use crate::StageRun;
use labelserve::{
    seeded_queries, LabelStore, QueryEngine, ServeConfig, StoreBuilder, WorkloadSpec,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use scenarios::fold_checksum;
use std::time::{Duration, Instant};

const K: usize = 1;
/// Queries per timed chunk; a stream's rate is the median chunk rate.
const CHUNK: usize = 4_096;
/// Measured time per slice, split between the hot and the cold stream.
const SLICE: Duration = Duration::from_millis(200);
/// One query in this many is timed on its own in a traced run.
const SAMPLE_EVERY: usize = 256;
/// Queries replayed through the cached and the uncached path for the
/// answers checksum.
const CHECKSUM_QUERIES: usize = 100_000;

/// The store of a seeded instance and what building it cost.
pub struct Built {
    pub store: LabelStore,
    pub decompose_s: f64,
    pub label_s: f64,
    pub store_build_s: f64,
    pub shape: Shape,
}

/// Sizes of the decomposition, the labels and the store.
pub struct Shape {
    pub store_bytes: usize,
    pub width: usize,
    pub depth: usize,
    pub label_words: u64,
}

/// Decompose, label and compact `inst` into a store with the default
/// serving configuration.
pub fn build_store(inst: &lowtw_bench::drivers::Instance, tr: &mut Tracer) -> Built {
    let n = inst.n;
    let cfg = lowtw::SepConfig::practical(n);
    let mut rng = SmallRng::seed_from_u64(crate::STRUCTURE_SEED);
    let t = Instant::now();
    let out = tr
        .span("treedec/decompose_centralized", || {
            treedec::decompose_centralized(&inst.g, inst.k as u64 + 1, &cfg, &mut rng)
        })
        .expect("a connected partial k-tree decomposes");
    let decompose_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let labels = tr.span("distlabel/build_labels_centralized", || {
        distlabel::build_labels_centralized(&inst.inst, &out.td, &out.info)
    });
    let label_s = t.elapsed().as_secs_f64();
    let label_words = labels.iter().map(|l| l.words() as u64).sum();
    let serve_cfg = ServeConfig::default();
    let t = Instant::now();
    let store = tr.span("labelserve/StoreBuilder::build_layout", || {
        let ids: Vec<u32> = (0..n as u32).collect();
        let mut builder = StoreBuilder::new(n);
        builder
            .add_component(&labels, &ids)
            .expect("labels of one component compact");
        builder
            .build_layout(serve_cfg.shard_size, serve_cfg.layout)
            .expect("store build")
    });
    let store_build_s = t.elapsed().as_secs_f64();
    Built {
        shape: Shape {
            store_bytes: store.bytes(),
            width: out.td.width(),
            depth: out.td.stats().depth,
            label_words,
        },
        store,
        decompose_s,
        label_s,
        store_build_s,
    }
}

/// Report what building cost and produced, as per-layer metrics.
pub fn report_build(rep: &mut Report, builds: &[(f64, f64, f64)], last: &Shape) {
    let med = |f: fn(&(f64, f64, f64)) -> f64| median(&builds.iter().map(f).collect::<Vec<_>>());
    rep.layer("treedec.decompose_s", med(|b| b.0), "s");
    rep.layer("distlabel.build_s", med(|b| b.1), "s");
    rep.layer("labelserve.store_build_s", med(|b| b.2), "s");
    rep.layer("labelserve.store_bytes", last.store_bytes as f64, "bytes");
    rep.layer("treedec.width", last.width as f64, "count");
    rep.layer("treedec.depth", last.depth as f64, "count");
    rep.layer("distlabel.label_words", last.label_words as f64, "words");
}

/// The skewed stream the serve, wire and update stages read with.
pub fn hot_stream(n: usize, queries: usize, seed: u64) -> Vec<(u32, u32)> {
    let spec = WorkloadSpec {
        queries,
        hot_pairs: 4096,
        hot_fraction: 0.75,
    };
    seeded_queries(n, &spec, seed)
}

/// A uniform stream: both endpoints drawn uniformly.
pub fn cold_stream(n: usize, queries: usize, seed: u64) -> Vec<(u32, u32)> {
    let spec = WorkloadSpec {
        queries,
        hot_pairs: 1,
        hot_fraction: 0.0,
    };
    seeded_queries(n, &spec, seed ^ 0xC01D)
}

/// One stream's replay position and what its chunks measured.
struct Replay {
    stream: Vec<(u32, u32)>,
    pos: usize,
    rates: Vec<f64>,
    queries: u64,
    failed: u64,
}

impl Replay {
    fn new(stream: Vec<(u32, u32)>) -> Self {
        Replay {
            stream,
            pos: 0,
            rates: Vec::new(),
            queries: 0,
            failed: 0,
        }
    }

    /// Replay the stream (cyclically) in chunks for `budget`, recording
    /// each chunk's rate; in a traced run every `SAMPLE_EVERY`th query is
    /// timed on its own.
    fn run(
        &mut self,
        engine: &QueryEngine,
        budget: Duration,
        tr: &mut Tracer,
        samples_ns: &mut Vec<f64>,
    ) {
        let traced = tr.enabled();
        let mut acc = 0u64;
        let deadline = Instant::now() + budget;
        loop {
            let t = Instant::now();
            for _ in 0..CHUNK {
                let (s, d) = self.stream[self.pos];
                self.pos = if self.pos + 1 == self.stream.len() {
                    0
                } else {
                    self.pos + 1
                };
                self.queries += 1;
                let r = if traced && self.queries as usize % SAMPLE_EVERY == 0 {
                    let t0 = Instant::now();
                    let r = engine.distance(s, d);
                    let t1 = Instant::now();
                    tr.record("labelserve/QueryEngine::distance", t0, t1, self.queries);
                    samples_ns.push((t1 - t0).as_nanos() as f64);
                    r
                } else {
                    engine.distance(s, d)
                };
                match r {
                    Ok(x) => acc = acc.wrapping_add(x),
                    Err(_) => self.failed += 1,
                }
            }
            let now = Instant::now();
            self.rates.push(CHUNK as f64 / (now - t).as_secs_f64());
            if now >= deadline {
                break;
            }
        }
        std::hint::black_box(acc);
    }
}

/// Answers checksum of `stream` through `engine`.
fn checksum(engine: &QueryEngine, stream: &[(u32, u32)]) -> u64 {
    stream.iter().enumerate().fold(0u64, |acc, (i, &(s, t))| {
        fold_checksum(acc, i as u64, engine.distance(s, t).unwrap_or(u64::MAX))
    })
}

pub struct ServeStage {
    run: StageRun,
    rep: Report,
    engine: QueryEngine,
    hot: Replay,
    cold: Replay,
    hits: u64,
    misses: u64,
    samples_ns: Vec<f64>,
    /// Chunk rates, samples, hits and misses before the last slice.
    last: (usize, usize, usize, u64, u64),
}

impl ServeStage {
    pub fn new(run: StageRun, tr: &mut Tracer) -> Self {
        let mut rep = Report::default();
        let inst = crate::instance(run.n, K, run.seed);
        let n = inst.n;
        let hot = hot_stream(n, 1 << 20, run.seed);
        let cold = cold_stream(n, 1 << 20, run.seed);

        // Set-up: generated instance to an engine ready to answer. The
        // workload's own stage repeats it for a median.
        let reps = if run.featured { 2 } else { 1 };
        let mut builds = Vec::new();
        let mut built: Option<Built> = None;
        for _ in 0..reps {
            drop(built.take()); // free the previous store before building the next
            let t = Instant::now();
            let b = build_store(&inst, tr);
            rep.setup_s.push(t.elapsed().as_secs_f64());
            builds.push((b.decompose_s, b.label_s, b.store_build_s));
            built = Some(b);
        }
        let built = built.expect("at least one build");
        report_build(&mut rep, &builds, &built.shape);
        let raw = QueryEngine::new(built.store, ServeConfig::default().without_cache());

        // Oracle checks before timing: sampled sources from both streams
        // against Dijkstra, with the targets of the stream's head.
        for stream in [&hot, &cold] {
            for &(s, _) in stream.iter().step_by(stream.len() / 4).take(4) {
                let truth = twgraph::alg::dijkstra(&inst.inst, s).dist;
                let wrong = stream
                    .iter()
                    .take(4096)
                    .filter(|&&(_, t)| raw.distance(s, t).ok() != Some(truth[t as usize]))
                    .count();
                rep.count(
                    4096,
                    wrong as u64,
                    "serve: store answers differ from Dijkstra",
                );
            }
        }

        let engine = QueryEngine::new(raw.into_store(), ServeConfig::default());
        // Warm the cache with the hot stream's head, untimed.
        for &(s, t) in hot.iter().take(1 << 16) {
            let _ = engine.distance(s, t);
        }
        ServeStage {
            run,
            rep,
            engine,
            hot: Replay::new(hot),
            cold: Replay::new(cold),
            hits: 0,
            misses: 0,
            samples_ns: Vec::new(),
            last: (0, 0, 0, 0, 0),
        }
    }

    pub fn discard_last(&mut self) {
        let (hot, cold, samples, hits, misses) = self.last;
        self.hot.rates.truncate(hot);
        self.cold.rates.truncate(cold);
        self.samples_ns.truncate(samples);
        self.hits = hits;
        self.misses = misses;
    }

    pub fn satisfied(&self) -> bool {
        self.hot.rates.len() >= 3 && self.cold.rates.len() >= 3
    }

    /// The hot stream, then the cold one, each for half a slice.
    pub fn slice(&mut self, tr: &mut Tracer) {
        self.last = (
            self.hot.rates.len(),
            self.cold.rates.len(),
            self.samples_ns.len(),
            self.hits,
            self.misses,
        );
        let before = self.engine.stats();
        let span = tr.begin("serve/hot");
        self.hot
            .run(&self.engine, SLICE / 2, tr, &mut self.samples_ns);
        tr.end(span);
        let after = self.engine.stats();
        self.hits += after.hits - before.hits;
        self.misses += after.misses - before.misses;
        let span = tr.begin("serve/cold");
        self.cold
            .run(&self.engine, SLICE / 2, tr, &mut self.samples_ns);
        tr.end(span);
    }

    pub fn finish(self) -> Report {
        let mut rep = self.rep;
        let (hot, cold) = (&self.hot, &self.cold);
        rep.count(hot.queries, hot.failed, "serve: hot queries failed");
        rep.count(cold.queries, cold.failed, "serve: cold queries failed");
        rep.e2e("serve_hot_qps", median(&hot.rates), "1/s");
        rep.e2e("serve_cold_qps", median(&cold.rates), "1/s");
        rep.layer("labelserve.hits", self.hits as f64, "count");
        rep.layer("labelserve.misses", self.misses as f64, "count");
        rep.layer(
            "labelserve.hit_rate",
            self.hits as f64 / (self.hits + self.misses).max(1) as f64,
            "ratio",
        );
        if !self.samples_ns.is_empty() {
            rep.layer("labelserve.inproc_p50_ns", median(&self.samples_ns), "ns");
        }

        // Answers checksum: the cached engine against the bare store.
        let engine = self.engine;
        let mut got = [&hot.stream, &cold.stream]
            .map(|stream| checksum(&engine, &stream[..CHECKSUM_QUERIES]));
        if self.run.inject_wrong {
            got[0] ^= 1;
        }
        let uncached =
            QueryEngine::new(engine.into_store(), ServeConfig::default().without_cache());
        let want = [&hot.stream, &cold.stream]
            .map(|stream| checksum(&uncached, &stream[..CHECKSUM_QUERIES]));
        for (got, want) in got.into_iter().zip(want) {
            rep.check(got == want, || {
                format!("serve: answers checksum {got:#x} != store checksum {want:#x}")
            });
        }
        rep
    }
}
