//! The `update` stage: single-edge insert and delete batches at leaf
//! regions of the decomposition, each applied with
//! `DynamicLabeling::apply` and made visible with
//! `VersionedEngine::publish_from`, while one reader thread runs the
//! skewed query stream against the engine.
//!
//! Every inserted edge weighs more than any simple path, so no distance
//! ever changes: each read during the updates is checked against the
//! answer from before them, and after the last batch sampled pairs are
//! checked against Dijkstra on the labeling's current instance.

use crate::cpus::Placement;
use crate::report::{median, percentile, Report};
use crate::serve::hot_stream;
use crate::trace::Tracer;
use crate::StageRun;
use distlabel::DynamicLabeling;
use labelserve::{ServeConfig, VersionedEngine};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use twgraph::{ArcId, Dist, EdgeBatch};

const K: usize = 2;
/// The visible-latency p90 needs at least this many batches.
const MIN_BATCHES: usize = 100;
/// Queries the reader cycles over, each with its pre-update answer.
const READ_STREAM: usize = 1 << 16;
const MAX_WEIGHT: u64 = 30;
/// Measured time per slice.
const SLICE: Duration = Duration::from_millis(250);
/// Leaf regions edited in turn; every site gets an insert and a delete
/// within the first `MIN_BATCHES` batches.
const SITES: usize = MIN_BATCHES / 2;

/// A non-adjacent vertex pair in each of the `SITES` deepest leaf regions,
/// in an order drawn from the seed. The deepest leaves have the smallest
/// regions, so every batch rebuilds a similar amount.
fn edit_sites(dl: &DynamicLabeling, seed: u64) -> Vec<(u32, u32)> {
    let inst = dl.inst();
    let adjacent = |u: u32, v: u32| {
        inst.out_arcs(u)
            .iter()
            .any(|&a| inst.arc(ArcId(a)).dst == v)
            || inst
                .out_arcs(v)
                .iter()
                .any(|&a| inst.arc(ArcId(a)).dst == u)
    };
    let mut sites = Vec::new();
    for part in dl.parts() {
        let depths = part.td().depths();
        for (x, node) in part.info().iter().enumerate() {
            if !node.is_leaf {
                continue;
            }
            let gpx = &node.gpx;
            let pair = (0..gpx.len()).find_map(|i| {
                (i + 1..gpx.len()).find_map(|j| {
                    let a = part.old_of()[gpx[i] as usize];
                    let b = part.old_of()[gpx[j] as usize];
                    (!adjacent(a, b)).then_some((a, b))
                })
            });
            sites.extend(pair.map(|p| (depths[x], p)));
        }
    }
    sites.sort_by_key(|&(depth, p)| (std::cmp::Reverse(depth), p));
    let mut sites: Vec<(u32, u32)> = sites.into_iter().take(SITES).map(|(_, p)| p).collect();
    sites.shuffle(&mut SmallRng::seed_from_u64(seed ^ 0xED17));
    sites
}

pub struct UpdateStage {
    rep: Report,
    /// The writer (this thread) on the first CPU, the reader on the second.
    place: Placement,
    dl: DynamicLabeling,
    eng: VersionedEngine,
    sites: Vec<(u32, u32)>,
    stream: Vec<(u32, u32)>,
    expected: Vec<Dist>,
    rng: SmallRng,
    heavy: u64,
    batches: usize,
    visible_ms: Vec<f64>,
    apply_ms: Vec<f64>,
    publish_ms: Vec<f64>,
    region: Vec<f64>,
    dirty: Vec<f64>,
    dirty_shards: Vec<f64>,
    fallbacks: usize,
    total_shards: usize,
    /// Reads checked, and reads and reader time counted for the rate.
    reads: u64,
    read_failed: u64,
    reads_timed: u64,
    read_s: f64,
    /// Batches, fallbacks, timed reads and reader time before the last
    /// slice.
    last: (usize, usize, u64, f64),
}

impl UpdateStage {
    pub fn new(run: StageRun, tr: &mut Tracer) -> Self {
        let mut rep = Report::default();
        let inst = crate::instance(run.n, K, run.seed);
        let n = inst.n;

        // Set-up: generated instance to a labeling and an engine serving it.
        let reps = if run.featured { 2 } else { 1 };
        let mut ready = None;
        for _ in 0..reps {
            drop(ready.take());
            let t = Instant::now();
            let dl = tr
                .span("distlabel/DynamicLabeling::build", || {
                    DynamicLabeling::build(&inst.inst, K as u64 + 1, crate::STRUCTURE_SEED)
                })
                .expect("a partial k-tree labels");
            let eng = tr
                .span("labelserve/VersionedEngine::from_labeling", || {
                    VersionedEngine::from_labeling(&dl, ServeConfig::default())
                })
                .expect("store build");
            rep.setup_s.push(t.elapsed().as_secs_f64());
            ready = Some((dl, eng));
        }
        let (dl, eng) = ready.expect("at least one set-up");

        let sites = edit_sites(&dl, run.seed);
        if sites.is_empty() {
            rep.check(false, || {
                "update: no leaf region with a non-adjacent pair".into()
            });
        }
        let stream = hot_stream(n, READ_STREAM, run.seed ^ 0x0BDA7E);
        let mut expected: Vec<Dist> = stream.iter().map(|&(s, t)| dl.distance(s, t)).collect();
        if run.inject_wrong {
            expected[0] ^= 1;
        }
        UpdateStage {
            rep,
            place: Placement::new(),
            dl,
            eng,
            sites,
            stream,
            expected,
            rng: SmallRng::seed_from_u64(run.seed ^ 0x3E16),
            // Heavier than any simple path, so no shortest path can use it.
            heavy: MAX_WEIGHT * n as u64,
            batches: 0,
            visible_ms: Vec::new(),
            apply_ms: Vec::new(),
            publish_ms: Vec::new(),
            region: Vec::new(),
            dirty: Vec::new(),
            dirty_shards: Vec::new(),
            fallbacks: 0,
            total_shards: 0,
            reads: 0,
            read_failed: 0,
            reads_timed: 0,
            read_s: 0.0,
            last: (0, 0, 0, 0.0),
        }
    }

    pub fn discard_last(&mut self) {
        let (batches, fallbacks, reads, read_s) = self.last;
        for v in [
            &mut self.visible_ms,
            &mut self.apply_ms,
            &mut self.publish_ms,
            &mut self.region,
            &mut self.dirty,
            &mut self.dirty_shards,
        ] {
            v.truncate(batches);
        }
        self.fallbacks = fallbacks;
        self.reads_timed = reads;
        self.read_s = read_s;
    }

    /// The visible-latency p90 needs `MIN_BATCHES` batches.
    pub fn satisfied(&self) -> bool {
        self.visible_ms.len() >= MIN_BATCHES || self.rep.failed > 0 || self.sites.is_empty()
    }

    /// Batches for one slice's time while the reader reads.
    pub fn slice(&mut self, tr: &mut Tracer) {
        if self.rep.failed > 0 || self.sites.is_empty() {
            return;
        }
        self.last = (
            self.visible_ms.len(),
            self.fallbacks,
            self.reads_timed,
            self.read_s,
        );
        let stop = AtomicBool::new(false);
        let (stream, expected, eng) = (&self.stream, &self.expected, &self.eng);
        let mut start = self.reads as usize % stream.len();
        let place = &self.place;
        let (reads, failed, read_s) = place.on_first(|| {
            std::thread::scope(|scope| {
                let reader = scope.spawn(|| {
                    place.on_second(|| {
                        let t = Instant::now();
                        let (mut reads, mut failed) = (0u64, 0u64);
                        while !stop.load(Ordering::Acquire) {
                            let (s, d) = stream[start];
                            failed += u64::from(eng.distance(s, d).ok() != Some(expected[start]));
                            reads += 1;
                            start = if start + 1 == stream.len() {
                                0
                            } else {
                                start + 1
                            };
                        }
                        (reads, failed, t.elapsed().as_secs_f64())
                    })
                });
                // Raised on every exit path, so the reader always stops.
                struct Stop<'a>(&'a AtomicBool);
                impl Drop for Stop<'_> {
                    fn drop(&mut self) {
                        self.0.store(true, Ordering::Release);
                    }
                }
                let stop_guard = Stop(&stop);
                let deadline = Instant::now() + SLICE;
                loop {
                    let (u, v) = self.sites[(self.batches / 2) % self.sites.len()];
                    let batch = if self.batches % 2 == 0 {
                        EdgeBatch::new().insert(u, v, self.heavy + self.rng.gen_range(0..1_000u64))
                    } else {
                        EdgeBatch::new().delete(u, v)
                    };
                    self.batches += 1;
                    let t = Instant::now();
                    let applied =
                        tr.span("distlabel/DynamicLabeling::apply", || self.dl.apply(&batch));
                    let t_apply = t.elapsed();
                    let report = match applied {
                        Ok(r) => r,
                        Err(e) => {
                            self.rep
                                .check(false, || format!("update: apply failed: {e:?}"));
                            break;
                        }
                    };
                    let t = Instant::now();
                    let published = tr.span("labelserve/VersionedEngine::publish_from", || {
                        eng.publish_from(&self.dl, &report.dirty)
                    });
                    let t_publish = t.elapsed();
                    let stats = match published {
                        Ok(s) => s,
                        Err(e) => {
                            self.rep
                                .check(false, || format!("update: publish failed: {e:?}"));
                            break;
                        }
                    };
                    self.apply_ms.push(t_apply.as_secs_f64() * 1e3);
                    self.publish_ms.push(t_publish.as_secs_f64() * 1e3);
                    self.visible_ms
                        .push((t_apply + t_publish).as_secs_f64() * 1e3);
                    self.region.push(report.region_nodes as f64);
                    self.dirty.push(report.dirty.len() as f64);
                    self.dirty_shards.push(stats.dirty_shards as f64);
                    self.fallbacks += report.fallbacks;
                    self.total_shards = stats.total_shards;
                    if Instant::now() >= deadline {
                        break;
                    }
                }
                drop(stop_guard);
                reader.join().expect("reader thread")
            })
        });
        self.reads += reads;
        self.read_failed += failed;
        self.reads_timed += reads;
        self.read_s += read_s;
    }

    pub fn finish(self) -> Report {
        let mut rep = self.rep;
        rep.count(self.visible_ms.len() as u64, 0, "update: batches");
        rep.count(
            self.reads,
            self.read_failed,
            "update: reads during updates differ from before them",
        );
        rep.e2e("update_visible_p50_ms", median(&self.visible_ms), "ms");
        rep.e2e(
            "update_visible_p90_ms",
            percentile(&self.visible_ms, 90.0),
            "ms",
        );
        rep.e2e(
            "update_read_qps",
            self.reads_timed as f64 / self.read_s.max(1e-9),
            "1/s",
        );
        rep.layer("distlabel.apply_p50_ms", median(&self.apply_ms), "ms");
        rep.layer("distlabel.region_nodes", median(&self.region), "count");
        rep.layer("distlabel.dirty", median(&self.dirty), "count");
        rep.layer("distlabel.fallbacks", self.fallbacks as f64, "count");
        rep.layer("labelserve.publish_p50_ms", median(&self.publish_ms), "ms");
        rep.layer(
            "labelserve.dirty_shards",
            median(&self.dirty_shards),
            "count",
        );
        rep.layer("labelserve.total_shards", self.total_shards as f64, "count");

        // After the last batch: sampled pairs against Dijkstra on the
        // labeling's current instance.
        let stream = &self.stream;
        for &(s, _) in stream.iter().step_by(READ_STREAM / 4).take(4) {
            let truth = twgraph::alg::dijkstra(self.dl.inst(), s).dist;
            let wrong = stream
                .iter()
                .take(1024)
                .filter(|&&(_, t)| self.eng.distance(s, t).ok() != Some(truth[t as usize]))
                .count();
            rep.count(
                1024,
                wrong as u64,
                "update: answers after the batches differ from Dijkstra",
            );
        }
        rep
    }
}
