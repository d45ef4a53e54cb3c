//! The `update` driver: incremental label maintenance vs from-scratch
//! rebuild under live queries. Applies single-edge batches (a heavy
//! insert deep in the decomposition, then its deletion) while reader
//! threads query the versioned engine continuously — proving queries were
//! served throughout and measuring the incremental apply+publish wall
//! against a full scratch rebuild of the same mutated instance.

use super::{gen_instance, RowBuilder};
use crate::lab::plan::Trial;
use crate::lab::results::TrialRow;
use labelserve::{ServeConfig, VersionedEngine};
use lowtw::{distlabel, twgraph};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;
use twgraph::EdgeBatch;

pub fn run(trial: &Trial) -> TrialRow {
    let inst = gen_instance(trial, 20_000, 2);
    // The paper-claim floor for the full-size run; quick profiles set 0 to
    // record the speedup without asserting on a noisy small instance.
    let min_speedup = trial.params.f64("min_speedup", 0.0);
    let mut row = RowBuilder::new(trial);
    let n = inst.n;

    // Scratch build: the baseline every incremental apply competes with.
    let t = Instant::now();
    let mut dl = distlabel::DynamicLabeling::build(&inst.inst, inst.k as u64 + 1, inst.seed)
        .expect("initial build failed");
    row.wall("label_build", t.elapsed());
    let serve_cfg = ServeConfig::default();
    let t = Instant::now();
    let eng = VersionedEngine::from_labeling(&dl, serve_cfg).expect("store build failed");
    row.wall("store_build", t.elapsed());
    let part = &dl.parts()[0];
    row.det("n", n as u64);
    row.det("m", inst.g.m() as u64);
    row.det("width", part.td().width() as u64);
    row.det("depth", part.td().stats().depth as u64);

    // Pick an edit site deep in the decomposition: the deepest leaf with a
    // region pair that is NOT already adjacent (see the old bench bin's
    // rationale — deleting the inserted edge restores the exact initial
    // instance).
    let adjacent = |u: u32, v: u32| {
        let inst = dl.inst();
        inst.out_arcs(u)
            .iter()
            .any(|&a| inst.arc(twgraph::ArcId(a)).dst == v)
            || inst
                .out_arcs(v)
                .iter()
                .any(|&a| inst.arc(twgraph::ArcId(a)).dst == u)
    };
    let depths = part.td().depths();
    let mut leaves: Vec<usize> = (0..part.info().len())
        .filter(|&x| part.info()[x].is_leaf && part.info()[x].gpx.len() >= 2)
        .collect();
    leaves.sort_unstable_by_key(|&x| std::cmp::Reverse(depths[x]));
    let (leaf, ga, gb) = leaves
        .iter()
        .find_map(|&x| {
            let gpx = &part.info()[x].gpx;
            (0..gpx.len()).find_map(|i| {
                (i + 1..gpx.len()).find_map(|j| {
                    let ga = part.old_of()[gpx[i] as usize];
                    let gb = part.old_of()[gpx[j] as usize];
                    (!adjacent(ga, gb)).then_some((x, ga, gb))
                })
            })
        })
        .expect("no leaf region with a non-adjacent vertex pair");
    row.det("edit_depth", depths[leaf] as u64);

    // A weight far above any shortest path cannot improve ancestor bag
    // distances, so the rebuild stays confined to the dirty subtree.
    let heavy = 25_000u64.max(n as u64);
    let batches = [
        ("insert_heavy", EdgeBatch::new().insert(ga, gb, heavy)),
        ("delete_heavy", EdgeBatch::new().delete(ga, gb)),
        ("insert_heavy_2", EdgeBatch::new().insert(ga, gb, heavy + 1)),
        ("delete_heavy_2", EdgeBatch::new().delete(ga, gb)),
    ];

    // Readers hammer the engine for the whole incremental phase; every
    // query must answer (no epoch gap).
    let stop = AtomicBool::new(false);
    let queries_during = AtomicU64::new(0);
    let epochs_seen = AtomicU64::new(0);
    let mut results = Vec::new();

    // Raised on every exit path — a panicking writer must still release
    // the readers or the scope join below waits on them forever.
    struct StopGuard<'a>(&'a AtomicBool);
    impl Drop for StopGuard<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }

    std::thread::scope(|scope| {
        for r in 0..4u64 {
            let eng = &eng;
            let stop = &stop;
            let queries_during = &queries_during;
            let epochs_seen = &epochs_seen;
            scope.spawn(move || {
                let mut i = r;
                while !stop.load(Ordering::Acquire) {
                    let snap = eng.snapshot();
                    epochs_seen.fetch_max(snap.epoch(), Ordering::Relaxed);
                    let s = ((i * 2_654_435_761) % n as u64) as u32;
                    let t = ((i * 40_503 + 7) % n as u64) as u32;
                    snap.distance(s, t).expect("query failed mid-publish");
                    queries_during.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }

        let _stop_guard = StopGuard(&stop);
        for (name, batch) in &batches {
            let t = Instant::now();
            let rep = dl.apply(batch).expect("incremental apply failed");
            let wall_apply = t.elapsed();
            let t = Instant::now();
            let stats = eng.publish_from(&dl, &rep.dirty).expect("publish failed");
            let wall_publish = t.elapsed();
            results.push((name.to_string(), wall_apply, wall_publish, rep, stats));
        }
    });
    for (name, wall_apply, wall_publish, rep, stats) in &results {
        assert_eq!(
            rep.fallbacks, 0,
            "{name}: heavy edge must take the scoped path"
        );
        row.wall(format!("{name}/apply"), *wall_apply);
        row.wall(format!("{name}/publish"), *wall_publish);
        row.det(format!("{name}/dirty"), rep.dirty.len() as u64);
        row.det(format!("{name}/scoped_parts"), rep.parts_scoped as u64);
        row.det(format!("{name}/reused_parts"), rep.parts_reused as u64);
        row.det(format!("{name}/fallbacks"), rep.fallbacks as u64);
        row.det(format!("{name}/region_nodes"), rep.region_nodes as u64);
        row.det(format!("{name}/dirty_shards"), stats.dirty_shards as u64);
        row.det(format!("{name}/total_shards"), stats.total_shards as u64);
        row.det(format!("{name}/epoch"), stats.epoch);
    }

    // Correctness spot-check on the final graph (heavy edge deleted, so it
    // must equal the original instance's distances).
    let truth = twgraph::alg::dijkstra(dl.inst(), ga);
    let mut checked = 0u64;
    for t in [gb, 0, (n / 2) as u32, n as u32 - 1] {
        assert_eq!(
            eng.distance(ga, t).unwrap(),
            truth.dist[t as usize],
            "post-update serve diverged at ({ga}, {t})"
        );
        checked += 1;
    }
    row.det("checked", checked);

    // Scratch rebuild of the same final instance.
    let t = Instant::now();
    let scratch =
        distlabel::DynamicLabeling::build(dl.inst(), inst.k as u64 + 1, inst.seed ^ 0xBEEF)
            .expect("scratch rebuild failed");
    let scratch_store =
        VersionedEngine::from_labeling(&scratch, serve_cfg).expect("scratch store failed");
    let wall_scratch = t.elapsed();
    drop(scratch_store);
    row.wall("scratch_rebuild", wall_scratch);

    let worst_incr = results
        .iter()
        .map(|(_, a, p, _, _)| (a.as_micros() + p.as_micros()) as u64)
        .max()
        .unwrap();
    let speedup = wall_scratch.as_micros() as f64 / worst_incr.max(1) as f64;
    let served = queries_during.load(Ordering::Relaxed);
    assert!(served > 0, "readers must have been served during rebuilds");
    row.info("speedup_vs_scratch", speedup);
    row.info("queries_during_rebuild", served as f64);
    row.info(
        "max_epoch_observed",
        epochs_seen.load(Ordering::Relaxed) as f64,
    );
    if min_speedup > 0.0 {
        assert!(
            speedup >= min_speedup,
            "incremental must beat scratch by {min_speedup}x (got {speedup:.1}x)"
        );
    }
    row.finish()
}
