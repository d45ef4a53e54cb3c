//! The row-patch differential.
//!
//! `LabelStore::rebuilt` patches the rows of dirty vertices into their
//! shards and recompacts a shard whole only once its patch passes 1/8 of
//! its base entries. This suite replays a seeded sequence of single-edge
//! batches on a labeling, publishes each into a flat and a packed store,
//! and after every publish requires:
//!
//! * every ordered pair to answer bit-identically to a store compacted
//!   from scratch from the same labeling (and entry and component counts
//!   to match the scratch store of the same layout);
//! * `entries_of` to run once per dirty vertex, plus once per clean row
//!   of each shard that folded;
//! * patched stores to round-trip through `write_to` → `open_mmap`.

use lowtw::labelserve::{LabelStore, StoreBuilder, StoreLayout};
use lowtw::{DynamicLabeling, EdgeBatch};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use twgraph::gen::{partial_ktree, with_random_weights};
use twgraph::{ArcId, Dist};

const N: usize = 128;
const SHARD: usize = 64;
const BATCHES: usize = 200;
const MAX_WEIGHT: u64 = 30;
/// Every `LIGHT`-th batch inserts a light random edge, which may move
/// distances, fail the gate and dirty a whole part; the rest edit leaf
/// sites with heavy edges.
const LIGHT: usize = 25;

/// The scratch reference: every part of the labeling compacted afresh.
fn scratch(dl: &DynamicLabeling) -> StoreBuilder {
    let mut b = StoreBuilder::new(dl.n());
    for part in dl.parts() {
        if part.n() == 1 {
            b.add_singleton(part.old_of()[0]).unwrap();
        } else {
            b.add_component(part.labels(), part.old_of()).unwrap();
        }
    }
    b
}

/// A non-adjacent pair inside each leaf region, deepest leaves first:
/// their regions are the smallest, so edits there dirty few vertices.
fn leaf_sites(dl: &DynamicLabeling) -> Vec<(u32, u32)> {
    let inst = dl.inst();
    let adjacent = |u: u32, v: u32| {
        inst.out_arcs(u)
            .iter()
            .any(|&a| inst.arc(ArcId(a)).dst == v)
    };
    let mut sites = Vec::new();
    for part in dl.parts() {
        let depths = part.td().depths();
        for (x, node) in part
            .info()
            .iter()
            .enumerate()
            .filter(|(_, node)| node.is_leaf)
        {
            let global: Vec<u32> = node
                .gpx
                .iter()
                .map(|&l| part.old_of()[l as usize])
                .collect();
            let pair = global.iter().enumerate().find_map(|(i, &a)| {
                global[i + 1..]
                    .iter()
                    .find(|&&b| !adjacent(a, b))
                    .map(|&b| (a, b))
            });
            sites.extend(pair.map(|p| (std::cmp::Reverse(depths[x]), p)));
        }
    }
    sites.sort_unstable();
    sites.into_iter().map(|(_, p)| p).collect()
}

/// Every ordered pair of `got` against the scratch store's answers
/// (`want[s * n + t]`), plus the store totals.
fn assert_same_answers(got: &LabelStore, want: &LabelStore, answers: &[Dist], what: &str) {
    assert_eq!(got.entries(), want.entries(), "{what}: entries");
    assert_eq!(got.components(), want.components(), "{what}: components");
    let n = got.n() as u32;
    for s in 0..n {
        for t in 0..n {
            assert_eq!(
                got.distance(s, t).unwrap(),
                answers[(s * n + t) as usize],
                "{what}: d({s} → {t})"
            );
        }
    }
}

#[test]
fn patched_stores_answer_like_scratch_stores() {
    let inst = with_random_weights(&partial_ktree(N, 2, 0.5, 3), MAX_WEIGHT, 4);
    let mut dl = DynamicLabeling::build(&inst, 3, 11).unwrap();
    let mut sites = leaf_sites(&dl);
    let layouts = [StoreLayout::Flat, StoreLayout::Packed];
    let mut stores: Vec<LabelStore> = layouts
        .iter()
        .map(|&l| scratch(&dl).build_layout(SHARD, l).unwrap())
        .collect();
    let mut rng = SmallRng::seed_from_u64(0x9A7C);
    // Each site takes a heavy insert (heavier than any simple path, so no
    // distance moves), its delete, a unit-weight insert (a shortcut inside
    // the leaf region: its rows change) and its delete.
    let heavy = MAX_WEIGHT * N as u64;
    let (mut patched, mut folded, mut reopened) = (0usize, 0usize, 0usize);
    let dir = std::env::temp_dir();
    for b in 0..BATCHES {
        let (u, v) = sites[(b / 4) % sites.len()];
        let batch = if b % LIGHT == LIGHT - 1 {
            EdgeBatch::new().insert(rng.gen_range(0..N as u32), rng.gen_range(0..N as u32), 1)
        } else if b % 4 == 0 {
            EdgeBatch::new().insert(u, v, heavy + rng.gen_range(0..1_000u64))
        } else if b % 4 == 2 {
            EdgeBatch::new().insert(u, v, 1)
        } else {
            EdgeBatch::new().delete(u, v)
        };
        let rep = dl.apply(&batch).unwrap();
        if b % LIGHT == LIGHT - 1 {
            sites = leaf_sites(&dl);
        }
        let reference = scratch(&dl);
        let flat = reference.build_layout(SHARD, StoreLayout::Flat).unwrap();
        let answers: Vec<Dist> = (0..N as u32)
            .flat_map(|s| (0..N as u32).map(move |t| (s, t)))
            .map(|(s, t)| flat.distance(s, t).unwrap())
            .collect();
        let mut any_fold = false;
        for (store, &layout) in stores.iter_mut().zip(&layouts) {
            let what = format!("batch {b} {layout:?}");
            let calls = Cell::new(0usize);
            let next = store
                .rebuilt(&rep.dirty, dl.comp_of().to_vec(), |v| {
                    calls.set(calls.get() + 1);
                    dl.label_entries_global(v)
                })
                .unwrap();
            // A dirty shard left without a patch was recompacted whole,
            // which reads every one of its rows once.
            let mut want_calls = 0;
            for s in 0..next.shard_count() {
                let dirty_here = rep.dirty.iter().filter(|&&v| next.shard_of(v) == s).count();
                if dirty_here > 0 && next.patched_rows(s) == 0 {
                    any_fold = true;
                    want_calls += SHARD.min(N - s * SHARD);
                } else {
                    want_calls += dirty_here;
                }
            }
            assert_eq!(calls.get(), want_calls, "{what}: entries_of calls");
            let want = reference.build_layout(SHARD, layout).unwrap();
            assert_same_answers(&next, &want, &answers, &what);
            if b % LIGHT == LIGHT - 2 && (0..next.shard_count()).any(|s| next.patched_rows(s) > 0) {
                let path = dir.join(format!(
                    "lowtw_row_patch_{}_{b}_{layout:?}.lbl",
                    std::process::id()
                ));
                next.write_to(&path).unwrap();
                let opened = LabelStore::open_mmap(&path).unwrap();
                std::fs::remove_file(&path).ok();
                assert_same_answers(&opened, &want, &answers, &format!("{what} reopened"));
                reopened += 1;
            }
            *store = next;
        }
        if !rep.dirty.is_empty() {
            if any_fold {
                folded += 1;
            } else {
                patched += 1;
            }
        }
    }
    assert!(folded > 0, "no publish folded a patch");
    assert!(reopened > 0, "no patched store was written and reopened");
    assert!(
        patched > folded,
        "most publishes patch: {patched} patched, {folded} folded"
    );
}
