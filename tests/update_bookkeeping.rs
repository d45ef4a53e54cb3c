//! The in-place update bookkeeping net.
//!
//! `DynamicLabeling::apply` edits the instance, the communication graph
//! and every touched part's local graph and instance in place, and
//! recomputes components only when a batch can change them. This suite
//! replays seeded edit sequences that include component splits and merges
//! and, after every batch, compares that state with what the rebuild
//! calls produce from scratch: `EdgeBatch::apply` (arc order and
//! undirected ids), `comm_graph`, `alg::components` and `induced` per part.

use lowtw::{DynamicLabeling, EdgeBatch};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use twgraph::gen::{banded_path, disjoint_union, grid, partial_ktree, with_random_weights};
use twgraph::{alg, MultiDigraph, UGraph};

const BATCHES: usize = 60;

/// One to three edits against the current instance: deletions of present
/// edges and weighted insertions of random pairs (self-loops and
/// duplicates included, as they come).
fn seeded_batch(inst: &MultiDigraph, rng: &mut SmallRng) -> EdgeBatch {
    let n = inst.n() as u32;
    let mut batch = EdgeBatch::new();
    for _ in 0..rng.gen_range(1..=3) {
        let arcs = inst.arcs();
        if rng.gen_bool(0.5) && !arcs.is_empty() {
            let a = arcs[rng.gen_range(0..arcs.len())];
            batch = batch.delete(a.src, a.dst);
        } else {
            batch = batch.insert(
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(1..=30),
            );
        }
    }
    batch
}

/// The maintained state must equal the from-scratch reference: instance,
/// communication graph, component map, and each part's local structures
/// (parts in component order).
fn assert_state_matches(dl: &DynamicLabeling, reference: &MultiDigraph, what: &str) {
    assert_eq!(dl.inst(), reference, "{what}: instance");
    let graph: UGraph = reference.comm_graph();
    assert_eq!(dl.graph(), &graph, "{what}: communication graph");
    let (comp_of, n_comp) = alg::components(&graph);
    assert_eq!(dl.comp_of(), &comp_of[..], "{what}: component map");
    assert_eq!(dl.parts().len(), n_comp, "{what}: one part per component");
    for (i, part) in dl.parts().iter().enumerate() {
        assert_eq!(
            comp_of[part.old_of()[0] as usize] as usize,
            i,
            "{what}: part order"
        );
        let mut keep = vec![false; graph.n()];
        for &v in part.old_of() {
            keep[v as usize] = true;
        }
        let (pg, old_of) = graph.induced(&keep);
        assert_eq!(part.old_of(), &old_of[..], "{what}: part {i} vertex set");
        assert_eq!(part.graph(), &pg, "{what}: part {i} graph");
        assert_eq!(
            part.inst(),
            &reference.induced(&keep).0,
            "{what}: part {i} instance"
        );
    }
}

#[test]
fn in_place_state_equals_the_rebuild_calls() {
    let families: [(&str, UGraph); 3] = [
        ("path", banded_path(40, 1)),
        ("partial_2tree", partial_ktree(80, 2, 0.7, 5)),
        (
            "union",
            disjoint_union(&[grid(4, 4), banded_path(20, 2), UGraph::empty(1)]),
        ),
    ];
    let (mut in_place, mut repartitioned) = (0usize, 0usize);
    for (fi, (name, g)) in families.iter().enumerate() {
        let mut reference = with_random_weights(g, 30, fi as u64 + 1);
        let mut dl = DynamicLabeling::build(&reference, 3, 9).unwrap();
        assert_state_matches(&dl, &reference, name);
        let mut rng = SmallRng::seed_from_u64(0xB00C ^ fi as u64);
        for b in 0..BATCHES {
            let batch = seeded_batch(&reference, &mut rng);
            let (next, touched) = batch.apply(&reference);
            let rep = dl.apply(&batch).unwrap();
            reference = next;
            let what = format!("{name} batch {b}");
            assert_state_matches(&dl, &reference, &what);
            if !touched.is_empty() {
                if rep.parts_rebuilt > 0 {
                    repartitioned += 1;
                } else {
                    in_place += 1;
                }
            }
            // Spot-check answers from a touched vertex against Dijkstra.
            let s = touched.first().copied().unwrap_or(0);
            let truth = alg::dijkstra(&reference, s).dist;
            for t in 0..reference.n() as u32 {
                assert_eq!(dl.distance(s, t), truth[t as usize], "{what}: d({s} → {t})");
            }
        }
    }
    assert!(in_place >= 40, "in-place applies exercised: {in_place}");
    assert!(
        repartitioned >= 20,
        "splits and merges exercised: {repartitioned}"
    );
}
