//! Determinism locks for the distributed recursion.
//!
//! 1. **Repeated-run bit-identity**: two executions in the same process
//!    (fresh hasher state per `HashMap`) must agree bit for bit — same
//!    tree, same recursion records, same charged metrics. This guards the
//!    duplicate-key determinism sweep (stable sorts / full tiebreak keys
//!    everywhere order can leak from hash iteration).
//! 2. **Cross-component decode regression**: in the global vertex-id
//!    space, labels of different components share no targets, so
//!    `distlabel::decode` must return the infinite distance for every
//!    cross-component pair of a `multi_component` scenario.

use congest_sim::{Metrics, Network, NetworkConfig};
use lowtw::{distlabel, treedec, twgraph};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use scenarios::{corpus, split_components};
use treedec::DistDecompOutcome;
use twgraph::{UGraph, INF};

/// Decompose one connected graph.
fn decompose_with(g: &UGraph, t0: u64, seed: u64) -> (DistDecompOutcome, Metrics) {
    let cfg = treedec::SepConfig::practical(g.n());
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = Network::new(g.clone(), NetworkConfig::default());
    let out =
        treedec::decompose_distributed(&mut net, t0, &cfg, &mut rng).expect("decomposition failed");
    (out, *net.metrics())
}

fn assert_outcomes_identical(a: &DistDecompOutcome, b: &DistDecompOutcome, ctx: &str) {
    assert_eq!(a.td.bags, b.td.bags, "{ctx}: bags diverged");
    assert_eq!(a.td.children, b.td.children, "{ctx}: tree shape diverged");
    assert_eq!(a.t_used, b.t_used, "{ctx}: t diverged");
    assert_eq!(a.rounds, b.rounds, "{ctx}: rounds diverged");
    assert_eq!(
        a.backbone_rounds, b.backbone_rounds,
        "{ctx}: backbone diverged"
    );
    assert_eq!(a.info.len(), b.info.len(), "{ctx}: record count diverged");
    for (x, (ia, ib)) in a.info.iter().zip(b.info.iter()).enumerate() {
        assert_eq!(ia.gpx, ib.gpx, "{ctx}: node {x} G'_x diverged");
        assert_eq!(
            ia.inherited, ib.inherited,
            "{ctx}: node {x} boundary diverged"
        );
        assert_eq!(ia.sep, ib.sep, "{ctx}: node {x} separator diverged");
        assert_eq!(ia.is_leaf, ib.is_leaf, "{ctx}: node {x} leaf flag diverged");
    }
}

/// Two runs in one process (distinct hasher states for every `HashMap`)
/// must agree bit for bit: decomposition output AND charged metrics.
#[test]
fn repeated_runs_bit_identical() {
    // ktree exercises the split/CCD paths; the denser partial k-tree at a
    // small t0 also drives the sampled-pair MVC fallback where hash-order
    // message ties are possible.
    let graphs = [
        twgraph::gen::ktree(150, 3, 4),
        twgraph::gen::partial_ktree(160, 3, 0.9, 7),
        twgraph::gen::grid(9, 9),
    ];
    for (gi, g) in graphs.iter().enumerate() {
        let (a, ma) = decompose_with(g, 2, 11);
        let (b, mb) = decompose_with(g, 2, 11);
        assert_outcomes_identical(&a, &b, &format!("graph {gi}"));
        assert_eq!(ma, mb, "graph {gi}: metrics diverged across repeated runs");
    }
}

/// Cross-component pairs decode to the infinite distance once labels live
/// in the global vertex-id space; within components the decode stays exact.
#[test]
fn multi_component_cross_pairs_decode_infinite() {
    let sc = corpus()
        .into_iter()
        .find(|sc| sc.name.starts_with("multi_component"))
        .expect("multi_component scenario registered");
    let g = sc.graph();
    let inst = sc.instance();
    let parts = split_components(&g, &inst);
    assert!(parts.len() >= 2, "scenario must be disconnected");

    // Per-component distributed labels, remapped into global vertex ids
    // (what a deployment stores at each node).
    let mut global_labels: Vec<distlabel::Label> =
        (0..g.n() as u32).map(distlabel::Label::new).collect();
    let mut comp_of = vec![usize::MAX; g.n()];
    for (ci, part) in parts.iter().enumerate() {
        for &v in &part.old_of {
            comp_of[v as usize] = ci;
        }
        if part.graph.n() == 1 {
            // Singleton: its label carries only itself at distance zero.
            let v = part.old_of[0];
            global_labels[v as usize].merge(v, 0, 0);
            continue;
        }
        let mut net = Network::new(part.graph.clone(), NetworkConfig::default());
        let cfg = treedec::SepConfig::practical(part.graph.n());
        let mut rng = SmallRng::seed_from_u64(sc.seed);
        let out = treedec::decompose_distributed(&mut net, sc.t0, &cfg, &mut rng).unwrap();
        let (labels, _) =
            distlabel::build_labels_distributed(&mut net, &part.inst, &out.td, &out.info).unwrap();
        for (local, la) in labels.iter().enumerate() {
            let owner = part.old_of[local];
            let gl = &mut global_labels[owner as usize];
            for &(target, to, from) in &la.entries {
                gl.merge(part.old_of[target as usize], to, from);
            }
        }
    }

    let mut cross_checked = 0usize;
    let mut within_checked = 0usize;
    for u in 0..g.n() {
        let oracle = lowtw::baselines::sssp_oracle(&inst, u as u32);
        for v in 0..g.n() {
            let got = distlabel::decode(&global_labels[u], &global_labels[v]);
            if comp_of[u] != comp_of[v] {
                assert_eq!(
                    got, INF,
                    "cross-component pair ({u}, {v}) decoded a finite distance"
                );
                cross_checked += 1;
            } else {
                assert_eq!(got, oracle[v], "within-component pair ({u}, {v}) diverged");
                within_checked += 1;
            }
        }
    }
    assert!(cross_checked > 0 && within_checked > 0);
}
