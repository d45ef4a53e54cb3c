//! Metamorphic invariants of the scenario harness.
//!
//! Two transformation families, each with a provable relation between the
//! original and transformed runs:
//!
//! 1. **Uniform weight scaling** — multiplying every edge weight by λ
//!    multiplies every finite SSSP distance by λ, preserves unreachability,
//!    and (because message *counts* and scheduling depend only on the
//!    instance's structure, which scaling preserves, including distance
//!    ties) leaves the engine's charged metrics **bit-for-bit identical**.
//! 2. **Random vertex relabeling** — all outputs are π-equivariant:
//!    distances map through π, decode tables commute with π, girth and
//!    matching size are isomorphism-invariant. Charged *metrics* are
//!    deliberately **not** asserted here: the protocols schedule per-node
//!    gathers in vertex-id order, so supersteps legitimately differ
//!    between isomorphic executions (verified and documented by
//!    `relabeling_changes_schedule_but_not_outputs`).
//!
//! The portfolio pipelines get the same treatment: counting cells are
//! weight-model invariant (the counts live on the communication graph),
//! and FO verdicts are relabeling-invariant (closed sentences are
//! isomorphism-invariant).

use congest_sim::{Metrics, Network, NetworkConfig};
use lowtw::{baselines, bmatch, distlabel, girth, treedec, twgraph};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use scenarios::{corpus, CountingPipeline, Pipeline, WeightModel};
use twgraph::{MultiDigraph, UGraph, INF};

/// Full distributed pipeline (decompose → label → query from 0) on one
/// connected graph; returns the distances and the net's final metrics.
fn sssp_pipeline(g: &UGraph, inst: &MultiDigraph, t0: u64) -> (Vec<u64>, Metrics) {
    let cfg = treedec::SepConfig::practical(g.n());
    let mut rng = SmallRng::seed_from_u64(7);
    let mut net = Network::new(g.clone(), NetworkConfig::default());
    let out = treedec::decompose_distributed(&mut net, t0, &cfg, &mut rng).unwrap();
    let (labels, _) =
        distlabel::build_labels_distributed(&mut net, inst, &out.td, &out.info).unwrap();
    let (d, _) = distlabel::sssp_distributed(&mut net, &labels, 0).unwrap();
    (d, *net.metrics())
}

/// Connected corpus scenarios the metamorphic runs iterate over (the
/// disconnected mix is exercised by `scenario_matrix`; here each relation
/// needs one decomposition per graph).
fn connected_corpus() -> Vec<(&'static str, UGraph, MultiDigraph, u64)> {
    corpus()
        .into_iter()
        .filter(|sc| {
            matches!(
                sc.family.tag(),
                "series_parallel" | "cactus" | "halin" | "ring_of_cliques"
            )
        })
        .map(|sc| (sc.name, sc.graph(), sc.instance(), sc.t0))
        .collect()
}

#[test]
fn weight_scaling_scales_distances_and_preserves_metrics() {
    for (name, g, inst, t0) in connected_corpus() {
        let (d1, m1) = sssp_pipeline(&g, &inst, t0);
        for lambda in [7u64, 13] {
            let mut scaled = inst.clone();
            for a in scaled.arcs_mut() {
                a.weight *= lambda;
            }
            let (d2, m2) = sssp_pipeline(&g, &scaled, t0);
            for v in 0..g.n() {
                if d1[v] >= INF {
                    assert!(d2[v] >= INF, "{name}: v={v} became reachable under scaling");
                } else {
                    assert_eq!(d2[v], lambda * d1[v], "{name}: λ={lambda}, v={v}");
                }
            }
            assert_eq!(
                m1, m2,
                "{name}: uniform ×{lambda} weight scaling changed charged metrics"
            );
        }
    }
}

#[test]
fn relabeling_changes_schedule_but_not_outputs() {
    for (name, g, inst, t0) in connected_corpus() {
        let cfg = treedec::SepConfig::practical(g.n());
        let mut rng = SmallRng::seed_from_u64(11);
        let out = treedec::decompose_centralized(&g, t0, &cfg, &mut rng).unwrap();

        let mut perm: Vec<u32> = (0..g.n() as u32).collect();
        perm.shuffle(&mut SmallRng::seed_from_u64(0xA11CE));
        let g2 = g.relabeled(&perm);
        let inst2 = inst.relabeled(&perm);
        let td2 = out.td.relabeled(&perm);
        let info2: Vec<_> = out.info.iter().map(|ni| ni.relabeled(&perm)).collect();
        td2.verify(&g2)
            .unwrap_or_else(|e| panic!("{name}: relabeled decomposition invalid: {e}"));
        assert_eq!(
            td2.width(),
            out.td.width(),
            "{name}: relabeling changed the width"
        );

        // Labels built on both sides: the decode table must commute with π.
        let l1 = distlabel::build_labels_centralized(&inst, &out.td, &out.info);
        let l2 = distlabel::build_labels_centralized(&inst2, &td2, &info2);
        for u in 0..g.n() {
            for v in 0..g.n() {
                assert_eq!(
                    distlabel::decode(&l1[u], &l1[v]),
                    distlabel::decode(&l2[perm[u] as usize], &l2[perm[v] as usize]),
                    "{name}: decode({u}, {v}) not π-equivariant"
                );
            }
        }

        // Girth is isomorphism-invariant — oracle and pipeline agree
        // across the relabeling.
        let want = baselines::girth_exact_centralized(&inst);
        assert_eq!(
            baselines::girth_exact_centralized(&inst2),
            want,
            "{name}: oracle girth not relabeling-invariant"
        );
        let gcfg = girth::GirthConfig {
            trials_per_c: 2 + g.n().max(2).ilog2() as usize,
            seed: 23,
            measure_distributed: false,
        };
        let run2 = girth::girth_undirected(&inst2, &td2, &info2, &gcfg).unwrap();
        assert_eq!(
            run2.girth, want,
            "{name}: pipeline girth diverged after relabeling"
        );
    }
}

#[test]
fn matching_size_is_relabeling_invariant() {
    // Bipartite workload: relabel within the banded bipartite family.
    let (g, side) = twgraph::gen::bipartite_banded(18, 18, 2, 0.5, 6);
    let inst = twgraph::gen::BipartiteInstance::new(g.clone(), side.clone());
    let cfg = treedec::SepConfig::practical(g.n());
    let mut rng = SmallRng::seed_from_u64(3);
    let out = treedec::decompose_centralized(&g, 3, &cfg, &mut rng).unwrap();
    let want = bmatch::max_matching(&inst, &out.td, &out.info, bmatch::MatchMode::Centralized)
        .unwrap()
        .size();
    assert_eq!(want, baselines::matching_oracle(&g, &side));

    let mut perm: Vec<u32> = (0..g.n() as u32).collect();
    perm.shuffle(&mut SmallRng::seed_from_u64(0xBEE));
    let g2 = g.relabeled(&perm);
    let mut side2 = vec![false; side.len()];
    for (v, &s) in side.iter().enumerate() {
        side2[perm[v] as usize] = s;
    }
    let inst2 = twgraph::gen::BipartiteInstance::new(g2.clone(), side2.clone());
    let td2 = out.td.relabeled(&perm);
    let info2: Vec<_> = out.info.iter().map(|ni| ni.relabeled(&perm)).collect();
    let got = bmatch::max_matching(&inst2, &td2, &info2, bmatch::MatchMode::Centralized)
        .unwrap()
        .size();
    assert_eq!(got, want, "matching size not relabeling-invariant");
    assert_eq!(baselines::matching_oracle(&g2, &side2), want);
}

/// Subgraph counts are a property of the *communication graph* alone: the
/// weighted instance never enters the counting pipeline, so swapping the
/// corpus weight model (holding family + seed fixed, which pins the graph)
/// must reproduce the entire cell bit-for-bit — counts, checksum, and
/// charged metrics.
#[test]
fn counting_cell_is_weight_model_invariant() {
    let p = CountingPipeline;
    for sc in corpus() {
        if !matches!(
            sc.family.tag(),
            "series_parallel" | "cactus" | "ring_of_cliques" | "multi_component"
        ) {
            continue;
        }
        let rep1 = p.run(&sc).unwrap();
        for weights in [
            WeightModel::Unit,
            WeightModel::HeavyTailed {
                wmax: 1 << 20,
                alpha: 1.5,
            },
        ] {
            let sc2 = scenarios::Scenario {
                weights,
                ..sc.clone()
            };
            let rep2 = p.run(&sc2).unwrap();
            assert_eq!(
                rep2.output, rep1.output,
                "{}: counting checksum depends on the weight model",
                sc.name
            );
            assert_eq!(rep2.detail, rep1.detail, "{}", sc.name);
            assert_eq!(
                rep2.metrics, rep1.metrics,
                "{}: counting charged metrics depend on the weight model",
                sc.name
            );
        }
    }
}

/// Closed FO sentences are isomorphism-invariant: relabeling the graph by
/// a random permutation must leave every seeded sentence's verdict — and
/// the multiset of pairwise distances behind the `dist` atoms — unchanged.
#[test]
fn fo_verdicts_are_relabeling_invariant() {
    for (name, g, _inst, _t0) in connected_corpus() {
        let sentences = twgraph::fo::seeded_sentences(6, 2, 42);
        let mut perm: Vec<u32> = (0..g.n() as u32).collect();
        perm.shuffle(&mut SmallRng::seed_from_u64(0xF0));
        let g2 = g.relabeled(&perm);
        for (i, f) in sentences.iter().enumerate() {
            assert_eq!(
                baselines::fo_oracle(&g, f),
                baselines::fo_oracle(&g2, f),
                "{name}: sentence {i} «{f}» verdict not relabeling-invariant"
            );
        }
        // The atom substrate commutes with π too: d(u, v) = d(π u, π v).
        for u in 0..g.n() as u32 {
            let d1 = twgraph::alg::bfs_dist(&g, u);
            let d2 = twgraph::alg::bfs_dist(&g2, perm[u as usize]);
            for v in 0..g.n() {
                assert_eq!(
                    d1[v], d2[perm[v] as usize],
                    "{name}: bfs_dist({u}, {v}) not π-equivariant"
                );
            }
        }
    }
}
