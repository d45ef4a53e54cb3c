//! Distributed label construction (paper §4.2, Theorem 2).
//!
//! The recursion levels run bottom-up; all tree nodes of one depth form a
//! near-disjoint collection {G_x | x ∈ A_ℓ} processed in shared supersteps.
//! Each tree node runs the same node step as the centralized build (see
//! `build.rs`), with `H_x` from the labels, so both builds produce the same
//! labels. Per level the algorithm pays one generalized part-wise broadcast
//! (Corollary 3), and this driver is the only code that builds its arcs:
//! a leaf's members ship their `G_x` arcs, an internal node's bag members
//! ship their finite pre-APSP `H_x` arcs (3 words per arc — the
//! Õ(τ⁴)-word payload that yields the τ⁵ term of Theorem 2). The numeric
//! label updates are node-local computation on broadcast data (free under
//! CONGEST).

use crate::build::{h_from_labels, leaf_arcs, node_step, order_bottom_up};
use crate::label::Label;
use congest_sim::{CongestError, Network};
use subgraph_ops::global::build_global_tree;
use subgraph_ops::{pa, Parts};
use treedec::decomp::NodeInfo;
use twgraph::tw::TreeDecomposition;
use twgraph::{Dist, MultiDigraph, INF};

/// Build the labeling on the simulator; returns the labels plus the rounds
/// charged for the construction (excluding the reused global backbone).
pub fn build_labels_distributed(
    net: &mut Network,
    inst: &MultiDigraph,
    td: &TreeDecomposition,
    info: &[NodeInfo],
) -> Result<(Vec<Label>, u64), CongestError> {
    let n = inst.n();
    assert_eq!(net.n(), n);
    let start = net.metrics().rounds;
    let gtree = build_global_tree(net)?;

    let depths = td.depths();
    let mut labels: Vec<Label> = (0..n as u32).map(Label::new).collect();

    // Group tree nodes by depth, deepest first.
    let order = order_bottom_up(td);
    let mut level_nodes: Vec<Vec<usize>> = Vec::new();
    for x in order {
        let d = depths[x];
        if level_nodes.len() <= d {
            level_nodes.resize(d + 1, Vec::new());
        }
        level_nodes[d].push(x);
    }

    for level in (0..level_nodes.len()).rev() {
        let nodes = &level_nodes[level];
        if nodes.is_empty() {
            continue;
        }
        // Run each tree node's step and keep, per slot, the arcs its
        // members broadcast `(src, dst, cost)`, sorted by source.
        let mut member_lists: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut slot_arcs: Vec<Vec<(u32, u32, Dist)>> = Vec::with_capacity(nodes.len());
        for (slot, &x) in nodes.iter().enumerate() {
            let (bag, ni) = (&td.bags[x], &info[x]);
            let mut arcs = Vec::new();
            if ni.is_leaf {
                arcs.extend(leaf_arcs(inst, bag, ni));
            }
            node_step(inst, bag, ni, &mut labels, |labels| {
                let h = h_from_labels(inst, bag, labels);
                let k = bag.len();
                for (i, &a) in bag.iter().enumerate() {
                    for (j, &b) in bag.iter().enumerate() {
                        if i != j && h[i * k + j] < INF {
                            arcs.push((a, b, h[i * k + j]));
                        }
                    }
                }
                h
            });
            for &v in &ni.gx() {
                member_lists[v as usize].push(slot as u32);
            }
            slot_arcs.push(arcs);
        }
        // Execute the level's broadcast: each contributing node ships its
        // arc run to every member of its part (BCT over Steiner trees).
        let parts = Parts::from_lists(nodes.len() as u32, member_lists)
            .expect("member lists name the level's slots");
        let roles = pa::steiner_roles(&gtree, &parts);
        pa::broadcast(net, &roles, |v, p| {
            let arcs = &slot_arcs[p as usize];
            let first = arcs.partition_point(|a| a.0 < v);
            arcs[first..]
                .iter()
                .take_while(|a| a.0 == v)
                .copied()
                .collect()
        })?;
        gtree.charge_control_pulse(net);
    }

    let rounds = net.metrics().rounds - start;
    net.snapshot("distlabel/build");
    Ok((labels, rounds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_labels_centralized;
    use crate::label::decode;
    use congest_sim::{Network, NetworkConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use treedec::{decompose_centralized, SepConfig};
    use twgraph::alg::apsp_dijkstra;
    use twgraph::gen::{banded_path, ktree, random_orientation, with_random_weights};

    #[test]
    fn distributed_matches_centralized_and_truth() {
        let g = banded_path(48, 2);
        let inst = with_random_weights(&g, 10, 3);
        let cfg = SepConfig::practical(48);
        let mut rng = SmallRng::seed_from_u64(5);
        let dec = decompose_centralized(&g, 3, &cfg, &mut rng).unwrap();
        let central = build_labels_centralized(&inst, &dec.td, &dec.info);

        let mut net = Network::new(g.clone(), NetworkConfig::default());
        let (dist_labels, rounds) =
            build_labels_distributed(&mut net, &inst, &dec.td, &dec.info).unwrap();
        assert_eq!(central, dist_labels);
        assert!(rounds > 0);

        let truth = apsp_dijkstra(&inst);
        for u in 0..g.n() {
            for v in 0..g.n() {
                assert_eq!(decode(&dist_labels[u], &dist_labels[v]), truth[u][v]);
            }
        }
    }

    #[test]
    fn rounds_grow_gently_with_n() {
        // Doubling n on a fixed-τ family should not blow rounds up by more
        // than ~the diameter growth factor (τ²D + τ⁵ with D = Θ(n/k)).
        let cfgs = [(64usize, 1u64), (128, 2)];
        let mut measured = Vec::new();
        for (n, seed) in cfgs {
            let g = banded_path(n, 2);
            let inst = with_random_weights(&g, 10, seed);
            let cfg = SepConfig::practical(n);
            let mut rng = SmallRng::seed_from_u64(seed);
            let dec = decompose_centralized(&g, 3, &cfg, &mut rng).unwrap();
            let mut net = Network::new(g.clone(), NetworkConfig::default());
            let (_, rounds) =
                build_labels_distributed(&mut net, &inst, &dec.td, &dec.info).unwrap();
            measured.push(rounds);
        }
        assert!(
            measured[1] < measured[0] * 8,
            "rounds exploded: {measured:?}"
        );
    }

    #[test]
    fn directed_instance_distributed() {
        let g = ktree(40, 2, 8);
        let inst = random_orientation(&g, 12, 0.3, 9);
        let cfg = SepConfig::practical(40);
        let mut rng = SmallRng::seed_from_u64(6);
        let dec = decompose_centralized(&g, 3, &cfg, &mut rng).unwrap();
        let mut net = Network::new(g.clone(), NetworkConfig::default());
        let (labels, _) = build_labels_distributed(&mut net, &inst, &dec.td, &dec.info).unwrap();
        let truth = apsp_dijkstra(&inst);
        for u in 0..g.n() {
            for v in 0..g.n() {
                assert_eq!(decode(&labels[u], &labels[v]), truth[u][v]);
            }
        }
    }
}
