//! Directed weighted girth from a distance labeling (paper §7, first
//! paragraph): exchange labels across every edge, decode the back
//! distance locally, aggregate the global min.

use congest_sim::{CongestError, Network};
use distlabel::label::{decode, Label};
use subgraph_ops::global::build_global_tree;
use subgraph_ops::{pa, Parts};
use twgraph::{dist_add, Dist, MultiDigraph, INF};

/// Centralized evaluation given the labels (decoder calls only).
pub fn girth_directed_from_labels(inst: &MultiDigraph, labels: &[Label]) -> Dist {
    let mut best = INF;
    for a in inst.arcs() {
        if a.src == a.dst {
            best = best.min(a.weight);
            continue;
        }
        let back = decode(&labels[a.dst as usize], &labels[a.src as usize]);
        best = best.min(dist_add(a.weight, back));
    }
    best
}

/// Distributed evaluation: every node ships its label to each neighbour
/// (one superstep whose cost is the label size — the Õ(τ²·log n)-word
/// payload), decodes the shortest cycle through each incident arc, then a
/// global min aggregation over the BFS backbone. Returns `(girth, rounds)`.
pub fn girth_directed_distributed(
    net: &mut Network,
    inst: &MultiDigraph,
    labels: &[Label],
) -> Result<(Dist, u64), CongestError> {
    let n = inst.n();
    assert_eq!(net.n(), n);
    let start = net.metrics().rounds;
    let g = net.graph_handle();

    // One SNC carrying whole labels: per neighbour the (target, to, from)
    // entries — 3 words each.
    let labels_ref = labels;
    let all: Vec<u32> = (0..n as u32).collect();
    let mut got: Vec<Vec<(u32, Label)>> = vec![Vec::new(); n];
    net.superstep_on(
        &all,
        &mut got,
        |u, _s| {
            let entries: Vec<(u32, Dist, Dist)> = labels_ref[u as usize].entries.clone();
            g.neighbors(u)
                .iter()
                .map(|&v| (v, entries.clone()))
                .collect()
        },
        |v, s, inbox| {
            for (src, entries) in inbox {
                let mut la = Label::new(src);
                for (t, to, from) in entries {
                    la.merge(t, to, from);
                }
                s.push((v, la));
            }
        },
    )?;
    // Local: best cycle through arcs leaving each node.
    let mut local_best = vec![INF; n];
    for a in inst.arcs() {
        if a.src == a.dst {
            local_best[a.src as usize] = local_best[a.src as usize].min(a.weight);
            continue;
        }
        // Node `src` received dst's label.
        if let Some((_, la_dst)) = got[a.src as usize]
            .iter()
            .find(|(owner, la)| *owner == a.src && la.owner == a.dst)
        {
            let back = decode(la_dst, &labels[a.src as usize]);
            local_best[a.src as usize] = local_best[a.src as usize].min(dist_add(a.weight, back));
        }
    }
    // Global min over the backbone.
    let gtree = build_global_tree(net)?;
    let parts = Parts::from_labels(&vec![Some(0u32); n]);
    let roles = pa::steiner_roles(&gtree, &parts);
    let up = pa::aggregate(net, &roles, |v, _p| Some(local_best[v as usize]), Dist::min)?;
    let girth = up.roots.first().map_or(INF, |&(_, d)| d);
    let rounds = net.metrics().rounds - start;
    net.snapshot("girth/directed");
    Ok((girth, rounds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::girth_directed_centralized;
    use congest_sim::NetworkConfig;
    use distlabel::build_labels_centralized;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use treedec::{decompose_centralized, SepConfig};
    use twgraph::gen::{banded_path, ktree, random_orientation};

    fn labels_for(inst: &MultiDigraph, seed: u64) -> Vec<Label> {
        let g = inst.comm_graph();
        let cfg = SepConfig::practical(g.n());
        let mut rng = SmallRng::seed_from_u64(seed);
        let dec = decompose_centralized(&g, 3, &cfg, &mut rng).unwrap();
        build_labels_centralized(inst, &dec.td, &dec.info)
    }

    #[test]
    fn matches_oracle_on_random_orientations() {
        for seed in 0..4 {
            let g = banded_path(40, 2);
            let inst = random_orientation(&g, 9, 0.5, seed);
            let labels = labels_for(&inst, seed + 100);
            let got = girth_directed_from_labels(&inst, &labels);
            let want = girth_directed_centralized(&inst);
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn distributed_agrees_and_charges() {
        let g = ktree(36, 2, 5);
        let inst = random_orientation(&g, 7, 0.6, 3);
        let labels = labels_for(&inst, 9);
        let want = girth_directed_centralized(&inst);
        let mut net = Network::new(g, NetworkConfig::default());
        let (got, rounds) = girth_directed_distributed(&mut net, &inst, &labels).unwrap();
        assert_eq!(got, want);
        assert!(rounds > 0);
    }

    #[test]
    fn acyclic_reports_inf() {
        // Orient a path strictly forward: no directed cycle.
        let arcs: Vec<twgraph::Arc> = (0..19u32).map(|i| twgraph::Arc::new(i, i + 1, 1)).collect();
        let inst = MultiDigraph::from_arcs(20, arcs);
        let labels = labels_for(&inst, 11);
        assert_eq!(girth_directed_from_labels(&inst, &labels), INF);
    }
}
