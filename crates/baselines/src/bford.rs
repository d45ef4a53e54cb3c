//! Distributed Bellman–Ford: the classical exact SSSP taking Θ(n) rounds
//! in the worst case (each superstep relaxes one more hop).

use congest_sim::{CongestError, Network};
use twgraph::{dist_add, ArcId, Dist, MultiDigraph, INF};

#[derive(Clone)]
struct BfState {
    dist: Dist,
    fresh: bool,
}

/// Run until quiescence; returns `(dist, rounds_charged)`.
/// Each superstep a node whose distance improved sends, per outgoing arc
/// bundle to a neighbour, its current distance (1 word).
pub fn bellman_ford_distributed(
    net: &mut Network,
    inst: &MultiDigraph,
    src: u32,
) -> Result<(Vec<Dist>, u64), CongestError> {
    let n = inst.n();
    assert_eq!(net.n(), n);
    let start = net.metrics().rounds;
    // Per ordered neighbour pair, the cheapest arc weight (senders relax
    // locally before transmitting — standard).
    let mut best_out: Vec<Vec<(u32, Dist)>> = vec![Vec::new(); n];
    for v in 0..n as u32 {
        let mut outs: Vec<(u32, Dist)> = inst
            .out_arcs(v)
            .iter()
            .map(|&ai| {
                let a = inst.arc(ArcId(ai));
                (a.dst, a.weight)
            })
            .collect();
        outs.sort_unstable();
        outs.dedup_by(|a, b| {
            if a.0 == b.0 {
                b.1 = b.1.min(a.1);
                true
            } else {
                false
            }
        });
        best_out[v as usize] = outs;
    }
    let mut states = vec![
        BfState {
            dist: INF,
            fresh: false,
        };
        n
    ];
    states[src as usize] = BfState {
        dist: 0,
        fresh: true,
    };
    let best_out_ref = &best_out;
    net.run_until_quiet(
        &mut states,
        |u, s, out| {
            if s.fresh {
                out.extend(
                    best_out_ref[u as usize]
                        .iter()
                        .map(|&(v, w)| (v, dist_add(s.dist, w))),
                );
                s.fresh = false;
            }
            false
        },
        |_v, s, inbox| {
            for (_src, d) in inbox {
                if d < s.dist {
                    s.dist = d;
                    s.fresh = true;
                }
            }
            s.fresh
        },
        (n as u64 + 2) * (n as u64 + 2),
    )?;
    Ok((
        states.into_iter().map(|s| s.dist).collect(),
        net.metrics().rounds - start,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::NetworkConfig;
    use twgraph::alg::dijkstra;
    use twgraph::gen::{banded_path, with_random_weights};

    #[test]
    fn matches_dijkstra() {
        let g = banded_path(60, 3);
        let inst = with_random_weights(&g, 10, 3);
        let mut net = Network::new(g, NetworkConfig::default());
        let (dist, rounds) = bellman_ford_distributed(&mut net, &inst, 5).unwrap();
        assert_eq!(dist, dijkstra(&inst, 5).dist);
        assert!(rounds > 0);
    }

    #[test]
    fn rounds_scale_linearly_on_paths() {
        // On an n-path with increasing weights toward the source, the
        // relaxation wave takes Θ(n) supersteps.
        let g = twgraph::gen::path(100);
        let inst = with_random_weights(&g, 5, 1);
        let mut net = Network::new(g, NetworkConfig::default());
        let (_, rounds) = bellman_ford_distributed(&mut net, &inst, 0).unwrap();
        assert!(rounds >= 99, "rounds = {rounds}");
    }

    #[test]
    fn directed_unreachable() {
        let inst = MultiDigraph::from_arcs(3, vec![twgraph::Arc::new(0, 1, 4)]);
        let g = twgraph::UGraph::from_edges(3, [(0, 1), (1, 2)]);
        let mut net = Network::new(g, NetworkConfig::default());
        let (dist, _) = bellman_ford_distributed(&mut net, &inst, 0).unwrap();
        assert_eq!(dist, vec![0, 4, INF]);
    }
}
