//! CDL(C) — constrained distance labeling (paper §5.2, Theorem 3) and
//! constrained single-source shortest walks (Corollary 1).

use crate::constraint::{StateId, StatefulConstraint, NABLA};
use crate::product::{build_product, ProductGraph};
use congest_sim::{CongestError, Metrics, Network, NetworkConfig};
use distlabel::label::{decode, Label};
use distlabel::{build_labels_centralized, build_labels_distributed};
use treedec::decomp::NodeInfo;
use twgraph::alg::{dijkstra, ShortestPathTree};
use twgraph::tw::TreeDecomposition;
use twgraph::{ArcId, Dist, MultiDigraph, INF};

/// Lift a physical decomposition to the product: every bag/record vertex
/// `v` becomes its |Q| copies. Validity carries over because the copies of
/// a connected physical set stay connected through the ⊥ backbone, so the
/// {G'_x} structure is preserved (paper §5.2: the lifted decomposition has
/// width (w+1)·|Q| − 1).
pub fn lift_decomposition(
    td: &TreeDecomposition,
    info: &[NodeInfo],
    q: usize,
) -> (TreeDecomposition, Vec<NodeInfo>) {
    let lift = |vs: &[u32]| -> Vec<u32> {
        let mut out = Vec::with_capacity(vs.len() * q);
        for &v in vs {
            for i in 0..q as u32 {
                out.push(v * q as u32 + i);
            }
        }
        out.sort_unstable();
        out
    };
    let mut ltd = TreeDecomposition {
        bags: td.bags.iter().map(|b| lift(b)).collect(),
        parent: td.parent.clone(),
        children: td.children.clone(),
        root: td.root,
    };
    // push_bag sorts; mirror that invariant manually since we cloned.
    for bag in &mut ltd.bags {
        bag.sort_unstable();
    }
    let linfo = info
        .iter()
        .map(|ni| NodeInfo {
            gpx: lift(&ni.gpx),
            inherited: lift(&ni.inherited),
            sep: lift(&ni.sep),
            is_leaf: ni.is_leaf,
        })
        .collect();
    (ltd, linfo)
}

/// A constructed constrained distance labeling.
pub struct CdlLabeling {
    /// The product graph the labels live on.
    pub product: ProductGraph,
    /// One label per product vertex.
    pub labels: Vec<Label>,
}

impl CdlLabeling {
    /// Centralized construction (the oracle).
    pub fn build_centralized(
        inst: &MultiDigraph,
        c: &impl StatefulConstraint,
        td: &TreeDecomposition,
        info: &[NodeInfo],
    ) -> Self {
        let product = build_product(inst, c);
        let (ltd, linfo) = lift_decomposition(td, info, product.q);
        let labels = build_labels_centralized(&product.graph, &ltd, &linfo);
        CdlLabeling { product, labels }
    }

    /// Distributed construction: the product's communication graph runs as
    /// a virtual network whose traffic is charged onto physical edges
    /// through the host projection — the §5.2 simulation, measured.
    /// Returns the labeling and the metrics of the virtual execution.
    pub fn build_distributed(
        inst: &MultiDigraph,
        c: &impl StatefulConstraint,
        td: &TreeDecomposition,
        info: &[NodeInfo],
        cfg: NetworkConfig,
    ) -> Result<(Self, Metrics), CongestError> {
        let product = build_product(inst, c);
        let (ltd, linfo) = lift_decomposition(td, info, product.q);
        let virt = product.graph.comm_graph();
        let phys = inst.comm_graph();
        let q = product.q as u32;
        let mut vnet = Network::with_hosts(virt, &phys, |pv| pv / q, cfg)?;
        let (labels, _rounds) = build_labels_distributed(&mut vnet, &product.graph, &ltd, &linfo)?;
        Ok((CdlLabeling { product, labels }, *vnet.metrics()))
    }

    /// The decoder `sdec(q, sla(u), sla(v))`: shortest C(q)-walk weight
    /// from `u` to `v` — evaluated as `dec(la((u,▽)), la((v,q)))`.
    pub fn dist(&self, u: u32, v: u32, q_target: StateId) -> Dist {
        let lu = &self.labels[self.product.vertex(u, NABLA) as usize];
        let lv = &self.labels[self.product.vertex(v, q_target) as usize];
        decode(lu, lv)
    }

    /// Total label size in words for physical vertex `v` (all its copies —
    /// what node `v` stores).
    pub fn words_at(&self, v: u32) -> usize {
        (0..self.product.q as u32)
            .map(|i| self.labels[(v * self.product.q as u32 + i) as usize].words())
            .sum()
    }
}

/// Constrained single-source shortest walks from `(s, ▽)` with walk
/// extraction (Corollary 1). Runs Dijkstra on the product (free local
/// computation once the product is known; the distributed variants pay for
/// their data movement in the callers that use this, e.g. matching charges
/// the CDL cost).
pub struct ConstrainedSssp {
    /// The product searched.
    pub product: ProductGraph,
    /// Shortest-path tree from `(source, ▽)`.
    pub spt: ShortestPathTree,
    /// The physical source.
    pub source: u32,
}

impl ConstrainedSssp {
    /// Run from `s`.
    pub fn run(inst: &MultiDigraph, c: &impl StatefulConstraint, s: u32) -> Self {
        let product = build_product(inst, c);
        let spt = dijkstra(&product.graph, product.vertex(s, NABLA));
        ConstrainedSssp {
            product,
            spt,
            source: s,
        }
    }

    /// Shortest C(q)-walk weight from the source to `t`.
    pub fn dist(&self, t: u32, q: StateId) -> Dist {
        self.spt.dist[self.product.vertex(t, q) as usize]
    }

    /// The physical arc sequence of a shortest C(q)-walk to `t`, if any.
    pub fn walk_to(&self, t: u32, q: StateId) -> Option<Vec<ArcId>> {
        if self.dist(t, q) >= INF {
            return None;
        }
        let path = self
            .spt
            .path_to(&self.product.graph, self.product.vertex(t, q))?;
        Some(
            path.into_iter()
                .filter_map(|pa| {
                    let o = self.product.origin[pa.idx()];
                    (o != u32::MAX).then_some(ArcId(o))
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{ColoredWalk, CountWalk};
    use crate::product::brute_force_constrained_dist;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use treedec::{decompose_centralized, SepConfig};
    use twgraph::gen::banded_path;
    use twgraph::{Arc, UEdgeId};

    /// A banded-path instance with random colors on undirected edges.
    fn colored_instance(n: usize, colors: u32, seed: u64) -> MultiDigraph {
        let g = banded_path(n, 2);
        let mut rng = SmallRng::seed_from_u64(seed);
        MultiDigraph::from_undirected_labeled(
            n,
            g.edges()
                .map(|(u, v)| (u, v, rng.gen_range(1..8), rng.gen_range(0..colors))),
        )
    }

    fn decomposition_of(inst: &MultiDigraph, seed: u64) -> (TreeDecomposition, Vec<NodeInfo>) {
        let g = inst.comm_graph();
        let cfg = SepConfig::practical(g.n());
        let mut rng = SmallRng::seed_from_u64(seed);
        let dec = decompose_centralized(&g, 3, &cfg, &mut rng).unwrap();
        (dec.td, dec.info)
    }

    #[test]
    fn lifted_decomposition_is_valid() {
        let inst = colored_instance(40, 3, 1);
        let (td, info) = decomposition_of(&inst, 2);
        let c = ColoredWalk { colors: 3 };
        let product = build_product(&inst, &c);
        let (ltd, _) = lift_decomposition(&td, &info, product.q);
        ltd.verify(&product.graph.comm_graph())
            .unwrap_or_else(|e| panic!("lifted decomposition invalid: {e}"));
    }

    #[test]
    fn cdl_matches_product_dijkstra() {
        let inst = colored_instance(36, 3, 3);
        let (td, info) = decomposition_of(&inst, 4);
        let c = ColoredWalk { colors: 3 };
        let cdl = CdlLabeling::build_centralized(&inst, &c, &td, &info);
        for s in (0..36u32).step_by(7) {
            let sssp = ConstrainedSssp::run(&inst, &c, s);
            for t in 0..36u32 {
                for q in 2..c.n_states() as StateId {
                    assert_eq!(cdl.dist(s, t, q), sssp.dist(t, q), "{s}→{t} state {q}");
                }
            }
        }
    }

    #[test]
    fn distributed_cdl_matches_centralized() {
        let inst = colored_instance(24, 2, 5);
        let (td, info) = decomposition_of(&inst, 6);
        let c = ColoredWalk { colors: 2 };
        let central = CdlLabeling::build_centralized(&inst, &c, &td, &info);
        let (dist, metrics) =
            CdlLabeling::build_distributed(&inst, &c, &td, &info, NetworkConfig::default())
                .unwrap();
        assert_eq!(central.labels, dist.labels);
        assert!(metrics.rounds > 0);
    }

    #[test]
    fn count_walk_self_distance_uses_cycles() {
        // Exact count-1 closed walks (the girth machinery, Lemma 6):
        // compare against the brute-force oracle on a small instance.
        let inst = {
            // A 6-cycle with one marked edge.
            let arcs: Vec<(u32, u32, u64, u32)> = (0..6u32)
                .map(|i| (i, (i + 1) % 6, 1, u32::from(i == 2)))
                .collect();
            MultiDigraph::from_undirected_labeled(6, arcs)
        };
        let c = CountWalk { c: 1 };
        for v in 0..6u32 {
            let sssp = ConstrainedSssp::run(&inst, &c, v);
            let got = sssp.dist(v, c.count_state(1));
            let brute = brute_force_constrained_dist(&inst, &c, v, v, c.count_state(1), 14);
            assert_eq!(got, brute, "closed exact-count-1 walk at {v}");
            // The shortest such closed walk is the 6-cycle itself.
            assert_eq!(got, 6, "vertex {v}");
        }
    }

    #[test]
    fn walk_extraction_is_consistent() {
        let inst = colored_instance(30, 3, 7);
        let c = ColoredWalk { colors: 3 };
        let sssp = ConstrainedSssp::run(&inst, &c, 0);
        for t in 1..30u32 {
            for q in 2..c.n_states() as StateId {
                let d = sssp.dist(t, q);
                match sssp.walk_to(t, q) {
                    Some(walk) => {
                        // Weight matches, endpoints match, constraint holds,
                        // final state matches.
                        let total: u64 = walk.iter().map(|&a| inst.arc(a).weight).sum();
                        assert_eq!(total, d);
                        assert_eq!(inst.arc(walk[0]).src, 0);
                        assert_eq!(inst.arc(*walk.last().unwrap()).dst, t);
                        let arcs: Vec<Arc> = walk.iter().map(|&a| *inst.arc(a)).collect();
                        assert_eq!(c.walk_state(&arcs), q);
                        // Consecutive arcs share endpoints (a real walk).
                        for w in walk.windows(2) {
                            assert_eq!(inst.arc(w[0]).dst, inst.arc(w[1]).src);
                        }
                    }
                    None => assert_eq!(d, INF),
                }
            }
        }
    }

    #[test]
    fn virtual_rounds_scale_with_q() {
        // Bigger |Q| ⇒ more virtual traffic per physical edge ⇒ more
        // rounds (Theorem 3's |Q| dependence, measured).
        let inst = {
            let g = banded_path(24, 2);
            let mut rng = SmallRng::seed_from_u64(8);
            MultiDigraph::from_undirected_labeled(
                24,
                g.edges().map(|(u, v)| (u, v, 1, rng.gen_range(0..2))),
            )
        };
        let (td, info) = decomposition_of(&inst, 9);
        let rounds = |cmax: u32| {
            let c = CountWalk { c: cmax };
            CdlLabeling::build_distributed(&inst, &c, &td, &info, NetworkConfig::default())
                .unwrap()
                .1
                .rounds
        };
        let r1 = rounds(1);
        let r4 = rounds(4);
        assert!(r4 > r1, "rounds must grow with |Q|: {r1} vs {r4}");
    }

    #[test]
    fn unused_uedge_marker() {
        let _ = UEdgeId::NONE;
    }
}
