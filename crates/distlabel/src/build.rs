//! The §4.2 node step, shared by every label build.
//!
//! Labels are built bottom-up over the tree decomposition, one
//! `node_step` per tree node, on flat row-major `k × k` matrices. A leaf
//! gathers its whole `G_x` (its bag is `V(G_x)`) and solves APSP locally.
//! An internal node runs APSP on the pre-APSP auxiliary matrix `H_x` over
//! its bag (Lemma 3) and then refreshes every member of `G_x` through it
//! (Lemma 4, `refresh`). The builders differ only in where `H_x`'s
//! child-level costs come from:
//!
//! - `h_from_labels` reads them from the labels built so far. It serves
//!   [`build_labels_centralized`] and the distributed build (`dist.rs`),
//!   which alone turns each step's inputs into broadcast arcs.
//! - `incremental`'s `h_from_memos` reads them from graph-determined child
//!   memos. It serves the update path, whose gate compares such matrices
//!   across builds.
//!
//! Both sources decode exactly but give different labels: labels can
//! hold cross-branch values below `d_{G_x}`, memos cannot.
//!
//! ## Maintained invariant (see lib.rs)
//!
//! After processing tree node `x`, every `u ∈ V(G_x)` holds, for every
//! `s ∈ B_x`, the exact `d_{G_x}(u, s)` and `d_{G_x}(s, u)` (Lemmas 3–4).
//! Entries for deeper bags keep their child-level values; since
//! `G_{x•i} ⊆ G_x ⊆ G`, every stored entry is a realizable walk length
//! (never an underestimate), and the decoder's minimum over all common
//! ancestor-bag vertices recovers exact distances: for the shallowest tree
//! node `w` whose `G_w` contains a shortest `u→v` path `P`, `P` must touch
//! `B_w` (else a deeper node would contain it), and both endpoints hold
//! exact `d_{G_w}` entries for the first/last `B_w`-vertex on `P`.

use crate::label::Label;
use treedec::decomp::NodeInfo;
use twgraph::tw::TreeDecomposition;
use twgraph::{dist_add, ArcId, Dist, MultiDigraph, INF};

/// Direct-arc cost table lookup: cheapest arc `a → b` in the instance.
fn direct_cost(inst: &MultiDigraph, a: u32, b: u32) -> Dist {
    let mut best = INF;
    for &ai in inst.out_arcs(a) {
        let arc = inst.arc(ArcId(ai));
        if arc.dst == b {
            best = best.min(arc.weight);
        }
    }
    best
}

/// The direct-arc part of `H_x` over `bag`: 0 on the diagonal, the
/// cheapest arc elsewhere.
pub(crate) fn direct_matrix(inst: &MultiDigraph, bag: &[u32]) -> Vec<Dist> {
    bag.iter()
        .enumerate()
        .flat_map(|(i, &a)| {
            bag.iter()
                .enumerate()
                .map(move |(j, &b)| if i == j { 0 } else { direct_cost(inst, a, b) })
        })
        .collect()
}

/// Pre-APSP `H_x` over `bag` with child-level costs from the labels built
/// so far: `min(direct arc, d_label(a → b))`.
pub(crate) fn h_from_labels(inst: &MultiDigraph, bag: &[u32], labels: &[Label]) -> Vec<Dist> {
    let k = bag.len();
    let mut h = direct_matrix(inst, bag);
    for (i, &a) in bag.iter().enumerate() {
        for (j, &b) in bag.iter().enumerate() {
            if i == j {
                continue;
            }
            if let Some(via_child) = labels[a as usize].to(b) {
                h[i * k + j] = h[i * k + j].min(via_child);
            }
        }
    }
    h
}

/// In-place Floyd–Warshall on a flat row-major `k × k` matrix.
pub(crate) fn apsp(d: &mut [Dist], k: usize) {
    for m in 0..k {
        for i in 0..k {
            let dim = d[i * k + m];
            if dim >= INF {
                continue;
            }
            for j in 0..k {
                let cand = dist_add(dim, d[m * k + j]);
                if cand < d[i * k + j] {
                    d[i * k + j] = cand;
                }
            }
        }
    }
}

/// The arcs of a leaf's `G_x` over its bag `V(G_x)`, in (source, out-arc)
/// order: both ends in the bag, not both in the inherited boundary (`G_x`
/// carries no edges inside it — see `treedec::decomp`).
pub(crate) fn leaf_arcs<'a>(
    inst: &'a MultiDigraph,
    bag: &'a [u32],
    ni: &'a NodeInfo,
) -> impl Iterator<Item = (u32, u32, Dist)> + 'a {
    let inherited = move |v: u32| ni.inherited.binary_search(&v).is_ok();
    bag.iter()
        .flat_map(move |&v| inst.out_arcs(v).iter().map(move |&ai| inst.arc(ArcId(ai))))
        .filter(move |a| {
            bag.binary_search(&a.dst).is_ok() && !(inherited(a.src) && inherited(a.dst))
        })
        .map(|a| (a.src, a.dst, a.weight))
}

/// Lemma-4 refresh of `members` through the post-APSP `d_{H_x}` matrix `h`
/// over `bag`: for every member `u` and every `s ∈ B_x`,
///   `d_{G_x}(u,s) = min_{s'} d_child(u,s') + d_{H_x}(s',s)`,
///   `d_{G_x}(s,u) = min_{s'} d_{H_x}(s,s') + d_child(s',u)`,
/// with `s'` ranging over the bag vertices `u` already has entries for
/// (including `u` itself at distance 0 when `u ∈ B_x`).
pub(crate) fn refresh(labels: &mut [Label], bag: &[u32], h: &[Dist], members: &[u32]) {
    let k = bag.len();
    assert_eq!(h.len(), k * k, "d_H must be a |B_x| × |B_x| matrix");
    let bidx = |v: u32| bag.binary_search(&v).ok();
    for &u in members {
        // Bridges: (bag index of s', d_child(u→s'), d_child(s'→u)).
        let mut bridges: Vec<(usize, Dist, Dist)> = Vec::new();
        if let Some(iu) = bidx(u) {
            bridges.push((iu, 0, 0));
        }
        for &(s, to, from) in &labels[u as usize].entries {
            if let Some(is) = bidx(s) {
                if s != u {
                    bridges.push((is, to, from));
                }
            }
        }
        for (j, &s) in bag.iter().enumerate() {
            let mut best_to = INF;
            let mut best_from = INF;
            for &(is, to, from) in &bridges {
                best_to = best_to.min(dist_add(to, h[is * k + j]));
                best_from = best_from.min(dist_add(h[j * k + is], from));
            }
            if best_to < INF || best_from < INF {
                labels[u as usize].merge(s, best_to, best_from);
            }
        }
    }
}

/// One §4.2 step at a tree node with bag `bag` and record `ni`, its
/// children already processed. A leaf solves its whole `G_x` and records
/// every pair (step 1). An internal node runs APSP on the pre-APSP `H_x`
/// that `pre_h` returns — it sees the labels as they stand — (steps 2–3,
/// Lemma 3) and refreshes every member of `V(G_x)` (step 4, Lemma 4).
/// Returns the post-APSP matrix over `bag`: `d_{G_x}` at a leaf, `d_{H_x}`
/// otherwise.
pub(crate) fn node_step(
    inst: &MultiDigraph,
    bag: &[u32],
    ni: &NodeInfo,
    labels: &mut [Label],
    pre_h: impl FnOnce(&[Label]) -> Vec<Dist>,
) -> Vec<Dist> {
    let k = bag.len();
    if !ni.is_leaf {
        let mut h = pre_h(labels);
        apsp(&mut h, k);
        refresh(labels, bag, &h, &ni.gx());
        return h;
    }
    let local = |v: u32| bag.binary_search(&v).expect("leaf arcs stay in the bag");
    let mut d = vec![INF; k * k];
    for i in 0..k {
        d[i * k + i] = 0;
    }
    for (a, b, w) in leaf_arcs(inst, bag, ni) {
        let at = local(a) * k + local(b);
        d[at] = d[at].min(w);
    }
    apsp(&mut d, k);
    for (i, &u) in bag.iter().enumerate() {
        for (j, &s) in bag.iter().enumerate() {
            labels[u as usize].merge(s, d[i * k + j], d[j * k + i]);
        }
    }
    d
}

/// Build the full labeling centrally: process tree nodes children-first,
/// with `H_x` from the labels.
pub fn build_labels_centralized(
    inst: &MultiDigraph,
    td: &TreeDecomposition,
    info: &[NodeInfo],
) -> Vec<Label> {
    let mut labels: Vec<Label> = (0..inst.n() as u32).map(Label::new).collect();
    for x in order_bottom_up(td) {
        let bag = &td.bags[x];
        node_step(inst, bag, &info[x], &mut labels, |labels| {
            h_from_labels(inst, bag, labels)
        });
    }
    labels
}

/// Tree nodes ordered children-before-parents.
pub fn order_bottom_up(td: &TreeDecomposition) -> Vec<usize> {
    let depths = td.depths();
    let mut order: Vec<usize> = (0..td.bags.len()).collect();
    order.sort_by_key(|&x| std::cmp::Reverse(depths[x]));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{decode, Label};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use treedec::{decompose_centralized, SepConfig};
    use twgraph::alg::apsp_dijkstra;
    use twgraph::gen::{banded_path, cycle, grid, ktree, random_orientation, with_random_weights};
    use twgraph::UGraph;

    fn labels_of(g: &UGraph, inst: &MultiDigraph, seed: u64) -> Vec<Label> {
        let cfg = SepConfig::practical(g.n());
        let mut rng = SmallRng::seed_from_u64(seed);
        let dec = decompose_centralized(g, 3, &cfg, &mut rng).unwrap();
        dec.td.verify(g).unwrap();
        build_labels_centralized(inst, &dec.td, &dec.info)
    }

    fn assert_exact(g: &UGraph, inst: &MultiDigraph, seed: u64) -> Vec<Label> {
        let labels = labels_of(g, inst, seed);
        let truth = apsp_dijkstra(inst);
        for u in 0..g.n() {
            for v in 0..g.n() {
                let got = decode(&labels[u], &labels[v]);
                assert_eq!(
                    got, truth[u][v],
                    "decode({u},{v}) = {got}, dijkstra = {}",
                    truth[u][v]
                );
            }
        }
        labels
    }

    #[test]
    fn undirected_weighted_banded_path() {
        let g = banded_path(60, 2);
        let inst = with_random_weights(&g, 20, 7);
        assert_exact(&g, &inst, 1);
    }

    #[test]
    fn directed_weighted_ktree() {
        let g = ktree(50, 3, 9);
        let inst = random_orientation(&g, 15, 0.4, 11);
        assert_exact(&g, &inst, 2);
    }

    #[test]
    fn directed_cycle_asymmetry() {
        // One-directional cycle: d(u,v) ≠ d(v,u) everywhere.
        let g = cycle(12);
        let arcs: Vec<twgraph::Arc> = (0..12u32)
            .map(|i| twgraph::Arc::new(i, (i + 1) % 12, 1))
            .collect();
        let inst = MultiDigraph::from_arcs(12, arcs);
        let labels = assert_exact(&g, &inst, 3);
        let d01 = decode(&labels[0], &labels[1]);
        let d10 = decode(&labels[1], &labels[0]);
        assert_eq!(d01, 1);
        assert_eq!(d10, 11);
    }

    #[test]
    fn grid_weighted() {
        let g = grid(6, 6);
        let inst = with_random_weights(&g, 9, 5);
        assert_exact(&g, &inst, 4);
    }

    #[test]
    fn unreachable_pairs_decode_inf() {
        // Orientation can make some pairs unreachable; decode must agree.
        let g = banded_path(40, 2);
        let inst = random_orientation(&g, 8, 0.1, 3);
        assert_exact(&g, &inst, 5);
    }

    #[test]
    fn multigraph_parallel_arcs() {
        let g = cycle(10);
        let mut arcs = Vec::new();
        for i in 0..10u32 {
            arcs.push(twgraph::Arc::new(i, (i + 1) % 10, 5));
            arcs.push(twgraph::Arc::new(i, (i + 1) % 10, 2)); // cheaper twin
            arcs.push(twgraph::Arc::new((i + 1) % 10, i, 3));
        }
        let inst = MultiDigraph::from_arcs(10, arcs);
        assert_exact(&g, &inst, 6);
    }

    #[test]
    fn label_sizes_bounded() {
        let g = ktree(200, 3, 13);
        let inst = with_random_weights(&g, 10, 2);
        let labels = labels_of(&g, &inst, 7);
        let max_entries = labels.iter().map(|l| l.entries.len()).max().unwrap();
        // |B↑(u)| ≤ width+1 per level × depth levels — stays far below n.
        assert!(
            max_entries < g.n(),
            "label blew up: {max_entries} entries on n = {}",
            g.n()
        );
    }
}
