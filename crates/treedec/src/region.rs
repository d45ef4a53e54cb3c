//! The §3.4 recursion over a vertex region: the whole graph for
//! [`crate::decompose_centralized`], or a dirty region for the
//! tree-surgery half of incremental label maintenance.
//!
//! When an edge batch lands entirely inside `V(G'_x)` for some tree node
//! `x`, the decomposition outside `subtree(x)` is untouched: `V(G'_x)` is
//! disjoint from every ancestor bag, so the recursion state of every other
//! node is a function of unchanged vertices and edges. [`decompose_region`]
//! re-runs the §3.4 recursion on the (possibly now disconnected) region
//! against the unchanged parent bag, producing replacement subtrees that
//! splice in where `subtree(x)` was. The caller (see
//! `distlabel::incremental`) owns the splice and the relabeling.

use crate::config::SepConfig;
use crate::decomp::{DecompError, NodeInfo, RegionFault};
use crate::sep::{SepCore, SepOutcome};
use rand::Rng;
use std::collections::VecDeque;
use twgraph::UGraph;

/// One replacement tree node produced by [`decompose_region`].
#[derive(Clone, Debug)]
pub struct RegionNode {
    /// Parent *within the returned list* (parents always precede
    /// children), or `None` for a region root — a node that attaches to
    /// the dirty node's former parent.
    pub parent: Option<usize>,
    /// The node's bag, sorted.
    pub bag: Vec<u32>,
    /// The recursion record, aligned with the surrounding decomposition's
    /// [`NodeInfo`] convention.
    pub info: NodeInfo,
}

/// Replacement subtrees for the region.
#[derive(Clone, Debug, Default)]
pub struct RegionOutcome {
    /// Replacement nodes in creation (BFS) order; parents precede children.
    pub nodes: Vec<RegionNode>,
    /// The largest `t` any `Sep` call settled on.
    pub t_used: u64,
}

/// Re-decompose `region` (the old `V(G'_x)`, as a strictly ascending
/// vertex list of `g`) against the unchanged `boundary` (the old
/// `B_{p(x)}`, disjoint from `region`). `g` is the *updated* graph. Each
/// connected component of `g[region]` becomes one replacement subtree
/// whose root inherits the boundary vertices adjacent to it — exactly the
/// recursion state a child of `p(x)` gets, so the splice preserves
/// Proposition 3 for every node, old and new.
///
/// This is the §3.4 recursion itself: [`crate::decompose_centralized`] is
/// this function on all of V with an empty boundary. Every per-vertex
/// buffer is allocated once here and cleared in O(1) per use, so a tree
/// node `x` costs time proportional to `|V(G_x)|` plus the edges at
/// `V(G'_x)`, not to n. Returns [`DecompError::InvalidRegion`] when
/// `region` or `boundary` names a vertex outside `g`, `region` is not
/// strictly ascending, or the two share a vertex.
pub fn decompose_region(
    g: &UGraph,
    region: &[u32],
    boundary: &[u32],
    t0: u64,
    cfg: &SepConfig,
    rng: &mut impl Rng,
) -> Result<RegionOutcome, DecompError> {
    check_region(g.n(), region, boundary).map_err(DecompError::InvalidRegion)?;
    let n = g.n();
    // µ = 1 on every member; `Sep` reads µ only at its members.
    let unit_mu = vec![1u64; n];
    let mut sep_core = SepCore::new(n);

    // Pending subproblems: (parent, V(G'_x), inherited boundary).
    let mut queue: VecDeque<(Option<usize>, Vec<u32>, Vec<u32>)> = sep_core
        .components(g, region, boundary)
        .into_iter()
        .map(|(gpx, inherited)| (None, gpx, inherited))
        .collect();

    let mut out = RegionOutcome {
        nodes: Vec::new(),
        t_used: t0.max(2),
    };
    while let Some((parent, gpx, inherited)) = queue.pop_front() {
        // Separator of G'_x with X = V(G'_x).
        let SepOutcome {
            separator: sep,
            t_used: t_here,
            ..
        } = sep_core.sep_doubling(g, &gpx, &unit_mu, out.t_used, cfg, rng)?;
        out.t_used = out.t_used.max(t_here);

        let x = out.nodes.len();
        let Materialized {
            is_leaf,
            bag,
            children,
        } = materialize(g, &mut sep_core, &gpx, &inherited, &sep);
        queue.extend(children.into_iter().map(|(comp, inh)| (Some(x), comp, inh)));
        out.nodes.push(RegionNode {
            parent,
            bag,
            info: NodeInfo {
                gpx,
                inherited,
                sep,
                is_leaf,
            },
        });
    }
    Ok(out)
}

/// One tree node of either recursion, materialized from its separator.
pub(crate) struct Materialized {
    /// `true` → single bag `V(G_x)`, no children.
    pub(crate) is_leaf: bool,
    /// The bag `B_x` (leaf: `V(G_x)`; internal: `inherited ∪ S'_x`).
    pub(crate) bag: Vec<u32>,
    /// Children as `(component, child_inherited)` pairs, in component order.
    pub(crate) children: Vec<(Vec<u32>, Vec<u32>)>,
}

/// Decide leaf or internal for the node with `V(G'_x) = gpx`, the given
/// inherited boundary and separator `sep` (all ascending), compute its
/// bag, and split `G'_x − S'_x` into the child subproblems, each with the
/// bag vertices adjacent to it. Local work only, in time proportional to
/// `|V(G_x)|` plus the edges at `gpx`; [`crate::dist`] runs it uncharged.
pub(crate) fn materialize(
    g: &UGraph,
    sep_core: &mut SepCore,
    gpx: &[u32],
    inherited: &[u32],
    sep: &[u32],
) -> Materialized {
    if gpx.len() + inherited.len() <= 2 * (sep.len() + inherited.len()) {
        let mut bag: Vec<u32> = gpx.iter().chain(inherited).copied().collect();
        bag.sort_unstable();
        return Materialized {
            is_leaf: true,
            bag,
            children: Vec::new(),
        };
    }
    let mut bag: Vec<u32> = inherited.iter().chain(sep).copied().collect();
    bag.sort_unstable();
    bag.dedup();
    let rest: Vec<u32> = gpx
        .iter()
        .copied()
        .filter(|v| sep.binary_search(v).is_err())
        .collect();
    let children = sep_core.components(g, &rest, &bag);
    Materialized {
        is_leaf: false,
        bag,
        children,
    }
}

/// The [`decompose_region`] input contract.
fn check_region(n: usize, region: &[u32], boundary: &[u32]) -> Result<(), RegionFault> {
    if let Some(&v) = region.iter().find(|&&v| v as usize >= n) {
        return Err(RegionFault::RegionOutOfRange(v));
    }
    if let Some(&b) = boundary.iter().find(|&&b| b as usize >= n) {
        return Err(RegionFault::BoundaryOutOfRange(b));
    }
    if let Some(w) = region.windows(2).find(|w| w[0] >= w[1]) {
        return Err(RegionFault::NotAscending(w[1]));
    }
    match boundary.iter().find(|b| region.binary_search(b).is_ok()) {
        Some(&b) => Err(RegionFault::InBoth(b)),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose_centralized;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use twgraph::gen::banded_path;

    /// Re-decomposing a leaf's own region against its parent bag yields
    /// subtree(s) whose vertex sets partition the region and whose roots
    /// inherit only boundary vertices.
    #[test]
    fn region_matches_recursion_state() {
        let g = banded_path(200, 2);
        let cfg = SepConfig::practical(g.n());
        let mut rng = SmallRng::seed_from_u64(3);
        let dec = decompose_centralized(&g, 3, &cfg, &mut rng).unwrap();
        let x = (0..dec.td.bags.len())
            .find(|&x| dec.info[x].is_leaf && dec.td.parent[x] != x)
            .expect("a non-root leaf exists");
        let p = dec.td.parent[x];
        let out =
            decompose_region(&g, &dec.info[x].gpx, &dec.td.bags[p], 3, &cfg, &mut rng).unwrap();
        assert!(!out.nodes.is_empty());
        let mut covered: Vec<u32> = out.nodes.iter().flat_map(|n| n.info.gpx.clone()).collect();
        covered.sort_unstable();
        // Children partition each node's G'_x − S'_x, so the union of all
        // gpx sets is exactly the region plus nothing (internal nodes
        // repeat separator vertices of their own gpx — dedup first).
        covered.dedup();
        let roots: Vec<&RegionNode> = out.nodes.iter().filter(|n| n.parent.is_none()).collect();
        let mut root_union: Vec<u32> = roots.iter().flat_map(|n| n.info.gpx.clone()).collect();
        root_union.sort_unstable();
        assert_eq!(root_union, dec.info[x].gpx, "roots partition the region");
        for r in &roots {
            for b in &r.info.inherited {
                assert!(
                    dec.td.bags[p].binary_search(b).is_ok(),
                    "inherited vertex outside the boundary"
                );
            }
        }
        // Parents precede children.
        for (i, node) in out.nodes.iter().enumerate() {
            if let Some(pp) = node.parent {
                assert!(pp < i);
            }
        }
    }

    /// The fault `decompose_region` reports on a 10-vertex banded path.
    fn region_fault(region: &[u32], boundary: &[u32]) -> DecompError {
        let g = banded_path(10, 2);
        let cfg = SepConfig::practical(g.n());
        let mut rng = SmallRng::seed_from_u64(0);
        decompose_region(&g, region, boundary, 3, &cfg, &mut rng).unwrap_err()
    }

    #[test]
    fn out_of_range_region_vertex_is_typed_error() {
        assert_eq!(
            region_fault(&[3, 4, 10], &[2]),
            DecompError::InvalidRegion(RegionFault::RegionOutOfRange(10))
        );
    }

    #[test]
    fn out_of_range_boundary_vertex_is_typed_error() {
        assert_eq!(
            region_fault(&[3, 4], &[2, 99]),
            DecompError::InvalidRegion(RegionFault::BoundaryOutOfRange(99))
        );
    }

    #[test]
    fn unsorted_or_repeated_region_is_typed_error() {
        assert_eq!(
            region_fault(&[3, 5, 4], &[2]),
            DecompError::InvalidRegion(RegionFault::NotAscending(4))
        );
        assert_eq!(
            region_fault(&[3, 4, 4], &[2]),
            DecompError::InvalidRegion(RegionFault::NotAscending(4))
        );
    }

    #[test]
    fn region_meeting_boundary_is_typed_error() {
        assert_eq!(
            region_fault(&[3, 4, 5], &[1, 4]),
            DecompError::InvalidRegion(RegionFault::InBoth(4))
        );
    }
}
