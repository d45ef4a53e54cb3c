//! Recursive tree decomposition from balanced separators (paper §3.4),
//! centralized reference implementation.
//!
//! Recursion state per tree node `x` (Proposition 3 of the paper):
//! `G'_x` is a connected component of `G − B_{p(x)}` (so it is an *induced*
//! subgraph of G), and `G_x = G'_x` plus the `B_{p(x)}`-vertices adjacent
//! to it (with only the cross edges — no edges inside the inherited set).
//! The bag is `B_x = (B_{p(x)} ∩ V(G_x)) ∪ S'_x` where `S'_x` is a balanced
//! separator of `G'_x`, or all of `V(G_x)` at leaves.
//!
//! The recursion itself is [`decompose_region`]; this module holds the
//! whole-graph entry point, the per-node records and the error type.

use crate::config::SepConfig;
use crate::region::{decompose_region, RegionOutcome};
use congest_sim::CongestError;
use rand::Rng;
use std::fmt;
use twgraph::alg::MincutError;
use twgraph::tw::TreeDecomposition;
use twgraph::UGraph;

/// Typed failure of a decomposition run. Input-validation conditions that
/// used to panic at the library surface are reported here; callers decide
/// whether to abort (test code may still `expect`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecompError {
    /// The input graph has no vertices — there is nothing to decompose.
    EmptyGraph,
    /// The input communication graph is not connected; decompose each
    /// component separately (the `G'_x`-connected invariant of §3.4 cannot
    /// hold otherwise).
    Disconnected,
    /// A CONGEST model violation surfaced from the simulator.
    Congest(CongestError),
    /// The centralized `min_vertex_cut` inside `Sep` step 4 reported a
    /// violated precondition or a broken max-flow/min-cut invariant.
    Mincut(MincutError),
    /// [`crate::decompose_region`] got a region or boundary that breaks its
    /// input contract.
    InvalidRegion(RegionFault),
}

/// How a [`crate::decompose_region`] input breaks its contract, naming the
/// first offending vertex.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegionFault {
    /// A region vertex is not a vertex of the graph.
    RegionOutOfRange(u32),
    /// A boundary vertex is not a vertex of the graph.
    BoundaryOutOfRange(u32),
    /// The region list is not strictly ascending at this vertex.
    NotAscending(u32),
    /// The vertex lies in both the region and the boundary.
    InBoth(u32),
}

impl fmt::Display for RegionFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionFault::RegionOutOfRange(v) => write!(f, "region vertex {v} is out of range"),
            RegionFault::BoundaryOutOfRange(v) => {
                write!(f, "boundary vertex {v} is out of range")
            }
            RegionFault::NotAscending(v) => {
                write!(f, "region is not strictly ascending at vertex {v}")
            }
            RegionFault::InBoth(v) => {
                write!(f, "vertex {v} is in both the region and the boundary")
            }
        }
    }
}

impl fmt::Display for DecompError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecompError::EmptyGraph => write!(f, "cannot decompose the empty graph"),
            DecompError::Disconnected => {
                write!(f, "input communication graph must be connected")
            }
            DecompError::Congest(e) => write!(f, "{e}"),
            DecompError::Mincut(e) => write!(f, "separator step 4: {e}"),
            DecompError::InvalidRegion(fault) => write!(f, "invalid region: {fault}"),
        }
    }
}

impl std::error::Error for DecompError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DecompError::Congest(e) => Some(e),
            DecompError::Mincut(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CongestError> for DecompError {
    fn from(e: CongestError) -> Self {
        DecompError::Congest(e)
    }
}

impl From<MincutError> for DecompError {
    fn from(e: MincutError) -> Self {
        DecompError::Mincut(e)
    }
}

/// Per-tree-node recursion record, kept for downstream algorithms
/// (distance labeling walks the same G_x structure).
#[derive(Clone, Debug)]
pub struct NodeInfo {
    /// V(G'_x), sorted.
    pub gpx: Vec<u32>,
    /// B_{p(x)} ∩ V(G_x): the inherited boundary, sorted.
    pub inherited: Vec<u32>,
    /// S'_x — the separator computed for G'_x (sorted); for leaf nodes the
    /// separator that triggered termination.
    pub sep: Vec<u32>,
    /// Whether the node terminated the recursion (B_x = V(G_x)).
    pub is_leaf: bool,
}

impl NodeInfo {
    /// V(G_x) = V(G'_x) ∪ inherited (sorted).
    pub fn gx(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self
            .gpx
            .iter()
            .chain(self.inherited.iter())
            .copied()
            .collect();
        v.sort_unstable();
        v
    }

    /// The record with every vertex set mapped through the renaming `perm`
    /// (the companion of [`TreeDecomposition::relabeled`]).
    pub fn relabeled(&self, perm: &[u32]) -> NodeInfo {
        let map = |vs: &Vec<u32>| -> Vec<u32> {
            let mut v: Vec<u32> = vs.iter().map(|&x| perm[x as usize]).collect();
            v.sort_unstable();
            v
        };
        NodeInfo {
            gpx: map(&self.gpx),
            inherited: map(&self.inherited),
            sep: map(&self.sep),
            is_leaf: self.is_leaf,
        }
    }
}

/// Result of a decomposition run.
#[derive(Clone, Debug)]
pub struct DecompOutcome {
    /// The tree decomposition Φ = (T, {B_x}).
    pub td: TreeDecomposition,
    /// Recursion records aligned with `td` node ids.
    pub info: Vec<NodeInfo>,
    /// The largest `t` any `Sep` call settled on.
    pub t_used: u64,
}

/// Build the tree decomposition of the (connected) graph `g` (Theorem 1's
/// centralized counterpart; the distributed version lives in [`crate::dist`]):
/// the recursion of [`decompose_region`] over all of V with an empty
/// boundary.
pub fn decompose_centralized(
    g: &UGraph,
    t0: u64,
    cfg: &SepConfig,
    rng: &mut impl Rng,
) -> Result<DecompOutcome, DecompError> {
    let n = g.n();
    if n == 0 {
        return Err(DecompError::EmptyGraph);
    }
    if !twgraph::alg::is_connected(g) {
        return Err(DecompError::Disconnected);
    }
    let all: Vec<u32> = (0..n as u32).collect();
    let RegionOutcome { nodes, t_used } = decompose_region(g, &all, &[], t0, cfg, rng)?;
    let mut td = TreeDecomposition::default();
    let mut info = Vec::with_capacity(nodes.len());
    for node in nodes {
        td.push_bag(node.parent, node.bag);
        info.push(node.info);
    }
    Ok(DecompOutcome { td, info, t_used })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use twgraph::gen::{banded_path, cycle, grid, ktree, random_tree};

    fn check(g: &UGraph, t0: u64, seed: u64) -> DecompOutcome {
        let cfg = SepConfig::practical(g.n());
        let mut rng = SmallRng::seed_from_u64(seed);
        let out = decompose_centralized(g, t0, &cfg, &mut rng).expect("decomposition failed");
        out.td
            .verify(g)
            .unwrap_or_else(|e| panic!("invalid decomposition: {e}"));
        out
    }

    #[test]
    fn empty_and_disconnected_are_typed_errors() {
        let cfg = SepConfig::practical(4);
        let mut rng = SmallRng::seed_from_u64(0);
        let empty = UGraph::empty(0);
        assert_eq!(
            decompose_centralized(&empty, 2, &cfg, &mut rng).unwrap_err(),
            DecompError::EmptyGraph
        );
        let two = UGraph::empty(2); // two isolated vertices
        assert_eq!(
            decompose_centralized(&two, 2, &cfg, &mut rng).unwrap_err(),
            DecompError::Disconnected
        );
    }

    #[test]
    fn banded_path_decomposes() {
        let g = banded_path(500, 2);
        let out = check(&g, 3, 1);
        let stats = out.td.stats();
        assert!(stats.width < 120, "width {} too large", stats.width);
        assert!(stats.depth <= 64, "depth {}", stats.depth);
    }

    #[test]
    fn ktree_decomposes() {
        let g = ktree(300, 3, 7);
        let out = check(&g, 4, 2);
        assert!(out.td.stats().width < 150);
    }

    #[test]
    fn tree_decomposes_narrow() {
        let g = random_tree(400, 3);
        let out = check(&g, 2, 3);
        // τ = 1: practical constants keep this comfortably narrow.
        assert!(
            out.td.stats().width < 60,
            "width {} for a tree",
            out.td.stats().width
        );
    }

    #[test]
    fn cycle_and_grid() {
        check(&cycle(128), 3, 4);
        check(&grid(10, 10), 11, 5);
    }

    #[test]
    fn small_graph_single_bag() {
        let g = cycle(8);
        let out = check(&g, 3, 6);
        // Step 1 fires immediately: one bag with all vertices.
        assert_eq!(out.td.bags.len(), 1);
        assert_eq!(out.td.width(), 7);
    }

    #[test]
    fn info_consistency() {
        let g = banded_path(300, 3);
        let out = check(&g, 4, 8);
        for (x, ni) in out.info.iter().enumerate() {
            // G'_x and inherited are disjoint; bag ⊆ V(G_x).
            for b in &ni.inherited {
                assert!(ni.gpx.binary_search(b).is_err());
            }
            let gx = ni.gx();
            for b in &out.td.bags[x] {
                assert!(gx.binary_search(b).is_ok(), "bag vertex outside G_x");
            }
            // Children partition G'_x − S'_x.
            if !ni.is_leaf {
                let mut child_union: Vec<u32> = out.td.children[x]
                    .iter()
                    .flat_map(|&c| out.info[c].gpx.clone())
                    .collect();
                child_union.sort_unstable();
                let mut expect: Vec<u32> = ni
                    .gpx
                    .iter()
                    .copied()
                    .filter(|v| ni.sep.binary_search(v).is_err())
                    .collect();
                expect.sort_unstable();
                assert_eq!(child_union, expect);
            }
        }
    }

    #[test]
    fn width_scales_with_k() {
        // Same n, growing k: width should grow, stay valid.
        let mut last = 0;
        for k in [1usize, 3] {
            let g = banded_path(400, k.max(1));
            let out = check(&g, k as u64 + 1, 9);
            let w = out.td.stats().width;
            assert!(w >= last / 4, "width collapsed: {w} after {last}");
            last = w;
        }
    }

    #[test]
    fn depth_logarithmic() {
        for n in [200usize, 800] {
            let g = banded_path(n, 2);
            let out = check(&g, 3, 10);
            let depth = out.td.stats().depth;
            // practical balance 7/8 ⇒ depth ≤ log_{8/7}(n) + slack.
            let bound = ((n as f64).ln() / (8.0f64 / 7.0).ln()).ceil() as usize + 8;
            assert!(depth <= bound, "depth {depth} > bound {bound} at n={n}");
        }
    }
}
