//! # twgraph — graph substrate for the `lowtw` workspace
//!
//! This crate owns every graph-shaped object the reproduction needs:
//!
//! * [`UGraph`] — simple undirected unweighted graphs. These model the
//!   *communication network* ⟦G⟧ of the CONGEST model (paper §2.1).
//! * [`MultiDigraph`] — directed, weighted, labeled multigraphs. These model
//!   *problem instances* (paper §2.1: weighted/directed multigraph inputs whose
//!   underlying communication graph is their undirected projection).
//! * [`tw::TreeDecomposition`] — rooted tree decompositions (paper §2.2) with a
//!   full validity verifier (conditions (a), (b), (c)).
//! * [`gen`] — synthetic graph families with controlled treewidth / diameter,
//!   used by every experiment in `docs/EXPERIMENTS.md`.
//! * [`alg`] — centralized reference algorithms (BFS, Dijkstra, components,
//!   exact diameter, …) that serve as correctness oracles for the distributed
//!   implementations.
//! * [`tw`] — a treewidth toolkit: elimination-order heuristics that bound the
//!   width from above and a degeneracy bound from below.
//! * [`fo`] — the tiny first-order formula DSL (∃/∀, adjacency / equality /
//!   bounded-distance atoms) behind the FO-property scenario pipeline.
//!
//! Everything is implemented from scratch on `std`; no external graph library
//! is used, so the CONGEST simulator can account for every word that moves.

pub mod alg;
pub mod fo;
pub mod gen;
pub mod ids;
pub mod multidigraph;
pub mod tw;
pub mod ugraph;
pub mod update;
pub mod view;

pub use ids::{ArcId, NodeId, UEdgeId};
pub use multidigraph::{Arc, MultiDigraph};
pub use ugraph::{UGraph, UGraphBuilder};
pub use update::{AppliedEdits, EdgeBatch};
pub use view::{StampSet, SubgraphView};

/// Distance value used across the workspace. `u64` with a saturating
/// "infinity" below, so sums of two finite distances never wrap.
pub type Dist = u64;

/// Infinity sentinel for [`Dist`]. Chosen as `u64::MAX / 4` so that
/// `INF + INF` as well as `INF + (any edge weight)` stays above any finite
/// distance without overflowing.
pub const INF: Dist = u64::MAX / 4;

/// Saturating distance addition that preserves the [`INF`] sentinel.
#[inline]
pub fn dist_add(a: Dist, b: Dist) -> Dist {
    if a >= INF || b >= INF {
        INF
    } else {
        a + b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_add_saturates() {
        assert_eq!(dist_add(INF, 5), INF);
        assert_eq!(dist_add(5, INF), INF);
        assert_eq!(dist_add(INF, INF), INF);
        assert_eq!(dist_add(2, 3), 5);
    }

    #[test]
    fn inf_is_stable_under_edge_sums() {
        // Any realistic accumulated weight stays clearly below INF.
        let big = 1u64 << 40;
        assert!(dist_add(big, big) < INF);
    }
}
