//! Centralized reference algorithms.
//!
//! These are the *oracles*: every distributed algorithm in the workspace is
//! checked against one of these straightforward, well-tested centralized
//! counterparts. They are also used internally wherever the CONGEST model
//! permits free local computation on locally-known subgraphs (paper §2.1).

mod apsp;
mod bfs;
mod components;
mod dijkstra;
mod mincut;
mod trees;

pub use apsp::{apsp_dijkstra, floyd_warshall};
pub use bfs::{bfs_dist, bfs_tree, diameter_exact, eccentricity};
pub use components::{
    components, connected, is_connected, largest_component, split_components, Component,
};
pub use dijkstra::{dijkstra, dijkstra_to, ShortestPathTree};
pub use mincut::{min_vertex_cut, MincutError};
pub use trees::{centroid, random_spanning_tree, subtree_sizes, RootedTree};
