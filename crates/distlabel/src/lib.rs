//! # distlabel — exact distance labeling in low-treewidth graphs (paper §4)
//!
//! The label of `u` is the distance set `d_G(u, B↑(u))`: exact distances to
//! and from every vertex in the bags along `u`'s root path of the tree
//! decomposition. Decoding `d(u, v)` takes the minimum of
//! `d(u, s) + d(s, v)` over the common ancestor-bag vertices `s`
//! (Definition 1 + Lemma 2).
//!
//! Construction is a bottom-up recursion over the decomposition (§4.2):
//! leaves gather their whole `G_x` and solve locally; internal nodes build
//! the auxiliary graph `H_x` on the bag `B_x` whose edge costs combine
//! direct edges with child-level distances (Lemma 3), then every node
//! refreshes its bag distances through `H_x` (Lemma 4). Distributed cost:
//! one part-wise broadcast of `H_x` (Õ(τ⁴) words) per level — the τ⁵ term
//! of Theorem 2 — measured by the simulator.
//!
//! The per-level update maintained here refreshes, at node `x`, the entries
//! for `B_x` exactly (`d_{G_x}`-values). Entries finalized deeper are kept:
//! the decoder's minimum over *all* common ancestor-bag vertices
//! compensates for paths that leave and re-enter a subtree — see the
//! correctness argument in `build.rs` and the exhaustive differential tests
//! against Dijkstra.

pub mod build;
pub mod dist;
pub mod incremental;
pub mod label;
pub mod sssp;

pub use build::build_labels_centralized;
pub use dist::build_labels_distributed;
pub use incremental::{DynamicLabeling, PartLabeling, UpdateReport};
pub use label::{decode, decode_entries, decode_pair, Label};
pub use sssp::{sssp_centralized, sssp_distributed};
