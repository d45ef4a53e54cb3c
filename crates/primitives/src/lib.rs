//! # subgraph-ops — the paper's primitive layer (§2.3, Appendix A)
//!
//! The paper builds everything from a small set of *subgraph operations*
//! executed simultaneously over a collection `H = {H_1, …, H_N}` of
//! vertex-disjoint (or *near-disjoint*, Appendix A.1) connected subgraphs:
//!
//! | shorthand | task | here |
//! |-----------|------|------|
//! | PA  | part-wise aggregation | [`pa::aggregate`], [`pa::aggregate_and_share`] |
//! | SNC | one-round neighbour exchange | [`snc::share_with_neighbors`] |
//! | RST | rooted spanning tree per part | [`bfs::part_bfs_trees`] |
//! | STA | subtree aggregation | [`flow::upflow`] on part trees |
//! | SLE | subgraph leader election | [`pa::elect_leaders`] |
//! | CCD | connected component detection | [`ccd::detect`] |
//! | BCT(h) | multi-source subgraph broadcast | [`pa::broadcast`] |
//! | MVC(h,t) | minimum vertex cuts | [`mvc::batch_min_vertex_cut`] |
//! | probes | walk diagonals / bounded hop distances | [`probe::closed_walk_spectrum`], [`probe::bounded_hop_distances`] |
//!
//! No single theorem is "the" primitive layer; rather, every theorem rides
//! it: Theorem 1 (tree decomposition) consumes RST/STA/SLE/CCD/MVC inside
//! `Split`, Theorems 2–5 consume PA/BCT for the per-level bag broadcasts,
//! and the shared-superstep execution realizes the Theorem 6 scheduling
//! bound by construction (see below).
//!
//! ## Shortcut substitution (DESIGN.md §4.1)
//!
//! The paper realizes PA with tree-restricted low-congestion shortcuts
//! (\[HIZ16\]; Lemma 9: dilation Õ(τD), congestion Õ(τ)). We implement the
//! same *family* — every part aggregates along the minimal Steiner subtree
//! of one global BFS tree — and let the simulator *measure* congestion
//! instead of assuming the Õ(τ) bound (experiment E9 reports the measured
//! values next to the prediction). Tasks that inherently ride a part's own
//! spanning tree (RST construction itself, STA for the `Split` procedure)
//! use honest flooding whose dilation is measured.
//!
//! All flows are *rate-limited executable schedules*: per superstep a node
//! forwards at most `W` queued items per edge, so every superstep costs one
//! round and the total round count is the schedule length — the same
//! O(dilation + congestion) envelope as Ghaffari's scheduling theorem
//! (paper Theorem 6).

pub mod bfs;
pub mod ccd;
pub mod flow;
pub mod global;
pub mod mvc;
pub mod pa;
pub mod parts;
pub mod probe;
pub mod roles;
pub mod snc;

pub use global::GlobalTree;
pub use parts::{PartOutOfRange, Parts};
pub use roles::{ParentMap, TreeRoles};
