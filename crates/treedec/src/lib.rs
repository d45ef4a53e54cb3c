//! # treedec — fully polynomial-time tree decomposition (paper §3, App. B)
//!
//! Two layers:
//!
//! * **`Sep`** — the balanced-separator algorithm of §3.3: spanning-tree
//!   splitting ([`split`]), root harvesting, and sampled-pair minimum vertex
//!   cuts. Lemma 1: an (X, α)-balanced separator of size O(t²) in
//!   Õ(τ²D + τ³) rounds when t ≥ τ+1.
//! * **decomposition** — the recursive construction of §3.4 turning any
//!   balanced-separator routine into a tree decomposition of width
//!   O(τ² log n) and depth O(log n) (Theorem 1).
//!
//! Each layer has a *centralized* reference implementation (`sep`,
//! `decomp`) — exhaustively testable — and a *distributed* implementation
//! (`dist`) in which every data movement runs through the CONGEST
//! simulator's charged primitives, with all parts of a recursion level
//! processed in shared supersteps (the paper's parallel execution over the
//! vertex-disjoint collection {G′_x}).
//!
//! ## Constants ([`SepConfig`])
//!
//! The paper's constants (balance 14399/14400, cutoff 200t², 95 sampled
//! pairs, …) are asymptotically convenient but unusable at laptop scale —
//! a (1−1/14400)-balanced recursion has depth ≈ 14400·ln n. [`SepConfig::paper`]
//! reproduces them verbatim for fidelity tests on small inputs;
//! [`SepConfig::practical`] (default) keeps the identical algorithm
//! structure with laptop-scale constants (balance 7/8, cutoff 2t², 12
//! pairs). DESIGN.md §4.3 records the substitution.

pub mod config;
pub mod decomp;
pub mod dist;
pub mod region;
pub mod sep;
pub mod split;

pub use config::SepConfig;
pub use decomp::{decompose_centralized, DecompError, DecompOutcome, RegionFault};
pub use dist::{decompose_distributed, DistDecompOutcome};
pub use region::{decompose_region, RegionNode, RegionOutcome};
pub use sep::{sep_centralized, SepOutcome};
