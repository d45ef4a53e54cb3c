//! # stateful-walks — the paper's §5 framework
//!
//! A *stateful walk constraint* (Definition 2) is a walk set `C ⊆ W_G`
//! recognized by a per-edge finite state machine: every walk carries a
//! state from `Q` (with the reject state ⊥ and the empty-walk state ▽),
//! and appending an edge updates the state through δ_e alone. Constrained
//! shortest-walk problems then reduce to *unconstrained* shortest paths in
//! the product graph `G_C` on `V(G) × Q` (Lemma 5), which this crate
//! builds explicitly.
//!
//! `CDL(C)` — constrained distance labeling (Theorem 3) — runs the §4
//! labeling machinery on `G_C`. Distributed executions use a *virtual
//! network*: physical node `u` hosts all of `U_Q(u)`, and every virtual
//! message is charged to the physical edge it rides
//! ([`congest_sim::Network::with_hosts`]) — the O(|Q|·p_max) simulation
//! overhead of §5.2, reproduced by measurement.
//!
//! Provided constraints: [`ColoredWalk`] (Example 1), [`CountWalk`]
//! (Example 2), plus [`ParityWalk`] and [`ForbiddenTransitionWalk`] as
//! framework-exercising extensions.

pub mod cdl;
pub mod constraint;
pub mod product;

pub use cdl::{CdlLabeling, ConstrainedSssp};
pub use constraint::{
    ColoredWalk, CountWalk, ForbiddenTransitionWalk, ParityWalk, StateId, StatefulConstraint, BOT,
    NABLA,
};
pub use product::{brute_force_constrained_dist, build_product, ProductGraph};
