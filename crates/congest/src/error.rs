//! Typed errors for model violations.
//!
//! The engine used to panic on a CONGEST violation; library callers now get
//! a typed [`CongestError`] instead and decide themselves whether to abort,
//! so panics stay confined to `#[cfg(test)]` code.

use std::fmt;

/// A violation of the CONGEST simulation model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CongestError {
    /// A node emitted a message to a vertex it shares no edge with.
    NonNeighborSend {
        /// The sending node.
        from: u32,
        /// The (non-adjacent) target.
        to: u32,
    },
    /// A message declared a size of zero words (see
    /// [`crate::WireMsg::words`]); every message costs at least one.
    ZeroWordMessage {
        /// The sending node.
        from: u32,
        /// The target.
        to: u32,
    },
    /// A scoped superstep delivered a message to a node outside the active
    /// set (see [`crate::Network::superstep_on`]).
    InactiveRecipient {
        /// The sending node.
        from: u32,
        /// The target outside the active set.
        to: u32,
    },
    /// A virtual edge maps onto a non-edge of the physical graph — an
    /// unsimulatable virtual link (see [`crate::Network::with_hosts`]).
    UnsimulatableEdge {
        /// Physical endpoint the virtual lo-endpoint maps to.
        u: u32,
        /// Physical endpoint the virtual hi-endpoint maps to.
        v: u32,
    },
    /// A quiescence loop still had messages to send after `limit` charged
    /// supersteps (see [`crate::Network::run_until_quiet`]). The supersteps
    /// already run stay charged; the one that would exceed the budget is
    /// not.
    SuperstepBudget {
        /// The superstep budget the caller passed.
        limit: u64,
    },
    /// A scoped superstep's active list is not strictly ascending:
    /// `active[position]` does not exceed `active[position - 1]`.
    UnsortedActiveList {
        /// First offending index into the active list.
        position: usize,
    },
    /// A scoped superstep's active list names a vertex outside the network.
    ActiveOutOfRange {
        /// The offending vertex.
        vertex: u32,
        /// The network's node count.
        n: usize,
    },
}

impl fmt::Display for CongestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CongestError::NonNeighborSend { from, to } => {
                write!(f, "CONGEST violation: {from} sent to non-neighbor {to}")
            }
            CongestError::ZeroWordMessage { from, to } => {
                write!(
                    f,
                    "CONGEST violation: {from} sent a zero-word message to {to}"
                )
            }
            CongestError::InactiveRecipient { from, to } => {
                write!(
                    f,
                    "scoped superstep: {from} sent to {to} outside the active set"
                )
            }
            CongestError::UnsimulatableEdge { u, v } => {
                write!(f, "virtual edge maps to non-edge ({u},{v})")
            }
            CongestError::SuperstepBudget { limit } => {
                write!(f, "quiescence loop still active after {limit} supersteps")
            }
            CongestError::UnsortedActiveList { position } => {
                write!(
                    f,
                    "active list not strictly ascending at position {position}"
                )
            }
            CongestError::ActiveOutOfRange { vertex, n } => {
                write!(f, "active list names vertex {vertex} of a {n}-node network")
            }
        }
    }
}

impl std::error::Error for CongestError {}
