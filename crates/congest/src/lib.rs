//! # congest-sim — a round-accurate CONGEST simulator
//!
//! The CONGEST model (paper §2.1): a synchronous network of `n` nodes joined
//! by the undirected communication graph ⟦G⟧. Per round, each node sends one
//! O(log n)-bit message per incident edge per direction, then computes
//! locally for free.
//!
//! ## Cost model
//!
//! Algorithms here execute **supersteps**. In a superstep every node emits
//! messages to neighbours based only on its own state; all messages are then
//! delivered at once. A superstep in which some directed edge carries `w`
//! *words* (one word = one O(log n)-bit unit: a vertex id, a distance under
//! the standard poly(n)-weight assumption, a small tag) is charged
//! `max_(e,dir) ⌈w(e,dir)/W⌉` rounds, `W` being the per-edge per-direction
//! word budget (default 1). This is the number of rounds a real execution
//! pays by pipelining each edge's queue independently, and — because nodes
//! only read their inbox after the superstep — no node ever acts on
//! partially-delivered data, so the accounting is sound. It also realizes
//! Ghaffari's O(dilation + congestion) scheduling bound for concurrent
//! subgraph algorithms (paper Theorem 6): running them in one shared
//! superstep sequence makes the per-edge word count *be* the congestion.
//!
//! ## Example
//!
//! A BFS flood on a 10-node path. State per node is `(dist, fresh)`; a node
//! re-broadcasts only when its distance improved. `send` clears `fresh` as
//! it floods, `recv` re-arms a node whose distance improved, and the
//! quiescence loop visits only those nodes. The engine charges exactly ten
//! rounds — nine propagation supersteps plus the far endpoint's final
//! (improving-nothing) echo:
//!
//! ```
//! use congest_sim::{Network, NetworkConfig};
//!
//! let g = twgraph::gen::path(10);
//! let mut net = Network::new(g.clone(), NetworkConfig::default());
//!
//! let mut states: Vec<(Option<u32>, bool)> = vec![(None, false); 10];
//! states[0] = (Some(0), true);
//! net.run_until_quiet(
//!     &mut states,
//!     |u, s, out| {
//!         if let (Some(d), true) = *s {
//!             out.extend(g.neighbors(u).iter().map(|&v| (v, d + 1)));
//!             s.1 = false;
//!         }
//!         false
//!     },
//!     |_v, s, inbox| {
//!         for (_src, d) in inbox {
//!             if s.0.map_or(true, |cur| d < cur) {
//!                 *s = (Some(d), true);
//!             }
//!         }
//!         s.1
//!     },
//!     10_000,
//! ).unwrap();
//!
//! assert_eq!(states[9].0, Some(9));
//! assert_eq!(net.metrics().rounds, 10);
//! assert_eq!(net.metrics().max_edge_words_in_superstep, 1);
//! ```
//!
//! ## Virtual networks
//!
//! For the stateful-walk product graphs G_C (paper §5.2) every physical node
//! hosts |Q| virtual nodes. [`Network::with_hosts`] builds such a network
//! from the physical graph and the host map, mapping each virtual edge to
//! the physical edge it rides on (or marking it node-local = free), so the
//! charge for a virtual superstep is measured on physical edges —
//! reproducing the O(|Q|·p_max) simulation overhead by measurement instead
//! of by formula.

mod engine;
mod error;
mod metrics;
mod projection;
mod wire;

pub use engine::{Inbox, InboxIter, Network, NetworkConfig, Outbox};
pub use error::CongestError;
pub use metrics::{Metrics, PhaseSnapshot};
pub use wire::WireMsg;
