//! # labelserve — sharded, cache-aware distance-label serving
//!
//! The paper's headline application is build-once / query-many: after the
//! O(tw)-round construction, any s–t distance is answered from two node
//! labels alone. `distlabel` builds those labels; this crate **serves**
//! them — the query-side subsystem of the workspace's north star.
//!
//! * [`store`] — [`StoreBuilder`] compacts per-node [`distlabel::Label`]s
//!   (one heap `Vec` each) into a [`LabelStore`]: hub/distance arenas
//!   sharded by node-id range, hub ids globalized per connected component
//!   so cross-component pairs decode to [`twgraph::INF`] by construction.
//!   [`StoreLayout`] picks the physical form — `Flat` CSR lanes (fastest
//!   decode, 20 bytes/entry) or `Packed` delta-coded bit-packed block streams
//!   (~4–5x smaller, served by block-skip + in-block decode).
//! * [`file`](mod@crate::file) — store persistence: [`LabelStore::write_to`] serializes a
//!   store (either layout) into the `LWLSTOR1` container;
//!   [`LabelStore::open_mmap`] maps it read-only and serves packed shards
//!   zero-copy, so a store is built once and served by fresh processes.
//! * [`engine`] — [`QueryEngine`] answers single, paired, and batched
//!   queries over a shared store, with a per-shard LRU hot-pair cache
//!   ([`lru`]). Thread-safe by construction; answers are bit-identical
//!   with the cache on or off.
//! * [`versioned`] — [`VersionedEngine`] serves epoch-stamped snapshots:
//!   queries keep flowing off epoch N while an updated labeling is
//!   patched into epoch N+1 (dirty rows added to their shards' row
//!   patches, everything else shared by `Arc`, the epoch-stamped hot-pair
//!   caches shared and still valid for pairs of clean vertices), then a
//!   single pointer swap publishes.
//! * [`workload`] — seeded, replayable skewed query streams for the
//!   scenario harness and the `serve` bench.
//! * [`error`] — typed [`ServeError`]s (unknown node, store-partitioning
//!   violations), consistent with the workspace Result sweep. A
//!   cross-component query is **not** an error: it answers the oracle's
//!   unreachable value, [`twgraph::INF`].
//!
//! ```
//! use distlabel::Label;
//! use labelserve::{QueryEngine, ServeConfig, StoreBuilder};
//!
//! // Two vertices on a weight-3 edge; hubs are global vertex ids.
//! let mut l0 = Label::new(0);
//! l0.merge(0, 0, 0);
//! l0.merge(1, 3, 3);
//! let mut l1 = Label::new(1);
//! l1.merge(1, 0, 0);
//!
//! let mut b = StoreBuilder::new(2);
//! b.add_component(&[l0, l1], &[0, 1]).unwrap();
//! let store = b.build(ServeConfig::default().shard_size).unwrap();
//! let engine = QueryEngine::new(store, ServeConfig::default());
//! assert_eq!(engine.distance(0, 1).unwrap(), 3);
//! assert_eq!(engine.batch(&[(0, 1), (1, 1)]).unwrap(), vec![3, 0]);
//! ```

pub mod engine;
pub mod error;
pub mod file;
pub mod lru;
mod packed;
pub mod store;
pub mod versioned;
pub mod workload;

pub use engine::{CacheStats, QueryEngine, ServeConfig};
pub use error::ServeError;
pub use file::StoreFileError;
pub use lru::Lru;
pub use store::{LabelStore, StoreBuilder, StoreLayout};
pub use versioned::{Epoch, PublishStats, VersionedEngine};
pub use workload::{seeded_queries, WorkloadSpec};
