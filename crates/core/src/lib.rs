//! # lowtw — fully polynomial-time distributed computation in
//! low-treewidth graphs
//!
//! A reproduction of Izumi–Kitamura–Naruse–Schwartzman (SPAA 2022):
//! CONGEST algorithms whose round complexity is polynomial in the
//! treewidth τ, linear in the diameter D and polylogarithmic in n —
//! executed on a round-accurate simulator that charges every word moved.
//!
//! ```
//! use lowtw::prelude::*;
//!
//! // A random partial 3-tree instance with weighted directed arcs.
//! let g = twgraph::gen::partial_ktree(200, 3, 0.7, 7);
//! let inst = twgraph::gen::with_random_weights(&g, 100, 7);
//!
//! // Decompose once; reuse for every distance problem.
//! let session = Session::decompose(&g, 4, 7).unwrap();
//! assert!(session.width() < g.n());
//!
//! // Exact distance labels; decode any pair locally.
//! let labels = session.labels(&inst);
//! let d = lowtw::decode(&labels[3], &labels[77]);
//! assert_eq!(d, twgraph::alg::dijkstra(&inst, 3).dist[77]);
//! ```
//!
//! The heavy lifting lives in the focused member crates, all re-exported
//! here:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`twgraph`] | graph types, generators, treewidth toolkit, oracles |
//! | [`congest_sim`] | the CONGEST superstep engine and cost model |
//! | [`subgraph_ops`] | PA / RST / STA / SLE / CCD / BCT / MVC primitives |
//! | [`treedec`] | `Sep` + distributed tree decomposition (Thm 1) |
//! | [`distlabel`] | distance labeling + SSSP (Thm 2) |
//! | [`labelserve`] | sharded, cached query serving over compacted labels |
//! | [`servd`] | socketed serving front-end: varint wire protocol + SLO stats |
//! | [`stateful_walks`] | walk constraints, product graphs, CDL (Thm 3) |
//! | [`bmatch`] | bipartite maximum matching (Thm 4) |
//! | [`girth`] | weighted girth, directed + undirected (Thm 5) |
//! | [`baselines`] | Bellman–Ford, pipelined APSP, Hopcroft–Karp, … |

pub use baselines;
pub use bmatch;
pub use congest_sim;
pub use distlabel;
pub use girth;
pub use labelserve;
pub use servd;
pub use stateful_walks;
pub use subgraph_ops;
pub use treedec;
pub use twgraph;

pub use congest_sim::{CongestError, Metrics, Network, NetworkConfig};
pub use distlabel::label::{decode, decode_pair, Label};
pub use distlabel::{DynamicLabeling, UpdateReport};
pub use labelserve::{
    PublishStats, QueryEngine, ServeConfig, ServeError, StoreFileError, StoreLayout,
    VersionedEngine,
};
pub use servd::{Client, ServdConfig, Server};
pub use treedec::{DecompError, SepConfig};
pub use twgraph::{Dist, EdgeBatch, MultiDigraph, UGraph, INF};

/// Everything most callers need.
pub mod prelude {
    pub use crate::{serve_from_file, DynamicSession, NetServeError, Session, UpdateError};
    pub use congest_sim::{Network, NetworkConfig};
    pub use distlabel::label::{decode, decode_pair, Label};
    pub use labelserve::{QueryEngine, ServeConfig, StoreLayout, VersionedEngine};
    pub use servd::{Client, ServdConfig, Server};
    pub use twgraph::{Dist, EdgeBatch, MultiDigraph, UGraph, INF};
}

/// Serve a persisted `LWLSTOR1` store file (written by
/// [`Session::serve_to_file`] or `LabelStore::write_to`) without a
/// session: the file is mapped (packed segments serve zero-copy),
/// validated, and wrapped in a cached [`QueryEngine`]. `cfg.layout` is
/// ignored — the file header records the layout it was built with.
pub fn serve_from_file(
    path: impl AsRef<std::path::Path>,
    cfg: ServeConfig,
) -> Result<QueryEngine, StoreFileError> {
    Ok(QueryEngine::new(
        labelserve::LabelStore::open_mmap(path)?,
        cfg,
    ))
}

use rand::rngs::SmallRng;
use rand::SeedableRng;
use treedec::decomp::NodeInfo;
use twgraph::tw::TreeDecomposition;

/// A decomposition session: compute the tree decomposition of a
/// communication graph once, then run any of the paper's algorithms on
/// instances over that topology.
pub struct Session {
    /// The communication graph ⟦G⟧.
    pub graph: UGraph,
    /// The tree decomposition Φ.
    pub td: TreeDecomposition,
    /// Recursion records (G'_x / boundary / separators per tree node).
    pub info: Vec<NodeInfo>,
    /// The `t` the separator algorithm settled on.
    pub t_used: u64,
}

impl Session {
    /// Decompose `g` centrally with practical constants (`t0` = initial
    /// treewidth guess, usually τ+1).
    pub fn decompose(g: &UGraph, t0: u64, seed: u64) -> Result<Self, DecompError> {
        let cfg = SepConfig::practical(g.n());
        let mut rng = SmallRng::seed_from_u64(seed);
        let out = treedec::decompose_centralized(g, t0, &cfg, &mut rng)?;
        Ok(Session {
            graph: g.clone(),
            td: out.td,
            info: out.info,
            t_used: out.t_used,
        })
    }

    /// Decompose on the CONGEST simulator (Theorem 1); returns the session
    /// and the charged rounds.
    pub fn decompose_distributed(
        g: &UGraph,
        t0: u64,
        seed: u64,
    ) -> Result<(Self, u64), DecompError> {
        let cfg = SepConfig::practical(g.n());
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut net = Network::new(g.clone(), NetworkConfig::default());
        let out = treedec::decompose_distributed(&mut net, t0, &cfg, &mut rng)?;
        let rounds = out.rounds + out.backbone_rounds;
        Ok((
            Session {
                graph: g.clone(),
                td: out.td,
                info: out.info,
                t_used: out.t_used,
            },
            rounds,
        ))
    }

    /// Decomposition width (paper Theorem 1: O(τ² log n)).
    pub fn width(&self) -> usize {
        self.td.width()
    }

    /// Decomposition depth (Theorem 1: O(log n)).
    pub fn depth(&self) -> usize {
        self.td.stats().depth
    }

    /// Exact distance labels for a weighted directed instance over this
    /// topology (Theorem 2), built centrally.
    pub fn labels(&self, inst: &MultiDigraph) -> Vec<Label> {
        assert_eq!(inst.n(), self.graph.n());
        distlabel::build_labels_centralized(inst, &self.td, &self.info)
    }

    /// Distance labels built on the simulator; returns `(labels, rounds)`.
    pub fn labels_distributed(
        &self,
        inst: &MultiDigraph,
    ) -> Result<(Vec<Label>, u64), CongestError> {
        let mut net = Network::new(self.graph.clone(), NetworkConfig::default());
        distlabel::build_labels_distributed(&mut net, inst, &self.td, &self.info)
    }

    /// Build-once / query-many: construct labels for `inst`, compact them
    /// into a sharded [`labelserve::LabelStore`], and return the cached
    /// [`QueryEngine`] serving exact distance queries over it.
    ///
    /// ```
    /// use lowtw::prelude::*;
    ///
    /// let g = twgraph::gen::partial_ktree(80, 2, 0.7, 5);
    /// let inst = twgraph::gen::with_random_weights(&g, 20, 5);
    /// let session = Session::decompose(&g, 3, 5).unwrap();
    /// let engine = session.serve(&inst, ServeConfig::default()).unwrap();
    /// let d = engine.distance(0, 79).unwrap();
    /// assert_eq!(d, twgraph::alg::dijkstra(&inst, 0).dist[79]);
    /// ```
    pub fn serve(&self, inst: &MultiDigraph, cfg: ServeConfig) -> Result<QueryEngine, ServeError> {
        Ok(QueryEngine::new(self.build_store(inst, &cfg)?, cfg))
    }

    /// Compact `inst`'s labels into a store in `cfg.layout` (shared by
    /// the in-process, persisted, and socketed serve fronts).
    fn build_store(
        &self,
        inst: &MultiDigraph,
        cfg: &ServeConfig,
    ) -> Result<labelserve::LabelStore, ServeError> {
        let labels = self.labels(inst);
        let ids: Vec<u32> = (0..self.graph.n() as u32).collect();
        let mut builder = labelserve::StoreBuilder::new(self.graph.n());
        builder.add_component(&labels, &ids)?;
        builder.build_layout(cfg.shard_size, cfg.layout)
    }

    /// Build-once / serve-later: construct and compact the labels like
    /// [`serve`](Session::serve), then persist the store as one
    /// `LWLSTOR1` shard file at `path`. A fresh process (no session, no
    /// decomposition) serves it back with [`serve_from_file`].
    ///
    /// ```
    /// use lowtw::prelude::*;
    ///
    /// let g = twgraph::gen::partial_ktree(80, 2, 0.7, 5);
    /// let inst = twgraph::gen::with_random_weights(&g, 20, 5);
    /// let session = Session::decompose(&g, 3, 5).unwrap();
    /// let cfg = ServeConfig::default().with_layout(StoreLayout::Packed);
    /// let path = std::env::temp_dir().join(format!("doc_store_{}.lbl", std::process::id()));
    /// session.serve_to_file(&inst, cfg, &path).unwrap();
    ///
    /// let engine = lowtw::serve_from_file(&path, cfg).unwrap();
    /// let d = engine.distance(0, 79).unwrap();
    /// assert_eq!(d, twgraph::alg::dijkstra(&inst, 0).dist[79]);
    /// std::fs::remove_file(&path).ok();
    /// ```
    pub fn serve_to_file(
        &self,
        inst: &MultiDigraph,
        cfg: ServeConfig,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), StoreFileError> {
        self.build_store(inst, &cfg)?.write_to(path)
    }

    /// [`serve`](Session::serve), but behind a socket: build the labels,
    /// compact them into a store, wrap it in an epoch-versioned
    /// [`VersionedEngine`], and spawn a [`servd::Server`] answering the
    /// wire protocol on `addr`. Bind to port 0 for an ephemeral port; the
    /// chosen address is `server.local_addr()`.
    ///
    /// ```
    /// use lowtw::prelude::*;
    ///
    /// let g = twgraph::gen::partial_ktree(80, 2, 0.7, 5);
    /// let inst = twgraph::gen::with_random_weights(&g, 20, 5);
    /// let session = Session::decompose(&g, 3, 5).unwrap();
    /// let server = session
    ///     .serve_net(&inst, ServeConfig::default(), ("127.0.0.1", 0), ServdConfig::default())
    ///     .unwrap();
    /// let mut client = Client::connect(server.local_addr()).unwrap();
    /// let d = client.distance(0, 79).unwrap();
    /// assert_eq!(d, twgraph::alg::dijkstra(&inst, 0).dist[79]);
    /// server.shutdown();
    /// ```
    pub fn serve_net(
        &self,
        inst: &MultiDigraph,
        cfg: ServeConfig,
        addr: impl std::net::ToSocketAddrs,
        net_cfg: ServdConfig,
    ) -> Result<Server, NetServeError> {
        let store = self.build_store(inst, &cfg)?;
        let engine = std::sync::Arc::new(VersionedEngine::new(store, cfg));
        Ok(Server::spawn(engine, addr, net_cfg)?)
    }

    /// Exact SSSP distances from `src` (label construction + decode).
    pub fn sssp(&self, inst: &MultiDigraph, src: u32) -> Vec<Dist> {
        let labels = self.labels(inst);
        distlabel::sssp_centralized(&labels, src)
    }

    /// Exact maximum matching of a bipartite instance (Theorem 4).
    pub fn max_matching(
        &self,
        inst: &twgraph::gen::BipartiteInstance,
        mode: bmatch::MatchMode,
    ) -> Result<bmatch::MatchingOutcome, CongestError> {
        bmatch::max_matching(inst, &self.td, &self.info, mode)
    }

    /// Weighted undirected girth (Theorem 5).
    pub fn girth_undirected(&self, inst: &MultiDigraph, seed: u64) -> Result<Dist, CongestError> {
        let cfg = girth::GirthConfig::practical(self.graph.n(), seed);
        Ok(girth::girth_undirected(inst, &self.td, &self.info, &cfg)?.girth)
    }

    /// Weighted directed girth (§7 first reduction).
    pub fn girth_directed(&self, inst: &MultiDigraph) -> Dist {
        let labels = self.labels(inst);
        girth::girth_directed_from_labels(inst, &labels)
    }

    /// Open a dynamic session over `inst`: a maintained incremental
    /// labeling plus an epoch-versioned serving engine, so edge batches
    /// can be applied while queries keep flowing. Uses this session's
    /// settled width guess as the rebuild `t0`.
    pub fn dynamic(
        &self,
        inst: &MultiDigraph,
        seed: u64,
        cfg: ServeConfig,
    ) -> Result<DynamicSession, UpdateError> {
        assert_eq!(inst.n(), self.graph.n());
        DynamicSession::open(inst, self.t_used, seed, cfg)
    }
}

/// What went wrong bringing a store up behind a socket: the serving
/// side (label compaction / engine build) or the network side (bind,
/// listen).
#[derive(Debug)]
pub enum NetServeError {
    /// Label compaction or engine construction failed.
    Serve(ServeError),
    /// Binding or configuring the listening socket failed.
    Io(std::io::Error),
}

impl std::fmt::Display for NetServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetServeError::Serve(e) => write!(f, "network serving setup failed: {e}"),
            NetServeError::Io(e) => write!(f, "network serving socket failed: {e}"),
        }
    }
}

impl std::error::Error for NetServeError {}

impl From<ServeError> for NetServeError {
    fn from(e: ServeError) -> Self {
        NetServeError::Serve(e)
    }
}

impl From<std::io::Error> for NetServeError {
    fn from(e: std::io::Error) -> Self {
        NetServeError::Io(e)
    }
}

/// What went wrong while applying or publishing an update: either the
/// label-maintenance side (re-decomposition) or the serving side (store
/// recompaction).
#[derive(Debug)]
pub enum UpdateError {
    /// Scoped or fallback re-decomposition failed.
    Decomp(DecompError),
    /// Store rebuild or publish failed.
    Serve(ServeError),
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::Decomp(e) => write!(f, "update decomposition failed: {e}"),
            UpdateError::Serve(e) => write!(f, "update publish failed: {e}"),
        }
    }
}

impl std::error::Error for UpdateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            UpdateError::Decomp(e) => Some(e),
            UpdateError::Serve(e) => Some(e),
        }
    }
}

impl From<DecompError> for UpdateError {
    fn from(e: DecompError) -> Self {
        UpdateError::Decomp(e)
    }
}

impl From<ServeError> for UpdateError {
    fn from(e: ServeError) -> Self {
        UpdateError::Serve(e)
    }
}

/// A dynamic-graph session: a maintained [`DynamicLabeling`] paired with
/// an epoch-versioned [`VersionedEngine`].
/// [`apply_updates`](DynamicSession::apply_updates) is the whole
/// lifecycle — apply the
/// batch incrementally (dirty-subtree relabeling, full-rebuild fallback on
/// component splits/merges), then publish the next serving epoch with
/// dirty rows patched, everything else shared, and hot cache pairs of
/// clean vertices kept. Readers holding a
/// [`labelserve::Epoch`] snapshot keep their version for as long as they
/// keep the `Arc`.
///
/// ```
/// use lowtw::prelude::*;
///
/// let g = twgraph::gen::banded_path(80, 2);
/// let inst = twgraph::gen::with_random_weights(&g, 9, 4);
/// let session = Session::decompose(&g, 3, 4).unwrap();
/// let mut dyn_session = session.dynamic(&inst, 4, ServeConfig::default()).unwrap();
///
/// let d_before = dyn_session.engine().distance(0, 79).unwrap();
/// let (report, stats) = dyn_session
///     .apply_updates(&EdgeBatch::new().insert(0, 79, 1))
///     .unwrap();
/// assert!(!report.dirty.is_empty() && stats.epoch == 1);
/// assert!(dyn_session.engine().distance(0, 79).unwrap() <= d_before.min(1));
/// ```
pub struct DynamicSession {
    labeling: DynamicLabeling,
    engine: VersionedEngine,
}

impl DynamicSession {
    /// Build the labeling and serve it as epoch 0.
    pub fn open(
        inst: &MultiDigraph,
        t0: u64,
        seed: u64,
        cfg: ServeConfig,
    ) -> Result<Self, UpdateError> {
        let labeling = DynamicLabeling::build(inst, t0, seed)?;
        let engine = VersionedEngine::from_labeling(&labeling, cfg)?;
        Ok(DynamicSession { labeling, engine })
    }

    /// The maintained labeling (current graph, components, labels).
    pub fn labeling(&self) -> &DynamicLabeling {
        &self.labeling
    }

    /// The versioned serving engine (snapshot it to pin an epoch).
    pub fn engine(&self) -> &VersionedEngine {
        &self.engine
    }

    /// Apply an edge batch incrementally and publish the next epoch.
    /// Queries against [`engine`](Self::engine) are served continuously
    /// throughout — off the previous epoch until the publish swap, off the
    /// new one after.
    pub fn apply_updates(
        &mut self,
        batch: &EdgeBatch,
    ) -> Result<(UpdateReport, PublishStats), UpdateError> {
        let report = self.labeling.apply(batch)?;
        let stats = self.engine.publish_from(&self.labeling, &report.dirty)?;
        Ok((report, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_end_to_end() {
        let g = twgraph::gen::partial_ktree(120, 3, 0.7, 3);
        let inst = twgraph::gen::with_random_weights(&g, 50, 3);
        let session = Session::decompose(&g, 4, 3).unwrap();
        session.td.verify(&g).unwrap();
        let d = session.sssp(&inst, 0);
        assert_eq!(d, twgraph::alg::dijkstra(&inst, 0).dist);
    }

    #[test]
    fn session_distributed_decomposition() {
        let g = twgraph::gen::banded_path(100, 2);
        let (session, rounds) = Session::decompose_distributed(&g, 3, 5).unwrap();
        session.td.verify(&g).unwrap();
        assert!(rounds > 0);
    }

    #[test]
    fn session_serve_engine_matches_decode() {
        let g = twgraph::gen::banded_path(60, 2);
        let inst = twgraph::gen::with_random_weights(&g, 9, 4);
        let session = Session::decompose(&g, 3, 4).unwrap();
        let labels = session.labels(&inst);
        let engine = session
            .serve(
                &inst,
                ServeConfig {
                    shard_size: 16,
                    cache_capacity: 32,
                    ..ServeConfig::default()
                },
            )
            .unwrap();
        for u in (0..60u32).step_by(7) {
            for v in (0..60u32).step_by(5) {
                assert_eq!(
                    engine.distance(u, v).unwrap(),
                    decode(&labels[u as usize], &labels[v as usize]),
                    "serve({u}, {v}) diverged from label decode"
                );
            }
        }
        assert!(engine.store().shard_count() >= 3);
        assert_eq!(
            engine.distance(60, 0),
            Err(ServeError::UnknownNode { node: 60, n: 60 })
        );
    }

    #[test]
    fn dynamic_session_applies_and_publishes() {
        let g = twgraph::gen::partial_ktree(90, 2, 0.7, 6);
        let inst = twgraph::gen::with_random_weights(&g, 12, 6);
        let session = Session::decompose(&g, 3, 6).unwrap();
        let mut ds = session
            .dynamic(
                &inst,
                6,
                ServeConfig {
                    shard_size: 16,
                    cache_capacity: 32,
                    ..ServeConfig::default()
                },
            )
            .unwrap();
        assert_eq!(ds.engine().epoch(), 0);
        let pinned = ds.engine().snapshot();
        let (report, stats) = ds
            .apply_updates(&EdgeBatch::new().insert(0, 89, 1).delete(0, 1))
            .unwrap();
        assert!(!report.dirty.is_empty());
        assert_eq!(stats.epoch, 1);
        assert_eq!(ds.engine().epoch(), 1);
        // The current epoch answers Dijkstra on the *mutated* instance.
        let want = twgraph::alg::dijkstra(ds.labeling().inst(), 0).dist;
        for v in (0..90u32).step_by(9) {
            assert_eq!(ds.engine().distance(0, v).unwrap(), want[v as usize]);
        }
        // The pinned snapshot still answers the pre-update graph.
        let old = twgraph::alg::dijkstra(&inst, 0).dist;
        assert_eq!(pinned.distance(0, 89).unwrap(), old[89]);
    }

    #[test]
    fn session_girth_and_matching() {
        let g = twgraph::gen::cycle(16);
        let inst = twgraph::gen::with_random_weights(&g, 4, 1);
        let session = Session::decompose(&g, 3, 1).unwrap();
        let want = baselines::girth_exact_centralized(&inst);
        assert_eq!(session.girth_undirected(&inst, 9).unwrap(), want);

        let (bg, side) = twgraph::gen::bipartite_banded(15, 15, 2, 0.5, 2);
        let bi = twgraph::gen::BipartiteInstance::new(bg.clone(), side.clone());
        let bs = Session::decompose(&bg, 3, 2).unwrap();
        let out = bs
            .max_matching(&bi, bmatch::MatchMode::Centralized)
            .unwrap();
        let want = baselines::matching_size(&baselines::hopcroft_karp(&bg, &side));
        assert_eq!(out.size(), want);
    }
}
