//! Incremental label maintenance under edge updates (dynamic graphs).
//!
//! The build-once/query-many premise of the paper only pays off if the
//! expensive decompose→label pipeline survives graph changes. This module
//! keeps a [`DynamicLabeling`] — per-component [`PartLabeling`]s plus the
//! current instance — and applies [`EdgeBatch`]es with work proportional to
//! the *dirty subtree* of the decomposition whenever the batch allows it:
//!
//! 1. **Triage** (component diff): components of the updated communication
//!    graph are matched to existing parts by vertex set. Untouched parts
//!    are reused wholesale; parts whose vertex set changed (splits/merges)
//!    are rebuilt from scratch; parts with in-place edge changes go scoped.
//! 2. **Scoped relabel**: the *dirty node* `x` is the deepest tree node
//!    with every touched endpoint inside `V(G'_x)` — changed edges then
//!    live entirely inside `G'_x`, so the recursion state of every node
//!    outside `subtree(x)` is a function of unchanged data. The region is
//!    re-decomposed against the unchanged parent bag
//!    ([`treedec::decompose_region`]), spliced in place of `subtree(x)`,
//!    and relabeled bottom-up.
//! 3. **Gate**: after reprocessing, `H_{p(x)}` is recomputed from child
//!    memos and compared with its memoized pre-update value. Equal means
//!    every boundary-through distance is unchanged, so ancestors only need
//!    a member refresh restricted to the dirty vertex set; different means
//!    the batch crossed a separator invariant and the part falls back to a
//!    full relabel (reusing the already-spliced decomposition).
//!
//! ## Why memos make the gate sound
//!
//! Every build here runs the same §4.2 node step as the centralized build
//! (`build.rs`); only the source of `H_x`'s child-level costs differs. The
//! centralized build reads them from child *labels*, which by then can
//! hold cross-branch values — smaller than `d_{G_x}` and dependent on
//! processing order. Comparing such matrices across builds would be
//! meaningless. This module reads them from child [`NodeMemo`]s instead,
//! and memoizes the graph-determined matrix the step returns: post-APSP
//! `d_{G_x}` restricted to `B_x` (the whole `d_{G_x}` at leaves, whose bag
//! is `V(G_x)`), computed only from direct arcs and child memos. Member
//! refreshes — the node step's and the ancestor-path refresh, one function
//! — still bridge through label entries, so decoded answers stay exact:
//! every stored entry is a realizable walk length, and coverage of
//! `d_{G_a}` for each ancestor `a` is re-established by the refresh.

use crate::build::{apsp, direct_matrix, node_step, order_bottom_up, refresh};
use crate::label::{decode, Label};
use rand::rngs::SmallRng;
use std::collections::{BTreeMap, HashMap};
use treedec::decomp::NodeInfo;
use treedec::region::decompose_region;
use treedec::{decompose_centralized, DecompError, SepConfig};
use twgraph::gen::derive_rng;
use twgraph::tw::TreeDecomposition;
use twgraph::{alg, AppliedEdits, Dist, EdgeBatch, MultiDigraph, UGraph, INF};

/// Graph-determined distance matrix memoized per tree node: post-APSP
/// `d_{G_x}` restricted to `verts` (`B_x` for internal nodes, all of
/// `V(G_x)` at leaves), row-major over `verts × verts`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeMemo {
    /// Sorted vertex ids the matrix is indexed by.
    pub verts: Vec<u32>,
    /// Row-major `verts.len()²` distances.
    pub d: Vec<Dist>,
}

/// Pre-APSP `H_x` over `bag` with child-level costs from child memos only
/// (Lemma 3 with graph-determined inputs).
fn h_from_memos<'a>(
    inst: &MultiDigraph,
    bag: &[u32],
    child_memos: impl Iterator<Item = &'a NodeMemo>,
) -> Vec<Dist> {
    let k = bag.len();
    let mut h = direct_matrix(inst, bag);
    for memo in child_memos {
        // Sorted intersection of the memo's vertex set with the bag.
        let mk = memo.verts.len();
        let mut pairs: Vec<(usize, usize)> = Vec::new(); // (bag idx, memo idx)
        let (mut i, mut j) = (0usize, 0usize);
        while i < bag.len() && j < mk {
            match bag[i].cmp(&memo.verts[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    pairs.push((i, j));
                    i += 1;
                    j += 1;
                }
            }
        }
        for &(bi, mi) in &pairs {
            for &(bj, mj) in &pairs {
                let v = memo.d[mi * mk + mj];
                if v < h[bi * k + bj] {
                    h[bi * k + bj] = v;
                }
            }
        }
    }
    h
}

/// The node step at `x` with `H_x` from child memos; writes `memo[x]`.
fn memo_step(
    inst: &MultiDigraph,
    td: &TreeDecomposition,
    info: &[NodeInfo],
    x: usize,
    labels: &mut [Label],
    memo: &mut [NodeMemo],
) {
    let bag = &td.bags[x];
    let d = node_step(inst, bag, &info[x], labels, |_| {
        h_from_memos(inst, bag, td.children[x].iter().map(|&c| &memo[c]))
    });
    memo[x] = NodeMemo {
        verts: bag.clone(),
        d,
    };
}

/// Build labels and memos for the whole decomposition, children first.
fn build_labels_memoized(
    inst: &MultiDigraph,
    td: &TreeDecomposition,
    info: &[NodeInfo],
) -> (Vec<Label>, Vec<NodeMemo>) {
    let mut labels: Vec<Label> = (0..inst.n() as u32).map(Label::new).collect();
    let mut memo: Vec<NodeMemo> = vec![NodeMemo::default(); td.bags.len()];
    for x in order_bottom_up(td) {
        memo_step(inst, td, info, x, &mut labels, &mut memo);
    }
    (labels, memo)
}

/// Outcome of one scoped apply on a part.
struct ScopedStats {
    /// Whether the part fell back to a full relabel (gate failure or a
    /// root-level dirty node).
    fallback: bool,
    /// Replacement tree nodes produced for the region.
    region_nodes: usize,
    /// Member-refresh operations performed along the ancestor path.
    refreshed: usize,
    /// Part-local vertices whose labels may have changed (sorted).
    dirty_local: Vec<u32>,
}

/// Labeling of one connected component, with everything needed to apply
/// scoped updates: the decomposition, recursion records, per-node memos,
/// and the labels themselves.
#[derive(Clone, Debug)]
pub struct PartLabeling {
    graph: UGraph,
    inst: MultiDigraph,
    old_of: Vec<u32>,
    td: TreeDecomposition,
    info: Vec<NodeInfo>,
    memo: Vec<NodeMemo>,
    labels: Vec<Label>,
    t0: u64,
    t_used: u64,
}

impl PartLabeling {
    /// Decompose and label one connected component (`old_of` maps local to
    /// global vertex ids). Single vertices get the trivial decomposition.
    pub fn build(
        graph: UGraph,
        inst: MultiDigraph,
        old_of: Vec<u32>,
        t0: u64,
        cfg: &SepConfig,
        rng: &mut SmallRng,
    ) -> Result<Self, DecompError> {
        let n = graph.n();
        if n == 1 {
            let mut label = Label::new(0);
            label.merge(0, 0, 0);
            return Ok(PartLabeling {
                graph,
                inst,
                old_of,
                td: TreeDecomposition::trivial(1),
                info: vec![NodeInfo {
                    gpx: vec![0],
                    inherited: Vec::new(),
                    sep: Vec::new(),
                    is_leaf: true,
                }],
                memo: vec![NodeMemo {
                    verts: vec![0],
                    d: vec![0],
                }],
                labels: vec![label],
                t0,
                t_used: t0.max(2),
            });
        }
        let dec = decompose_centralized(&graph, t0, cfg, rng)?;
        let (labels, memo) = build_labels_memoized(&inst, &dec.td, &dec.info);
        Ok(PartLabeling {
            graph,
            inst,
            old_of,
            td: dec.td,
            info: dec.info,
            memo,
            labels,
            t0,
            t_used: dec.t_used,
        })
    }

    /// Part size.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Local → global vertex map (sorted ascending).
    pub fn old_of(&self) -> &[u32] {
        &self.old_of
    }

    /// The part's communication graph, in part-local ids.
    pub fn graph(&self) -> &UGraph {
        &self.graph
    }

    /// The part's instance, in part-local ids.
    pub fn inst(&self) -> &MultiDigraph {
        &self.inst
    }

    /// The current tree decomposition.
    pub fn td(&self) -> &TreeDecomposition {
        &self.td
    }

    /// Recursion records aligned with [`Self::td`].
    pub fn info(&self) -> &[NodeInfo] {
        &self.info
    }

    /// Part-local labels.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Per-node memos aligned with [`Self::td`].
    pub fn memos(&self) -> &[NodeMemo] {
        &self.memo
    }

    /// The deepest tree node whose `V(G'_x)` contains every touched vertex.
    fn dirty_node(&self, touched: &[u32]) -> usize {
        let mut x = self.td.root;
        'descend: loop {
            for &c in &self.td.children[x] {
                let gpx = &self.info[c].gpx;
                if touched.iter().all(|t| gpx.binary_search(t).is_ok()) {
                    x = c;
                    continue 'descend;
                }
            }
            return x;
        }
    }

    /// Vertices of `subtree(x)` marked in a bool mask over tree nodes.
    fn subtree_mask(&self, x: usize) -> Vec<bool> {
        let mut mask = vec![false; self.td.bags.len()];
        let mut stack = vec![x];
        while let Some(y) = stack.pop() {
            mask[y] = true;
            stack.extend(self.td.children[y].iter().copied());
        }
        mask
    }

    /// Drop `subtree(x)` from the decomposition and its aligned records,
    /// moving the survivors down in old id order (parents keep preceding
    /// children) and renumbering their links. Returns the old → new id
    /// map (`usize::MAX` for dropped nodes).
    fn remove_subtree(&mut self, x: usize) -> Vec<usize> {
        let gone = self.subtree_mask(x);
        let mut map = vec![usize::MAX; gone.len()];
        let mut next = 0;
        for (y, &g) in gone.iter().enumerate() {
            if !g {
                map[y] = next;
                next += 1;
            }
        }
        fn keep<T>(v: &mut Vec<T>, gone: &[bool]) {
            let mut i = 0;
            v.retain(|_| {
                i += 1;
                !gone[i - 1]
            });
        }
        let td = &mut self.td;
        keep(&mut td.bags, &gone);
        keep(&mut td.parent, &gone);
        keep(&mut td.children, &gone);
        keep(&mut self.info, &gone);
        keep(&mut self.memo, &gone);
        for p in &mut td.parent {
            *p = map[*p];
        }
        for children in &mut td.children {
            children.retain(|&c| !gone[c]);
            children.iter_mut().for_each(|c| *c = map[*c]);
        }
        td.root = map[td.root];
        map
    }

    /// Full relabel of the part on its current decomposition (used by the
    /// gate-failure fallback after the region splice).
    fn relabel_all(&mut self) {
        let (labels, memo) = build_labels_memoized(&self.inst, &self.td, &self.info);
        self.labels = labels;
        self.memo = memo;
    }

    /// Relabel after an update that kept the part's vertex set (and left
    /// it connected): `graph`/`inst` already hold the new structures and
    /// `touched` lists the part-local endpoints of effective edge changes.
    fn apply_scoped(
        &mut self,
        touched: &[u32],
        rng: &mut SmallRng,
    ) -> Result<ScopedStats, DecompError> {
        let x = self.dirty_node(touched);

        if x == self.td.root {
            // The batch spans the root's own region: nothing outside the
            // recursion is reusable — rebuild the part's decomposition.
            let cfg = SepConfig::practical(self.graph.n());
            let dec = decompose_centralized(&self.graph, self.t0, &cfg, rng)?;
            self.td = dec.td;
            self.info = dec.info;
            self.t_used = dec.t_used;
            self.relabel_all();
            return Ok(ScopedStats {
                fallback: true,
                region_nodes: 0,
                refreshed: 0,
                dirty_local: (0..self.graph.n() as u32).collect(),
            });
        }

        let p = self.td.parent[x];
        let old_gpx = self.info[x].gpx.clone();
        let old_inh = self.info[x].inherited.clone();
        let cfg = SepConfig::practical(self.graph.n());
        let region = decompose_region(&self.graph, &old_gpx, &self.td.bags[p], self.t0, &cfg, rng)?;
        self.t_used = self.t_used.max(region.t_used);

        // Splice: survivors move down in old id order, then the
        // replacement nodes attach under p(x).
        let p_new = self.remove_subtree(x)[p];
        let mut region_ids = Vec::with_capacity(region.nodes.len());
        for rn in region.nodes {
            let parent = Some(match rn.parent {
                Some(i) => region_ids[i],
                None => p_new,
            });
            region_ids.push(self.td.push_bag(parent, rn.bag));
            self.info.push(rn.info);
            self.memo.push(NodeMemo::default());
        }

        // Clear: region vertices lose their labels entirely; boundary
        // vertices drop entries whose hub lies inside the region (only
        // subtree(x) bags can contain region vertices).
        for &u in &old_gpx {
            self.labels[u as usize] = Label::new(u);
        }
        for &u in &old_inh {
            self.labels[u as usize]
                .entries
                .retain(|e| old_gpx.binary_search(&e.0).is_err());
        }

        // Reprocess the replacement nodes children-first (reverse of the
        // BFS creation order).
        for &id in region_ids.iter().rev() {
            memo_step(
                &self.inst,
                &self.td,
                &self.info,
                id,
                &mut self.labels,
                &mut self.memo,
            );
        }

        // Gate: H_{p(x)} recomputed from the new child memos must match its
        // memoized pre-update value; otherwise boundary-through distances
        // moved and the scoped refresh would be unsound.
        let bag = &self.td.bags[p_new];
        let mut h_new = h_from_memos(
            &self.inst,
            bag,
            self.td.children[p_new].iter().map(|&c| &self.memo[c]),
        );
        apsp(&mut h_new, bag.len());
        if h_new != self.memo[p_new].d {
            self.relabel_all();
            return Ok(ScopedStats {
                fallback: true,
                region_nodes: region_ids.len(),
                refreshed: 0,
                dirty_local: (0..self.graph.n() as u32).collect(),
            });
        }

        // Path refresh: ancestors keep their (provably unchanged) memos;
        // only the dirty members need their bag entries re-bridged.
        let mut dirty: Vec<u32> = old_gpx.iter().chain(old_inh.iter()).copied().collect();
        dirty.sort_unstable();
        let mut refreshed = 0usize;
        let mut a = p_new;
        loop {
            refresh(&mut self.labels, &self.td.bags[a], &self.memo[a].d, &dirty);
            refreshed += dirty.len();
            if self.td.parent[a] == a {
                break;
            }
            a = self.td.parent[a];
        }
        Ok(ScopedStats {
            fallback: false,
            region_nodes: region_ids.len(),
            refreshed,
            dirty_local: dirty,
        })
    }
}

/// What one [`DynamicLabeling::apply`] did, for reporting and for scoping
/// downstream store rebuilds.
#[derive(Clone, Debug, Default)]
pub struct UpdateReport {
    /// Sorted global vertex ids whose labels may have changed.
    pub dirty: Vec<u32>,
    /// Parts reused wholesale (vertex set unchanged, no touched vertex).
    pub parts_reused: usize,
    /// Parts updated through the scoped dirty-subtree path.
    pub parts_scoped: usize,
    /// Parts rebuilt from scratch (component splits and merges).
    pub parts_rebuilt: usize,
    /// Scoped applies that fell back to a full relabel (gate failure or
    /// root-level dirty node).
    pub fallbacks: usize,
    /// Replacement tree nodes produced across all scoped applies.
    pub region_nodes: usize,
    /// Member-refresh operations along ancestor paths.
    pub refreshed: usize,
    /// Total tree nodes across all parts after the apply.
    pub total_nodes: usize,
}

/// A maintained distance labeling of a (possibly disconnected) instance:
/// build once, then [`apply`](Self::apply) edge batches.
#[derive(Clone, Debug)]
pub struct DynamicLabeling {
    inst: MultiDigraph,
    graph: UGraph,
    comp_of: Vec<u32>,
    parts: Vec<PartLabeling>,
    /// Per global vertex: `(part index, part-local index)`.
    part_of: Vec<(u32, u32)>,
    t0: u64,
    seed: u64,
    applied: u64,
}

impl DynamicLabeling {
    /// Decompose and label every connected component of `inst`.
    pub fn build(inst: &MultiDigraph, t0: u64, seed: u64) -> Result<Self, DecompError> {
        let graph = inst.comm_graph();
        let n = graph.n();
        if n == 0 {
            return Err(DecompError::EmptyGraph);
        }
        let (comp_of, comps) = alg::split_components(&graph, inst);
        let mut parts = Vec::with_capacity(comps.len());
        for (c, comp) in comps.into_iter().enumerate() {
            let mut rng = derive_rng("dynlabel_build", &[c as u64], seed);
            let cfg = SepConfig::practical(comp.graph.n());
            parts.push(PartLabeling::build(
                comp.graph,
                comp.inst,
                comp.old_of,
                t0,
                &cfg,
                &mut rng,
            )?);
        }
        let part_of = index_parts(n, &parts);
        Ok(DynamicLabeling {
            inst: inst.clone(),
            graph,
            comp_of,
            parts,
            part_of,
            t0,
            seed,
            applied: 0,
        })
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// The current instance (after all applied batches).
    pub fn inst(&self) -> &MultiDigraph {
        &self.inst
    }

    /// The current communication graph.
    pub fn graph(&self) -> &UGraph {
        &self.graph
    }

    /// Component id per vertex (recomputed when an apply changes the
    /// components).
    pub fn comp_of(&self) -> &[u32] {
        &self.comp_of
    }

    /// The per-component labelings.
    pub fn parts(&self) -> &[PartLabeling] {
        &self.parts
    }

    /// Exact `d(s → t)` in the current instance (`INF` across components).
    pub fn distance(&self, s: u32, t: u32) -> Dist {
        if self.comp_of[s as usize] != self.comp_of[t as usize] {
            return INF;
        }
        let (ps, ls) = self.part_of[s as usize];
        let (_, lt) = self.part_of[t as usize];
        let part = &self.parts[ps as usize];
        decode(&part.labels[ls as usize], &part.labels[lt as usize])
    }

    /// Label entries of global vertex `v` with hubs mapped to global ids
    /// (sorted by hub) — the store-compaction input.
    pub fn label_entries_global(&self, v: u32) -> Vec<(u32, Dist, Dist)> {
        let (p, l) = self.part_of[v as usize];
        let part = &self.parts[p as usize];
        let mut out: Vec<(u32, Dist, Dist)> = part.labels[l as usize]
            .entries
            .iter()
            .map(|&(h, to, from)| (part.old_of[h as usize], to, from))
            .collect();
        out.sort_unstable_by_key(|e| e.0);
        out
    }

    /// Apply an edge batch, updating labels incrementally where possible.
    ///
    /// The instance and communication graph are edited in place. When the
    /// batch keeps every component's vertex set, each touched part's local
    /// graph and instance are edited in place too and only its dirty
    /// subtree is relabeled; otherwise components are recomputed, touched
    /// parts re-induced and split or merged ones rebuilt from scratch.
    pub fn apply(&mut self, batch: &EdgeBatch) -> Result<UpdateReport, DecompError> {
        let edits = batch.apply_in_place(&mut self.inst, &mut self.graph);
        self.applied += 1;
        let mut rep = if edits.touched.is_empty() {
            UpdateReport {
                parts_reused: self.parts.len(),
                ..UpdateReport::default()
            }
        } else if self.keeps_components(&edits) {
            self.apply_within_parts(&edits)?
        } else {
            self.repartition(&edits.touched)?
        };
        rep.dirty.sort_unstable();
        rep.dirty.dedup();
        rep.total_nodes = self.parts.iter().map(|p| p.td.bags.len()).sum();
        Ok(rep)
    }

    /// Whether the edited graph has the old components: every inserted
    /// edge joins two vertices of one component, and every deleted pair is
    /// still connected (so no path through a deleted edge is lost).
    fn keeps_components(&self, edits: &AppliedEdits) -> bool {
        edits
            .inserted
            .iter()
            .all(|&(u, v, ..)| self.comp_of[u as usize] == self.comp_of[v as usize])
            && edits
                .deleted
                .iter()
                .all(|&(u, v)| alg::connected(&self.graph, u, v))
    }

    /// Components unchanged: edit each touched part's graph and instance
    /// in place (part-local ids, same arc order as re-inducing it) and
    /// relabel its dirty subtree. `comp_of` and `part_of` stay as they are.
    fn apply_within_parts(&mut self, edits: &AppliedEdits) -> Result<UpdateReport, DecompError> {
        let local = |v: u32| self.part_of[v as usize];
        let mut touched: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for &t in &edits.touched {
            let (p, l) = local(t);
            touched.entry(p).or_default().push(l);
        }
        let mut deleted: BTreeMap<u32, Vec<(u32, u32)>> = BTreeMap::new();
        for &(u, v) in &edits.deleted {
            let ((p, lu), (_, lv)) = (local(u), local(v));
            deleted.entry(p).or_default().push((lu, lv));
        }
        for (&p, pairs) in &deleted {
            let part = &mut self.parts[p as usize];
            part.inst.remove_edges(pairs);
            for &(lu, lv) in pairs {
                part.graph.remove_edge(lu, lv);
            }
        }
        for &(u, v, w, ue) in &edits.inserted {
            let ((p, lu), (_, lv)) = (local(u), local(v));
            let part = &mut self.parts[p as usize];
            part.inst.push_edge(lu, lv, w, ue);
            part.graph.insert_edge(lu, lv);
        }
        let mut rep = UpdateReport::default();
        for (p, touched_local) in touched {
            let part = &mut self.parts[p as usize];
            let mut rng = derive_rng(
                "dynlabel_apply",
                &[self.applied, part.old_of[0] as u64],
                self.seed,
            );
            let stats = part.apply_scoped(&touched_local, &mut rng)?;
            rep.note_scoped(&stats, &part.old_of);
        }
        rep.parts_reused = self.parts.len() - rep.parts_scoped;
        Ok(rep)
    }

    /// Components changed: split the graph and instance into their new
    /// components in one pass, match them to old parts by vertex set, hand
    /// touched parts whose vertex set survived their new graph and
    /// instance, and rebuild the rest from scratch.
    fn repartition(&mut self, touched: &[u32]) -> Result<UpdateReport, DecompError> {
        let (comp_of, comps) = alg::split_components(&self.graph, &self.inst);
        // Old parts keyed by smallest vertex: `old_of` is sorted, so
        // identical vertex sets share their first element.
        let old_key: HashMap<u32, usize> = self
            .parts
            .iter()
            .enumerate()
            .map(|(i, p)| (p.old_of[0], i))
            .collect();
        let mut old_parts: Vec<Option<PartLabeling>> = std::mem::take(&mut self.parts)
            .into_iter()
            .map(Some)
            .collect();

        let mut rep = UpdateReport::default();
        let mut new_parts: Vec<PartLabeling> = Vec::with_capacity(comps.len());
        for comp in comps {
            let verts = &comp.old_of;
            let matching = old_key
                .get(&verts[0])
                .copied()
                .filter(|&i| old_parts[i].as_ref().is_some_and(|p| p.old_of == *verts));
            let touched_here: Vec<u32> = touched
                .iter()
                .copied()
                .filter(|t| verts.binary_search(t).is_ok())
                .collect();
            let mut rng = derive_rng(
                "dynlabel_apply",
                &[self.applied, verts[0] as u64],
                self.seed,
            );
            let part = match matching {
                Some(i) if touched_here.is_empty() => {
                    // Vertex set unchanged and nothing touched: the induced
                    // instance is identical — reuse the part wholesale.
                    rep.parts_reused += 1;
                    old_parts[i].take().expect("each old part matches once")
                }
                Some(i) => {
                    let mut part = old_parts[i].take().expect("each old part matches once");
                    (part.graph, part.inst) = (comp.graph, comp.inst);
                    let touched_local: Vec<u32> = touched_here
                        .iter()
                        .map(|t| {
                            let l = part.old_of.binary_search(t);
                            l.expect("a touched vertex of the component") as u32
                        })
                        .collect();
                    let stats = part.apply_scoped(&touched_local, &mut rng)?;
                    rep.note_scoped(&stats, &part.old_of);
                    part
                }
                None => {
                    // Split or merge: the vertex set is new — scratch-build.
                    let cfg = SepConfig::practical(comp.graph.n());
                    rep.parts_rebuilt += 1;
                    rep.dirty.extend(verts.iter().copied());
                    PartLabeling::build(
                        comp.graph,
                        comp.inst,
                        comp.old_of,
                        self.t0,
                        &cfg,
                        &mut rng,
                    )?
                }
            };
            new_parts.push(part);
        }
        self.comp_of = comp_of;
        self.part_of = index_parts(self.graph.n(), &new_parts);
        self.parts = new_parts;
        Ok(rep)
    }
}

impl UpdateReport {
    /// Account one scoped part apply (`old_of` maps its dirty vertices to
    /// global ids).
    fn note_scoped(&mut self, stats: &ScopedStats, old_of: &[u32]) {
        self.parts_scoped += 1;
        self.fallbacks += stats.fallback as usize;
        self.region_nodes += stats.region_nodes;
        self.refreshed += stats.refreshed;
        self.dirty
            .extend(stats.dirty_local.iter().map(|&l| old_of[l as usize]));
    }
}

/// Global vertex → `(part, local)` index.
fn index_parts(n: usize, parts: &[PartLabeling]) -> Vec<(u32, u32)> {
    let mut part_of = vec![(u32::MAX, u32::MAX); n];
    for (pi, part) in parts.iter().enumerate() {
        for (li, &g) in part.old_of.iter().enumerate() {
            part_of[g as usize] = (pi as u32, li as u32);
        }
    }
    part_of
}

#[cfg(test)]
mod tests {
    use super::*;
    use twgraph::alg::apsp_dijkstra;
    use twgraph::gen::{banded_path, disjoint_union, grid, ktree, with_random_weights};

    fn assert_matches_dijkstra(dyn_l: &DynamicLabeling) {
        let truth = apsp_dijkstra(dyn_l.inst());
        let n = dyn_l.n();
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                assert_eq!(
                    dyn_l.distance(u, v),
                    truth[u as usize][v as usize],
                    "distance({u},{v}) after updates"
                );
            }
        }
    }

    #[test]
    fn memoized_build_is_exact() {
        let g = banded_path(60, 2);
        let inst = with_random_weights(&g, 20, 7);
        let dyn_l = DynamicLabeling::build(&inst, 3, 1).unwrap();
        assert_matches_dijkstra(&dyn_l);
    }

    #[test]
    fn memoized_build_handles_components() {
        let g = disjoint_union(&[banded_path(20, 2), grid(4, 4), twgraph::UGraph::empty(1)]);
        let inst = with_random_weights(&g, 9, 3);
        let dyn_l = DynamicLabeling::build(&inst, 3, 2).unwrap();
        assert_matches_dijkstra(&dyn_l);
        // Cross-component pairs decode to INF.
        assert_eq!(dyn_l.distance(0, 20), INF);
        assert_eq!(dyn_l.distance(36, 0), INF);
    }

    #[test]
    fn apply_matches_scratch_rebuild() {
        let g = ktree(48, 2, 5);
        let inst = with_random_weights(&g, 12, 4);
        let mut dyn_l = DynamicLabeling::build(&inst, 3, 3).unwrap();
        let batches = [
            EdgeBatch::new().insert(3, 40, 2),
            EdgeBatch::new().delete(3, 40).insert(10, 11, 1),
            EdgeBatch::new().delete(0, 1),
        ];
        for batch in &batches {
            let rep = dyn_l.apply(batch).unwrap();
            assert!(rep.parts_reused + rep.parts_scoped + rep.parts_rebuilt > 0);
            assert_matches_dijkstra(&dyn_l);
            // The incremental result answers identically to a from-scratch
            // build over the updated instance.
            let scratch = DynamicLabeling::build(dyn_l.inst(), 3, 3).unwrap();
            for u in 0..dyn_l.n() as u32 {
                for v in 0..dyn_l.n() as u32 {
                    assert_eq!(dyn_l.distance(u, v), scratch.distance(u, v));
                }
            }
        }
    }

    #[test]
    fn split_and_merge_components() {
        // A path of two blobs joined by a bridge: deleting the bridge
        // splits the component, re-inserting it merges back.
        let g = banded_path(30, 1);
        let inst = with_random_weights(&g, 8, 9);
        let mut dyn_l = DynamicLabeling::build(&inst, 3, 4).unwrap();
        let rep = dyn_l.apply(&EdgeBatch::new().delete(14, 15)).unwrap();
        assert!(rep.parts_rebuilt >= 1, "split must rebuild parts: {rep:?}");
        assert_eq!(dyn_l.distance(0, 29), INF);
        assert_matches_dijkstra(&dyn_l);
        let rep = dyn_l.apply(&EdgeBatch::new().insert(14, 15, 3)).unwrap();
        assert!(rep.parts_rebuilt >= 1, "merge must rebuild parts: {rep:?}");
        assert!(dyn_l.distance(0, 29) < INF);
        assert_matches_dijkstra(&dyn_l);
    }

    #[test]
    fn noop_batch_reuses_everything() {
        let g = grid(5, 5);
        let inst = with_random_weights(&g, 6, 2);
        let mut dyn_l = DynamicLabeling::build(&inst, 3, 5).unwrap();
        let rep = dyn_l.apply(&EdgeBatch::new().delete(0, 24)).unwrap();
        assert_eq!(rep.parts_reused, 1);
        assert_eq!(rep.parts_scoped + rep.parts_rebuilt, 0);
        assert!(rep.dirty.is_empty());
        assert_matches_dijkstra(&dyn_l);
    }

    #[test]
    fn deep_edit_goes_scoped() {
        // A long banded path decomposes into a deep tree; an edit confined
        // to one end should stay far from the root.
        let g = banded_path(400, 2);
        let inst = with_random_weights(&g, 10, 1);
        let mut dyn_l = DynamicLabeling::build(&inst, 3, 6).unwrap();
        let rep = dyn_l.apply(&EdgeBatch::new().insert(2, 4, 1)).unwrap();
        assert_eq!(rep.parts_scoped, 1);
        assert!(
            rep.dirty.len() < dyn_l.n(),
            "scoped apply should not dirty the whole part: {} of {}",
            rep.dirty.len(),
            dyn_l.n()
        );
        let truth = apsp_dijkstra(dyn_l.inst());
        for u in (0..400).step_by(13) {
            for v in (0..400).step_by(17) {
                assert_eq!(dyn_l.distance(u as u32, v as u32), truth[u][v]);
            }
        }
    }

    #[test]
    fn label_entries_global_maps_hubs() {
        let g = disjoint_union(&[grid(3, 3), grid(3, 3)]);
        let inst = with_random_weights(&g, 5, 8);
        let dyn_l = DynamicLabeling::build(&inst, 3, 7).unwrap();
        // Vertex 9 is the first vertex of the second component; its hubs
        // must all be global ids ≥ 9.
        let entries = dyn_l.label_entries_global(9);
        assert!(!entries.is_empty());
        assert!(entries.iter().all(|e| e.0 >= 9));
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
